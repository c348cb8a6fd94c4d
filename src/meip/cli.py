"""Command-line interface: train-axes, train, eval, inspect, pipeline."""

from __future__ import annotations

import argparse
import ctypes
import functools
import logging
import os
import sys
from pathlib import Path

from meip import pipeline

log = logging.getLogger(__name__)

# OpenBLAS's thread setter in plain, 64-bit-integer and scipy wheel builds
_SET_THREADS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                "scipy_openblas_set_num_threads",
                "scipy_openblas_set_num_threads64_")


@functools.cache
def _one_blas_thread() -> None:
    """Set every OpenBLAS loaded in this process to one thread.

    With more threads a GEMM's bits and the banded Cholesky's speed depend
    on the core count.  OpenBLAS reads OPENBLAS_NUM_THREADS when numpy or
    scipy loads it, which is before any meip code runs, so the count is
    set through each loaded library (numpy and scipy may each bring one).
    A BLAS that this cannot reach is logged, not guessed at.
    """
    try:
        with open("/proc/self/maps") as f:   # the loaded libraries (Linux)
            paths = {line.split(maxsplit=5)[5].strip() for line in f
                     if "openblas" in line}
    except OSError:
        paths = set()
    pinned = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        setter = next((getattr(lib, name) for name in _SET_THREADS
                       if hasattr(lib, name)), None)
        if setter is not None:   # void (int), also in 64-bit-integer builds
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            pinned.append(Path(path).name)
    if pinned:
        log.info("BLAS: one thread in %s", ", ".join(pinned))
    else:
        log.warning("meip could not set BLAS to one thread (no loaded "
                    "OpenBLAS found); outputs may depend on the core count")


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, metavar="PATH",
                   help="key = value configuration file")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="output directory (default: out next to the config)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``meip`` argument parser, built once per process: parsing
    leaves it unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="meip",
        description="Membrane-energy feature coordinates: axis training, "
                    "Gaussian classification, and artifact inspection.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log per-iteration optimizer progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-axes", help="grow the configured axis forests")
    _add_config(p)

    p = sub.add_parser("train", help="fit the Gaussian classifier")
    _add_config(p)
    p.add_argument("--bundle", metavar="FILE", default=None,
                   help="axis bundle (default: <out>/axes.txt)")

    p = sub.add_parser("eval", help="evaluate a trained model")
    _add_config(p)
    p.add_argument("--model", metavar="FILE", default=None,
                   help="model file (default: <out>/model.txt)")
    p.add_argument("--split", choices=("train", "test"), default="test")

    p = sub.add_parser("inspect", help="render an artifact to PGM/CSV")
    p.add_argument("artifact", metavar="FILE")
    p.add_argument("--out", metavar="DIR", default=".")

    p = sub.add_parser("pipeline", help="train-axes + train + eval, end to end")
    _add_config(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(message)s")
    # every call: basicConfig leaves the level alone once a handler exists
    logging.getLogger().setLevel(
        logging.INFO if args.verbose else logging.WARNING)
    _one_blas_thread()
    stage = args.command
    try:
        if stage == "inspect":
            files = pipeline.cmd_inspect(args.artifact, args.out)
            for f in files:
                print(f)
            return 0

        cfg = pipeline.load_config(args.config)
        out = Path(args.out) if args.out else cfg.resolve("out")
        if stage != "pipeline":  # eval reads --split, the others train
            data = pipeline.load_split(cfg, getattr(args, "split", "train"))
        if stage == "train-axes":
            pipeline.cmd_train_axes(cfg, data, out)
            print(out / "axes.txt")
        elif stage == "train":
            bundle = args.bundle or out / "axes.txt"
            print(pipeline.cmd_train(cfg, bundle, data, out))
        elif stage == "eval":
            model = args.model or out / "model.txt"
            report = pipeline.cmd_eval(cfg, model, data, args.split, out)
            accuracy = report[f"{args.split}_confusion"]["accuracy"]
            print(f"{args.split} accuracy: {accuracy:.6f}")
        elif stage == "pipeline":
            report = pipeline.cmd_pipeline(cfg, out)
            for split in ("train", "test"):
                accuracy = report[f"{split}_confusion"]["accuracy"]
                print(f"{split} accuracy: {accuracy:.6f}")
    except Exception as exc:  # CLI boundary: attribute the failing stage
        print(f"[{stage}] error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
