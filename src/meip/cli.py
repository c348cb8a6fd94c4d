"""Command-line interface: train-axes, train, eval, inspect, pipeline."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from meip import pipeline


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, metavar="PATH",
                   help="key = value configuration file")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="output directory (default: out_dir from the config)")


def build_parser() -> argparse.ArgumentParser:
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
    stage = args.command
    try:
        if stage == "inspect":
            files = pipeline.cmd_inspect(args.artifact, args.out)
            for f in files:
                print(f)
            return 0

        cfg = pipeline.load_config(args.config)
        out = Path(args.out) if args.out else cfg.resolve(cfg.out_dir)
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
            cm = (report.train_confusion if args.split == "train"
                  else report.test_confusion)
            print(f"{args.split} accuracy: {cm['accuracy']:.6f}")
        elif stage == "pipeline":
            report = pipeline.cmd_pipeline(cfg, out)
            print(f"train accuracy: {report.train_confusion['accuracy']:.6f}")
            print(f"test accuracy: {report.test_confusion['accuracy']:.6f}")
    except Exception as exc:  # CLI boundary: attribute the failing stage
        print(f"[{stage}] error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
