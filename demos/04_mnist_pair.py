"""Full MNIST digit-pair run through the pipeline commands.

Needs the four MNIST IDX files; point MEIP_MNIST_DIR at them (or place
them under data/mnist/ in the repository root).  Reproduces the published
binary experiment: a single axis trained on digits 0 and 1 with the
default parameters, then a Gaussian classifier evaluated on both splits.
"""

import os
import sys
import tempfile
from pathlib import Path

from meip import pipeline

FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
         "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def find_mnist() -> Path | None:
    env = os.environ.get("MEIP_MNIST_DIR")
    for cand in ([Path(env)] if env else []) + [
            Path(__file__).resolve().parent.parent / "data" / "mnist"]:
        if cand.is_dir() and all((cand / f).exists() for f in FILES):
            return cand
    return None


mnist = find_mnist()
if mnist is None:
    print("MNIST not found: set MEIP_MNIST_DIR to a directory containing")
    for f in FILES:
        print(f"  {f}")
    sys.exit(1)

workdir = Path(tempfile.mkdtemp(prefix="meip_mnist_"))
cfg_path = workdir / "mnist01.cfg"
cfg_path.write_text(f"""
class_pairs = 0:1
n_axes = 1
train_images = {mnist / FILES[0]}
train_labels = {mnist / FILES[1]}
test_images = {mnist / FILES[2]}
test_labels = {mnist / FILES[3]}
""")

cfg = pipeline.load_config(cfg_path)
print(f"running the 0-vs-1 pipeline into {workdir / 'out'} ...")
report = pipeline.cmd_pipeline(cfg, workdir / "out")

print(f"train accuracy: {report['train_confusion']['accuracy']:.4%}")
print(f"test accuracy:  {report['test_confusion']['accuracy']:.4%}")
print(f"train confusion: {report['train_confusion']['counts']}")
print(f"test confusion:  {report['test_confusion']['counts']}")
print(f"artifacts: {sorted(p.name for p in (workdir / 'out').iterdir())}")
