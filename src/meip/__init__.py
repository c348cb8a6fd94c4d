"""Mutual-energy feature coordinates for grayscale image classification.

The package optimizes the material layout of a membrane model so that the
energy inner product between deformations becomes a discriminative feature
coordinate, grows a forest of such axes over recursively split training
subsets, and classifies feature vectors with per-class Gaussians.
"""

# Names are imported from the submodules, not from here.  The package still
# loads them, in this order: loading none moved the benchmark process's heap
# layout, and its peak resident set rose by up to 11% on classify_bulk.
from meip import fem, dataset, lp, optimizer, forest, classifier  # noqa: F401

__version__ = "0.1.0"
