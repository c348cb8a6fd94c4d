"""Mutual-energy feature coordinates for grayscale image classification.

The package optimizes the material layout of a membrane model so that the
energy inner product between deformations becomes a discriminative feature
coordinate, grows a forest of such axes over recursively split training
subsets, and classifies feature vectors with per-class Gaussians.
"""

from meip.fem import (
    GridMesh,
    DesignField,
    StiffnessOperator,
    build_mesh,
    element_matrices,
    assemble_stiffness,
    assemble_mass,
    grayscale_to_force,
    mutual_energy,
    generalized_eigenpairs,
)
from meip.dataset import Dataset, load_idx_images, load_idx_labels, preprocess
from meip.lp import MoveLimitLp, LpSolution, solve_move_limit_lp
from meip.optimizer import OptimizerConfig, AxisResult, optimize
from meip.forest import AxisBundle, generate_axes, orthonormalize
from meip.classifier import ClassGaussian, ConfusionMatrix, fit, predict_batch

__version__ = "0.1.0"
