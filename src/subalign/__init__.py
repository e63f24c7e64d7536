"""Procrustes fitting-error vs. Grassmannian distance for separately reduced data.

When two correlated data sets are dimension-reduced independently (e.g. by
PCA) and then compared by orthogonal Procrustes fitting, the square
fitting-error converges to a convex combination of its maximum 2k and a
(cross-covariance weighted) square distance between the projection
subspaces, mixed by a correlation parameter computed from the covariance
blocks.  This package provides the geometry, the generator, the
closed-form limit quantities, and a Monte Carlo harness with a CLI.
"""

from .grassmann import (
    Subspace,
    hausdorff_sq,
    principal_angles,
    projector,
    weighted_hausdorff_sq,
)
from .datamatrix import (
    CenteredData,
    NormalizedProjection,
    center,
    fit_error_sq,
    optimal_rotation,
    pca_subspace,
)
from .kernel import evaluate_grams
from .model import (
    JointCovariance,
    identity_pair,
    mvn_grams,
    reversed_pair,
    spiked_diag_pair,
)
from .sim import (
    ExperimentConfig,
    Records,
    replicate_seed,
    run_experiment,
    run_replicates,
    summarize,
)
from .theory import plugin_rho, predicted_fit_error_sq, rho

__version__ = "0.33.0"
