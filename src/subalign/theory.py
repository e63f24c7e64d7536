"""Closed-form limit quantities for the fitting-error vs. distance relationship.

For a joint covariance with blocks Cov(X), Cov(Y), Cov(X, Y) and projection
dimension k, the correlation parameter

    rho = sum_{j<=k} sigma_j(Cov(X,Y))
          / sqrt(sum_{j<=k} sigma_j(Cov(X))) / sqrt(sum_{j<=k} sigma_j(Cov(Y)))

lies in [0, 1], and the square fitting-error of the two normalized
projections converges almost surely to the convex combination

    (1 - rho) * 2k + rho * weighted_hausdorff_sq(A, B, Cov(X, Y)).
"""

from __future__ import annotations

import numpy as np

from .grassmann import topk_mass
from .kernel import gram_blocks
from .model import JointCovariance

__all__ = ["rho", "predicted_fit_error_sq", "plugin_rho"]

_RHO_SLACK = 1e-10
_RANGE_SLACK = 1e-9


def _rho(cov_x: np.ndarray, cov_y: np.ndarray, cov_xy: np.ndarray, k: int) -> float:
    """rho from the three covariance blocks (or any common positive multiple of them)."""
    m = cov_x.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    den = np.sqrt(topk_mass(cov_x, k)) * np.sqrt(topk_mass(cov_y, k))
    if den <= 0.0:
        raise ValueError("zero top-k spectrum")
    value = topk_mass(cov_xy, k) / den
    if value > 1.0:
        if value > 1.0 + _RHO_SLACK:
            raise ValueError(f"rho {value!r} exceeds 1; the block covariance is not PSD")
        value = 1.0
    return float(value)


def rho(jc: JointCovariance, k: int) -> float:
    """Correlation parameter of the limiting relationship; always in [0, 1].

    Computed from the model's true covariance blocks.  Overshoots above 1
    within 1e-10 (float drift at the Cauchy-Schwarz equality case) are
    clamped; anything larger indicates an invalid (non-PSD) input and
    raises.
    """
    return _rho(jc.cov_x, jc.cov_y, jc.cov_xy, k)


def predicted_fit_error_sq(rho_value: float, k: int, eth_sq: float) -> float:
    """The limiting square fitting-error ``(1 - rho) * 2k + rho * eth_sq``.

    Lies in [eth_sq, 2k].  Inputs may drift past their ranges by at most
    1e-9 (they are typically computed quantities); worse violations raise.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not -_RANGE_SLACK <= rho_value <= 1.0 + _RANGE_SLACK:
        raise ValueError(f"rho must lie in [0, 1], got {rho_value}")
    if not -_RANGE_SLACK <= eth_sq <= 2.0 * k + _RANGE_SLACK:
        raise ValueError(f"eth_sq must lie in [0, 2k] = [0, {2 * k}], got {eth_sq}")
    rho_value = min(max(rho_value, 0.0), 1.0)
    eth_sq = min(max(eth_sq, 0.0), 2.0 * k)
    return (1.0 - rho_value) * 2.0 * k + rho_value * eth_sq


def plugin_rho(gram: np.ndarray, k: int) -> float:
    """Plug-in estimate of rho from the 2m x 2m Gram matrix of the stacked centered data.

    The sample covariance blocks are the Gram blocks over n - 1; rho is
    scale-free, so the factor cancels and any positive multiple of the Gram
    matrix gives the same estimate.  Diagnostic only: the limit theory is
    stated for the true covariance blocks, not their estimates.  The sample
    block covariance is PSD by construction, so the estimate also lies in
    [0, 1].
    """
    sxx, syy, sxy = gram_blocks(gram)
    return _rho(sxx, syy, sxy, k)
