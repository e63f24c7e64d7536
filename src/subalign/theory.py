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

_RANGE_SLACK = 1e-9


def _rho(cov_x: np.ndarray, cov_y: np.ndarray, cov_xy: np.ndarray, k: int) -> float:
    """rho from the three covariance blocks (or any common positive multiple of them)."""
    m = cov_x.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    den = np.sqrt(topk_mass(cov_x, k)) * np.sqrt(topk_mass(cov_y, k))
    if den <= 0.0:
        raise ValueError("zero top-k spectrum")
    return float(min(topk_mass(cov_xy, k) / den, 1.0))


def rho(jc: JointCovariance, k: int) -> float:
    """Correlation parameter of the limiting relationship; always in [0, 1].

    Computed from the model's true covariance blocks.  :class:`JointCovariance`
    has checked that the block covariance is PSD, which bounds the ratio by 1
    (Cauchy-Schwarz); a value above 1 is the round-off that check lets
    through, and is clamped to 1.
    """
    return _rho(jc.cov_x, jc.cov_y, jc.cov_xy, k)


def predicted_fit_error_sq(rho_value, k, eth_sq):
    """The limiting square fitting-error ``(1 - rho) * 2k + rho * eth_sq``.

    Lies in [eth_sq, 2k].  Inputs may drift past their ranges by at most
    1e-9 (they are typically computed quantities); worse violations raise.
    Arrays are taken elementwise, with numpy broadcasting, and give an
    array; scalars give a float.
    """
    k, rho_value, eth_sq = np.asarray(k), np.asarray(rho_value, float), np.asarray(eth_sq, float)
    two_k = 2.0 * k
    for value, low, high, rule in (
            (k, 1, np.inf, "k must be >= 1"),
            (rho_value, -_RANGE_SLACK, 1.0 + _RANGE_SLACK, "rho must lie in [0, 1]"),
            (eth_sq, -_RANGE_SLACK, two_k + _RANGE_SLACK, "eth_sq must lie in [0, 2k]")):
        outside = ~((low <= value) & (value <= high))  # NaN is outside
        if outside.any():
            raise ValueError(f"{rule}, got {np.broadcast_to(value, outside.shape)[outside][0]}")
    rho_value = np.clip(rho_value, 0.0, 1.0)
    eth_sq = np.clip(eth_sq, 0.0, two_k)
    value = (1.0 - rho_value) * 2.0 * k + rho_value * eth_sq
    return float(value) if value.ndim == 0 else value


def plugin_rho(gram: np.ndarray, k: int) -> float:
    """Plug-in estimate of rho from the 2m x 2m Gram matrix of the stacked centered data.

    The sample covariance blocks are the Gram blocks over n - 1; rho is
    scale-free, so the factor cancels and any positive multiple of the Gram
    matrix gives the same estimate.  Diagnostic only: the limit theory is
    stated for the true covariance blocks, not their estimates.  ``gram``
    must be PSD, as a Gram matrix is by construction; this is not checked.
    The estimate is clamped to 1, so it lies in [0, 1].  A matrix with a
    non-finite entry, or a zero top-k spectrum in Sxx or Syy, raises
    ValueError.
    """
    sxx, syy, sxy = gram_blocks(gram)
    if not np.isfinite(gram).all():
        raise ValueError("Gram matrix has non-finite entries (nan or inf)")
    return _rho(sxx, syy, sxy, k)
