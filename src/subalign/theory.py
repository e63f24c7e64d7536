"""Closed-form limit quantities for the fitting-error vs. distance relationship.

For a joint covariance with blocks Cov(X), Cov(Y), Cov(X, Y) and projection
dimension k, the correlation parameter

    rho = sum_{j<=k} sigma_j(Cov(X,Y))
          / sqrt(sum_{j<=k} sigma_j(Cov(X))) / sqrt(sum_{j<=k} sigma_j(Cov(Y)))

lies in [0, 1], and the square fitting-error of the two normalized
projections converges almost surely to the convex combination

    (1 - rho) * 2k + rho * weighted_hausdorff_sq(A, B, Cov(X, Y)).

:func:`delta` is the companion normalization constant
1 / (mean top-k spectral mass of Cov(X) * mean top-k spectral mass of Cov(Y)),
and :func:`gamma_to_rho` is the reduction for the two-device generators,
where rho = gamma^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import gram_blocks
from .model import JointCovariance

__all__ = [
    "TheoryParams",
    "rho",
    "delta",
    "alpha_prime",
    "theory_params",
    "predicted_fit_error_sq",
    "residual",
    "gamma_to_rho",
    "plugin_rho",
]

_RHO_SLACK = 1e-10
_RANGE_SLACK = 1e-9


@dataclass(frozen=True)
class TheoryParams:
    """Bundle of the limit constants for one (model, k) pair.

    ``alpha_prime`` is the mean of the k largest singular values of Cov(X),
    the normalization under which rho reduces to |beta| / alpha_prime when
    Cov(X, Y) = beta I.
    """

    rho: float
    delta: float
    k: int
    alpha_prime: float

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")


def _topk_mass(mat: np.ndarray, k: int) -> float:
    return float(np.linalg.svd(mat, compute_uv=False)[:k].sum())


def _check_k(jc: JointCovariance, k: int) -> None:
    if not 1 <= k <= jc.m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={jc.m}")


def rho(jc: JointCovariance, k: int) -> float:
    """Correlation parameter of the limiting relationship; always in [0, 1].

    Computed from the model's true covariance blocks.  Overshoots above 1
    within 1e-10 (float drift at the Cauchy-Schwarz equality case) are
    clamped; anything larger indicates an invalid (non-PSD) input and
    raises.
    """
    _check_k(jc, k)
    num = _topk_mass(jc.cov_xy, k)
    den = np.sqrt(_topk_mass(jc.cov_x, k)) * np.sqrt(_topk_mass(jc.cov_y, k))
    value = num / den
    if value > 1.0:
        if value > 1.0 + _RHO_SLACK:
            raise ValueError(
                f"correlation parameter {value!r} exceeds 1; input covariance is not PSD"
            )
        value = 1.0
    return float(value)


def delta(jc: JointCovariance, k: int) -> float:
    """1 / (mean top-k singular value of Cov(X) * same for Cov(Y))."""
    _check_k(jc, k)
    mean_x = _topk_mass(jc.cov_x, k) / k
    mean_y = _topk_mass(jc.cov_y, k) / k
    if mean_x <= 0.0 or mean_y <= 0.0:
        raise ValueError("zero top-k spectrum")
    return 1.0 / (mean_x * mean_y)


def alpha_prime(jc: JointCovariance, k: int) -> float:
    """Mean of the k largest singular values of Cov(X)."""
    _check_k(jc, k)
    return _topk_mass(jc.cov_x, k) / k


def theory_params(jc: JointCovariance, k: int) -> TheoryParams:
    return TheoryParams(rho(jc, k), delta(jc, k), k, alpha_prime(jc, k))


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


def residual(eps_sq: float, predicted: float) -> float:
    """Observed square fitting-error minus its predicted limiting value."""
    return eps_sq - predicted


def gamma_to_rho(gamma: float) -> float:
    """rho induced by the two-device generators with accuracy gamma: gamma^2."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return gamma**2


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
    if not 1 <= k <= sxx.shape[0]:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={sxx.shape[0]}")
    num = _topk_mass(sxy, k)
    den = np.sqrt(_topk_mass(sxx, k) * _topk_mass(syy, k))
    if den <= 0.0:
        raise ValueError("zero top-k spectrum in sample covariance")
    value = num / den
    if value > 1.0:
        if value > 1.0 + _RHO_SLACK:
            raise ValueError(f"plug-in estimate {value!r} exceeds 1 beyond tolerance")
        value = 1.0
    return float(value)
