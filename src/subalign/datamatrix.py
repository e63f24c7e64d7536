"""The paper's eps^2 on the data matrix: center, PCA, normalize, Procrustes.

:mod:`subalign.kernel` evaluates the same definition from the 2m x 2m Gram
matrix; the tests check the two against each other.  The PCA subspace is
the span of the k leading left singular vectors of the centered data.
Each projection is rescaled to Frobenius norm sqrt(k)
(:class:`NormalizedProjection`), and the square fitting-error

    min_{Q orthogonal} || Q x - y ||_F^2  =  2k - 2 * nuclear_norm(y @ x.T)

is evaluated in that closed form; :func:`optimal_rotation` gives the minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grassmann import Subspace

__all__ = ["CenteredData", "center", "pca_subspace", "NormalizedProjection", "fit_error_sq",
           "optimal_rotation"]

# A row sum counts as zero below this times n times the largest |entry|.
_CENTER_TOL = 1e-8

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class CenteredData:
    """An m x n data matrix (features x observations) with zero row means."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {matrix.shape}")
        if matrix.size:
            worst = np.max(np.abs(matrix.sum(axis=1)))
            if not worst <= _CENTER_TOL * matrix.shape[1] * np.max(np.abs(matrix)):  # NaN fails
                raise ValueError(f"rows are not centered (max |row sum| = {worst:.3e})")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def center(data: np.ndarray) -> CenteredData:
    """Remove each row's mean (right-multiplication by the centering matrix)."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-d, got shape {data.shape}")
    if data.shape[1] < 2:
        raise ValueError("need at least 2 observations to center")
    return CenteredData(data - data.mean(axis=1, keepdims=True))


def pca_subspace(c: CenteredData, k: int) -> Subspace:
    """Span of the k left singular vectors with the largest singular values.

    Ties at the k-th singular value are broken by the (deterministic) order
    the SVD routine returns, so under near-ties the result is driven by
    sampling noise; that instability is a property of PCA itself, not a
    defect to smooth over.  Raises ValueError ("deficient rank") if the
    numerical rank of ``c`` is below ``k``.
    """
    if not 1 <= k <= c.m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={c.m}")
    u, s, _ = np.linalg.svd(c.matrix, full_matrices=False)
    tol = s[0] * max(c.matrix.shape) * np.finfo(float).eps
    rank = int(np.count_nonzero(s > tol))
    if rank < k:
        raise ValueError(f"deficient rank for requested dimension: rank {rank} < k = {k}")
    return Subspace(u[:, :k])


@dataclass(frozen=True)
class NormalizedProjection:
    """An m x n projected data matrix with Frobenius norm sqrt(scale_dim)."""

    matrix: np.ndarray
    scale_dim: int

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {matrix.shape}")
        if self.scale_dim < 1:
            raise ValueError(f"scale_dim must be >= 1, got {self.scale_dim}")
        fro = np.linalg.norm(matrix)
        target = np.sqrt(self.scale_dim)
        if not abs(fro - target) <= _NORM_TOL:  # NaN fails
            raise ValueError(f"Frobenius norm {fro!r} differs from sqrt(scale_dim) = {target!r}")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def _check_pair(x: NormalizedProjection, y: NormalizedProjection) -> None:
    if x.matrix.shape != y.matrix.shape:
        raise ValueError(f"shape mismatch: {x.matrix.shape} vs {y.matrix.shape}")
    if x.scale_dim != y.scale_dim:
        raise ValueError(f"scale_dim mismatch: {x.scale_dim} vs {y.scale_dim}")


def fit_error_sq(x: NormalizedProjection, y: NormalizedProjection) -> float:
    """Square orthogonal Procrustes fitting-error between two normalized projections.

    Equals ``2k - 2 * sum_i sigma_i(y @ x.T)`` with the sum over all
    singular values; the result is clamped to its exact range [0, 2k]
    (float drift can produce e.g. -1e-12 at a perfect fit).
    """
    _check_pair(x, y)
    k = x.scale_dim
    nuclear = np.linalg.svd(y.matrix @ x.matrix.T, compute_uv=False).sum()
    return min(max(float(2.0 * k - 2.0 * nuclear), 0.0), 2.0 * k)


def optimal_rotation(x: NormalizedProjection, y: NormalizedProjection) -> np.ndarray:
    """The orthogonal matrix minimizing ``|| Q x - y ||_F``.

    Closed form: with ``y @ x.T = U S V^T``, the minimizer is ``Q = U V^T``
    (orthogonal but not restricted to determinant +1).
    """
    _check_pair(x, y)
    u, _, vt = np.linalg.svd(y.matrix @ x.matrix.T)
    return u @ vt
