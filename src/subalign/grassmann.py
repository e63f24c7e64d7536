"""Grassmannian geometry of linear subspaces.

A k-dimensional subspace of R^m is represented by an orthonormal basis
(:class:`Subspace`).  Projectors are m x m symmetric idempotent matrices,
and principal angles are reported as a nondecreasing vector in [0, pi/2]
whose cosines are the singular values of ``a.basis.T @ b.basis``.

Two square distances are provided: the chordal ("Hausdorff") distance

    hausdorff_sq(a, b) = sum_i 2 * (1 - cos(theta_i))          in [0, 2k]

and its cross-covariance-weighted generalization, which replaces the
cosines by singular values of the projected weight matrix, normalized by
the mean of the weight's k largest singular values, so that the weight's
scale cancels.  When the weight is a nonzero multiple of the identity the
two coincide; for the zero weight the weighted distance is defined to be
the unweighted one.  Both are computed from k x k matrices (:func:`chordal_sq`,
:func:`weighted_sq`), which :mod:`subalign.kernel` shares; no m x m
projector is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Subspace",
    "projector",
    "principal_angles",
    "hausdorff_sq",
    "weighted_hausdorff_sq",
    "topk_mass",
    "chordal_sq",
    "weighted_sq",
    "apply_isometry",
    "check_isometry",
]

# Columnwise orthonormality tolerance for bases and isometries.
ORTHONORMAL_TOL = 1e-10

# Cosines may drift slightly past [0, 1]; anything worse is a real error.
_COSINE_SLACK = 1e-10


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional linear subspace of R^m.

    Parameters
    ----------
    basis : (m, k) ndarray
        Columns form an orthonormal basis of the subspace.  Validated to
        within ``ORTHONORMAL_TOL`` at construction; the stored array is a
        read-only copy, so instances are immutable and safe to share.
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = np.array(self.basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError(f"basis must be 2-d, got shape {basis.shape}")
        m, k = basis.shape
        if not 1 <= k <= m:
            raise ValueError(f"subspace dimension must satisfy 1 <= k <= m, got k={k}, m={m}")
        gram = basis.T @ basis
        err = np.max(np.abs(gram - np.eye(k)))
        if err > ORTHONORMAL_TOL:
            raise ValueError(f"basis columns not orthonormal (max deviation {err:.3e})")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _check_compatible(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        raise ValueError(
            "incompatible subspaces: "
            f"({a.dim} of R^{a.ambient_dim}) vs ({b.dim} of R^{b.ambient_dim})"
        )


def _clamp_cosines(sigma: np.ndarray) -> np.ndarray:
    if sigma.size and (sigma.min() < -_COSINE_SLACK or sigma.max() > 1.0 + _COSINE_SLACK):
        raise ValueError(f"cosines escape [0, 1] beyond tolerance: {sigma}")
    return np.clip(sigma, 0.0, 1.0)


def _cosines(inner: np.ndarray) -> np.ndarray:
    """Nonincreasing principal-angle cosines from the k x k inner-product matrix."""
    return _clamp_cosines(np.linalg.svd(inner, compute_uv=False))


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projector onto ``s`` as an m x m symmetric idempotent matrix."""
    return s.basis @ s.basis.T


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Principal angles between two k-dimensional subspaces of R^m.

    Returns the k angles in radians, nondecreasing in [0, pi/2].  Computed
    from the SVD of the k x k matrix ``a.basis.T @ b.basis`` (O(k^3)).
    """
    _check_compatible(a, b)
    return np.arccos(_cosines(a.basis.T @ b.basis))


def topk_mass(mat: np.ndarray, k: int) -> float:
    """Sum of the k largest singular values of ``mat``."""
    return float(np.linalg.svd(mat, compute_uv=False)[:k].sum())


def chordal_sq(inner: np.ndarray) -> float:
    """``sum_i 2 (1 - cos theta_i)`` from the k x k matrix ``A^T B`` of basis inner products."""
    return float(2.0 * np.sum(1.0 - _cosines(inner)))


def weighted_sq(a: np.ndarray, b: np.ndarray, cross_cov: np.ndarray) -> float:
    """``sum_i 2 (1 - sigma_i(A^T C B) / w)`` for m x k orthonormal bases, clamped to [0, 2k].

    ``w`` is the mean of the k largest singular values of the m x m weight
    C.  The nonzero singular values of ``P_a C P_b = A (A^T C B) B^T`` are
    those of the k x k core, so no projector is needed.  The value does not
    change when C is multiplied by a nonzero number: C is first divided by
    the power of two just above its largest |entry|, which is exact and
    keeps both SVDs in range at any scale.  The exactly zero weight gives
    the chordal distance.
    """
    m, k = a.shape
    c = np.asarray(cross_cov, dtype=float)
    if c.shape != (m, m):
        raise ValueError(f"cross_cov must be {m} x {m}, got {c.shape}")
    if not np.any(c):
        return chordal_sq(a.T @ b)
    c = np.ldexp(c, -np.frexp(np.max(np.abs(c)))[1])
    sigma = np.linalg.svd(a.T @ c @ b, compute_uv=False)
    value = float(2.0 * np.sum(1.0 - sigma / (topk_mass(c, k) / k)))
    return min(max(value, 0.0), 2.0 * k)


def hausdorff_sq(a: Subspace, b: Subspace) -> float:
    """Square chordal distance ``sum_i 2 (1 - cos theta_i)``; lies in [0, 2k]."""
    _check_compatible(a, b)
    return chordal_sq(a.basis.T @ b.basis)


def weighted_hausdorff_sq(a: Subspace, b: Subspace, cross_cov: np.ndarray) -> float:
    """Square distance between subspaces weighted by a cross-covariance matrix.

    Parameters
    ----------
    a, b : Subspace
        Compatible k-dimensional subspaces of R^m.
    cross_cov : (m, m) ndarray
        Weight matrix, typically Cov(X, Y) of the underlying model.

    Returns
    -------
    float
        ``sum_{i<=k} 2 * (1 - sigma_i(P_a @ cross_cov @ P_b) / w)`` where
        ``w`` is the mean of the k largest singular values of ``cross_cov``,
        computed by :func:`weighted_sq` from the k x k core.  Invariant to
        the weight's scale; the exactly zero weight falls back to
        :func:`hausdorff_sq`.  The value lies in [0, 2k]; it is clamped
        there to absorb float drift at the endpoints.
    """
    _check_compatible(a, b)
    return weighted_sq(a.basis, b.basis, cross_cov)


def check_isometry(w: np.ndarray, m: int) -> np.ndarray:
    """``w`` as a float array, after checking it is an orthogonal m x m matrix."""
    w = np.asarray(w, dtype=float)
    if w.shape != (m, m):
        raise ValueError(f"isometry must be {m} x {m}, got {w.shape}")
    err = np.max(np.abs(w.T @ w - np.eye(m)))
    if err > ORTHONORMAL_TOL:
        raise ValueError(f"matrix is not orthogonal (max deviation {err:.3e})")
    return w


def apply_isometry(w: np.ndarray, b: Subspace) -> Subspace:
    """Image of a subspace under an orthogonal map: span of ``w @ b.basis``.

    The projector of the result is ``w @ projector(b) @ w.T``.
    """
    return Subspace(check_isometry(w, b.ambient_dim) @ b.basis)
