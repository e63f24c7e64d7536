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
:func:`weighted_sq`), which :mod:`subalign.kernel` shares on stacks of them
(any leading axes); no m x m projector is formed.  The weight is the raw
m x m matrix C, checked by :func:`check_weight`; :func:`weighted_sq` tests it
for zero, removes its scale and takes its top-k mass on each call, with k
read from the bases.
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
    "check_weight",
    "weighted_sq",
    "check_isometry",
    "unit_scale_inplace",
]

# Columnwise orthonormality tolerance for bases and isometries.
ORTHONORMAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Subspace:
    """A k-dimensional linear subspace of R^m.

    Parameters
    ----------
    basis : (m, k) ndarray
        Columns form an orthonormal basis of the subspace.  Validated to
        within ``ORTHONORMAL_TOL`` at construction; the stored array is a
        read-only copy, so instances are immutable and safe to share.

    This check is the one judgement of orthonormality: the distances clamp
    the round-off it lets through (a cosine of 1 + 8e-10 between a 10-column
    basis and itself) and do not check again.
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
        if not err <= ORTHONORMAL_TOL:  # NaN fails
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


def _cosines(inner: np.ndarray) -> np.ndarray:
    """Nonincreasing principal-angle cosines from the k x k inner-product matrix.

    Singular values are never negative; those above 1, round-off of bases that
    :class:`Subspace` or :func:`check_isometry` accepted, are clamped to 1.
    """
    return np.minimum(np.linalg.svd(inner, compute_uv=False), 1.0)


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


def chordal_sq(inner: np.ndarray) -> float | np.ndarray:
    """``sum_i 2 (1 - cos theta_i)`` from the k x k matrix ``A^T B`` of basis inner products.

    ``inner`` may be a stack ``(..., k, k)``; the result then has shape ``(...)``.
    """
    return 2.0 * np.sum(1.0 - _cosines(inner), axis=-1)


def unit_scale_inplace(a: np.ndarray) -> np.ndarray:
    """Divide each matrix of ``a`` in place by the power of two just above its largest |entry|.

    ``a`` is one matrix or a stack ``(..., r, c)`` of them, each with its own
    power of two.  Returns ``a``, the largest |entry| of each matrix now in
    [1/2, 1) (zeros stay zero).  A power of two is exact short of subnormal
    results, so only the scale changes.
    """
    top = np.maximum(a.max(axis=(-2, -1)), -a.min(axis=(-2, -1)))
    np.ldexp(a, -np.frexp(top)[1][..., None, None], out=a)
    return a


def check_weight(cross_cov: np.ndarray, m: int) -> np.ndarray:
    """``cross_cov`` as float64, after checking that it is a finite m x m matrix.

    :func:`weighted_sq` calls it, and so does ``kernel.evaluate_grams`` before its
    first LAPACK call.
    """
    c = np.asarray(cross_cov, dtype=float)
    if c.shape != (m, m):
        raise ValueError(f"cross_cov must be {m} x {m}, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("cross_cov has non-finite entries (nan or inf)")
    return c


def weighted_sq(a: np.ndarray, b: np.ndarray, cross_cov: np.ndarray) -> float | np.ndarray:
    """``sum_i 2 (1 - sigma_i(A^T C B) / mu)`` for m x k orthonormal bases, clamped to [0, 2k].

    ``mu`` is the mean of the k largest singular values of the m x m weight
    C, ``cross_cov``.  The nonzero singular values of ``P_a C P_b = A (A^T C B) B^T``
    are those of the k x k core, so no projector is needed.  The value does
    not change when C is multiplied by a nonzero number:
    :func:`unit_scale_inplace` on a copy of C keeps both SVDs in range at any
    scale.  The exactly zero weight (``not np.any(C)``) gives the chordal
    distance.  ``a`` and ``b`` may be stacks ``(..., m, k)``; the result then
    has their broadcast leading shape.
    """
    m, k = a.shape[-2:]
    c = check_weight(cross_cov, m)
    a_t = np.swapaxes(a, -1, -2)
    if not np.any(c):
        return chordal_sq(a_t @ b)
    c = unit_scale_inplace(c.copy())
    sigma = np.linalg.svd(a_t @ c @ b, compute_uv=False)
    return np.clip(2.0 * np.sum(1.0 - sigma / (topk_mass(c, k) / k), axis=-1), 0.0, 2.0 * k)


def hausdorff_sq(a: Subspace, b: Subspace) -> float:
    """Square chordal distance ``sum_i 2 (1 - cos theta_i)``; lies in [0, 2k]."""
    _check_compatible(a, b)
    return float(chordal_sq(a.basis.T @ b.basis))


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
    return float(weighted_sq(a.basis, b.basis, cross_cov))


def check_isometry(w: np.ndarray, m: int) -> np.ndarray:
    """A read-only float64 copy of ``w``, after checking it is an orthogonal m x m matrix.

    The orthogonality check is :class:`Subspace`'s, whose basis is the copy, so
    later changes to ``w`` do not reach it.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (m, m):
        raise ValueError(f"isometry must be {m} x {m}, got {w.shape}")
    return Subspace(w).basis
