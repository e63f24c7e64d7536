"""Replicate quantities from the Gram matrix of the stacked, centered data.

Everything a replicate (or ``subalign compute``) reports is a function of

    S = Zc Zc^T = [[Sxx, Sxy], [Syx, Syy]],

the 2m x 2m Gram matrix of the stacked centered data ``Zc = [Xc; Yc]``.
Centering and the Gram product are written once, in
:func:`center_gram_inplace`, which centers an array its caller owns (such
as the fresh draw of ``mvn_gram`` or ``scientists_sample``) without a
copy.  From S:

* the PCA bases A and B are the top-k eigenvectors of Sxx and Syy (the
  trivial method uses e_1, ..., e_k);
* ``||P_a Xc||_F^2 = tr(A^T Sxx A)``, and ``P_b Yc Xc^T P_a`` has the nuclear
  norm of its k x k core ``B^T Syx A``, so the square Procrustes error is

      eps^2 = 2k - 2k ||A^T Sxy B||_* / sqrt(tr(A^T Sxx A) tr(B^T Syy B));

* d^2, eth^2 and the isometry-corrected distance come from the singular
  values of the k x k matrices A^T B, A^T C B and A^T W B.

No m x m projector and no projected or rescaled m x n copy of the data is
formed.  The distances use the same k x k formulas as
:mod:`subalign.grassmann`: ``chordal_sq``, and ``weighted_sq``, which reads
a weight prepared once by ``grassmann.weight``, the one place that checks
the weight's shape, tests it for zero and removes its scale.  The paper's
definition on the data matrix (:mod:`subalign.datamatrix`) computes the
subspaces and eps^2 independently; the tests use it, with the projector
forms of the distances, as this module's oracle.  Only subspace-level
quantities leave this module, so the sign and order of the eigenvectors
inside a basis do not matter.

Scale.  The outputs are invariant to the scale of S, but products of its
entries overflow near max |S| = 1e160 and underflow near 1e-160, so
:func:`evaluate_gram` first removes that scale exactly (``grassmann.unit_scale_inplace``).

Rank.  Centered data with n observations has rank at most n - 1, so
``n <= k`` is deficient outright.  Otherwise an eigenvalue of Sxx (Syy)
counts toward the rank when it exceeds ``lambda_1 * max(m, n) * eps``.  The
eigenvalues of a computed Gram matrix carry an absolute error of order
``eps * lambda_1`` (from its n-term sums and from the eigensolver), not the
``(eps * sigma_1)^2`` that squaring the SVD rule would suggest; in
singular-value terms the threshold is ``sigma_k / sigma_1 <= sqrt(max(m, n)
* eps)``, about 1.5e-6 at n = 1e4, where the SVD of the data resolves
``max(m, n) * eps``.

Ties.  ``eigh`` and the SVD may break an exact tie at the k-th eigenvalue
differently, so the two routes can pick different (equally valid) top-k
subspaces there.  Near ties are the paper's phenomenon and are resolved by
the sampling noise alike in both routes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .grassmann import Weight, chordal_sq, unit_scale_inplace, weighted_sq

__all__ = ["GramResult", "center_gram_inplace", "gram_blocks", "evaluate_gram"]

# ||P_a Xc||_F^2 below this times max |S| makes the sqrt(k) rescaling undefined.
_DEGENERATE_SQ = 1e-300


class GramResult(NamedTuple):
    """The kernel's output for one Gram matrix.

    ``status`` is "ok", "deficient_rank" or "degenerate_projection"; the
    numeric fields are None unless ok.  ``eth_sq`` is None without a weight,
    ``d_sq_corrected`` without an isometry.  The field names are those of
    :class:`subalign.sim.ReplicateRecord`, which takes them by name.
    """

    status: str
    d_sq: Optional[float] = None
    eth_sq: Optional[float] = None
    eps_sq: Optional[float] = None
    d_sq_corrected: Optional[float] = None


def center_gram_inplace(z: np.ndarray) -> np.ndarray:
    """``Zc Zc^T`` for a float array ``z`` the caller owns, rows as variables.

    Each row's mean is subtracted in place, so ``z`` is left centered; the
    returned Gram matrix is a fresh array.
    """
    if z.ndim != 2:
        raise ValueError(f"data must be 2-d, got shape {z.shape}")
    if z.shape[1] < 2:
        raise ValueError("need at least 2 observations to center")
    z -= z.mean(axis=1, keepdims=True)
    return z @ z.T


def gram_blocks(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The blocks ``(Sxx, Syy, Sxy)`` of a 2m x 2m Gram matrix."""
    s = np.asarray(s, dtype=float)
    m = s.shape[0] // 2
    if s.shape != (2 * m, 2 * m) or m == 0:
        raise ValueError(f"gram shape mismatch: need 2m x 2m, got {s.shape}")
    return s[:m, :m], s[m:, m:], s[:m, m:]


def _top_eigvecs(block: np.ndarray, k: int, n: int):
    """(basis, sum of the top-k eigenvalues), or None when the rank is below k."""
    if n - 1 < k:
        return None
    w, v = np.linalg.eigh(block)
    tol = w[-1] * max(block.shape[0], n) * np.finfo(float).eps
    if not w[-k] > tol:
        return None
    return v[:, -k:], float(w[-k:].sum())


def evaluate_gram(
    s: np.ndarray,
    k: int,
    method: str,
    n: int,
    weight: Optional[Weight] = None,
    *,
    isometry: Optional[np.ndarray] = None,
) -> GramResult:
    """d^2, eth^2, eps^2 (and the corrected distance) from the 2m x 2m Gram matrix ``s``.

    Parameters
    ----------
    s : (2m, 2m) ndarray
        Gram matrix of the stacked centered data (see :func:`center_gram_inplace`);
        any positive multiple, such as the sample covariance, gives the same result.
    k, method, n
        Projection dimension, "pca" or "trivial", and the observation count.
    weight : Weight, optional
        Weight of eth^2, typically Cov(X, Y) of the model at any scale, as
        prepared once by :func:`subalign.grassmann.weight` (which checks it
        and tests it for zero).  The exactly zero weight gives eth^2 = d^2.
    isometry : (m, m) orthogonal ndarray, optional
        W of the corrected distance ``d^2(A, W B)``.  Not checked here: it
        must already have passed :func:`subalign.grassmann.check_isometry`,
        as :func:`subalign.sim.make_cell` does once per cell.
    """
    s = np.array(s, dtype=float)
    sxx, syy, sxy = gram_blocks(s)
    unit_scale_inplace(s)  # the blocks are views of s
    m = sxx.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    if method == "pca":
        top_x, top_y = _top_eigvecs(sxx, k, n), _top_eigvecs(syy, k, n)
        if top_x is None or top_y is None:
            return GramResult("deficient_rank")
        (a, var_x), (b, var_y) = top_x, top_y
    elif method == "trivial":
        a = b = np.eye(m)[:, :k]
        var_x, var_y = float(np.trace(sxx[:k, :k])), float(np.trace(syy[:k, :k]))
    else:
        raise ValueError(f"unknown method {method!r}")
    if var_x < _DEGENERATE_SQ or var_y < _DEGENERATE_SQ:
        return GramResult("degenerate_projection")

    nuclear = np.linalg.svd(a.T @ sxy @ b, compute_uv=False).sum()
    # Two roots: for the trivial method, var_x * var_y underflows once the first k
    # coordinates carry less than about 1e-154 of max |S|.
    eps_sq = 2.0 * k - 2.0 * k * nuclear / (np.sqrt(var_x) * np.sqrt(var_y))
    eps_sq = min(max(float(eps_sq), 0.0), 2.0 * k)
    d_sq = chordal_sq(a.T @ b)

    eth_sq = None if weight is None else weighted_sq(a, b, weight)
    d_sq_corrected = None
    if isometry is not None:
        d_sq_corrected = chordal_sq(a.T @ isometry @ b)
    return GramResult("ok", d_sq, eth_sq, eps_sq, d_sq_corrected)
