"""Replicate quantities from the Gram matrix of the stacked, centered data.

Everything a replicate (or ``subalign compute``) reports is a function of

    S = Zc Zc^T = [[Sxx, Sxy], [Syx, Syy]],

the 2m x 2m Gram matrix of the stacked centered data ``Zc = [Xc; Yc]``.
Centering and the Gram product are written once, in
:func:`center_gram_inplace`, which centers an array its caller owns (such
as the normal block that ``model.mvn_grams`` refills for each seed of a
chunk, or the data ``compute`` reads) without a copy.  From S:

* the PCA bases A and B are the top-k eigenvectors of Sxx and Syy (the
  trivial method uses e_1, ..., e_k);
* ``||P_a Xc||_F^2 = tr(A^T Sxx A)``, and ``P_b Yc Xc^T P_a`` has the nuclear
  norm of its k x k core ``B^T Syx A``, so the square Procrustes error is

      eps^2 = 2k - 2k ||A^T Sxy B||_* / sqrt(tr(A^T Sxx A) tr(B^T Syy B));

* d^2, eth^2 and the isometry-corrected distance come from the singular
  values of the k x k matrices A^T B, A^T C B and A^T W B.

No m x m projector and no projected or rescaled m x n copy of the data is
formed.  The distances use the same k x k formulas as
:mod:`subalign.grassmann`: ``chordal_sq``, and ``weighted_sq``, which takes
the raw m x m weight C, tests it for zero and removes its scale;
``grassmann.check_weight`` is the one place that checks C's shape and entries.
The paper's definition on the data matrix (:mod:`subalign.datamatrix`)
computes the subspaces and eps^2 independently; the tests use it, with the
projector forms of the distances, as this module's oracle.  Only
subspace-level quantities leave this module, so the sign and order of the
eigenvectors inside a basis do not matter.

Stacks.  :func:`evaluate_grams`, the one evaluating function, takes a
stack of R Gram matrices of one (k, method, n, weight, isometry) at once:
one stacked ``eigh`` per diagonal block, stacked k x k products and SVDs,
and elementwise arithmetic on the columns.  It has one path: every matrix,
failed or not, goes through every step in its own place in the stack (its
own scale, rank test, degenerate test and clamps), and the rows of failed
matrices are set to NaN once, at the end.  So a matrix gets the same row
bit for bit in a stack of any length and any mix of failures; ``compute``
evaluates a stack of one.

Scale.  The outputs are invariant to the scale of S, but products of its
entries overflow near max |S| = 1e160 and underflow near 1e-160, so each
matrix's scale is first removed exactly (``grassmann.unit_scale_inplace``).
A stack with a non-finite entry (a draw that overflowed) raises ValueError.

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

from .grassmann import check_weight, chordal_sq, unit_scale_inplace, weighted_sq

__all__ = ["STATUSES", "GramColumns", "center_gram_inplace", "gram_blocks", "evaluate_grams"]

# Status codes of GramColumns.status: an index into this tuple.
STATUSES = ("ok", "deficient_rank", "degenerate_projection")
_DEFICIENT_RANK, _DEGENERATE_PROJECTION = 1, 2

# ||P_a Xc||_F^2 below this times max |S| makes the sqrt(k) rescaling undefined.
_DEGENERATE_SQ = 1e-300


class GramColumns(NamedTuple):
    """The kernel's output for a stack of R Gram matrices, one column per field.

    ``status`` holds R int8 codes, indices into :data:`STATUSES` (0 is ok).
    The float columns hold R values each, NaN where the status is not ok;
    ``eth_sq`` is all NaN without a weight, ``d_sq_corrected`` without an
    isometry.  Row r belongs to matrix r; the simulator keeps these columns,
    under the same names, in its :class:`subalign.sim.Records` table.
    """

    status: np.ndarray
    d_sq: np.ndarray
    eth_sq: np.ndarray
    eps_sq: np.ndarray
    d_sq_corrected: np.ndarray


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
    return np.dot(z, z.T)  # releases the interpreter lock, where z @ z.T holds it


def gram_blocks(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The blocks ``(Sxx, Syy, Sxy)`` of a 2m x 2m Gram matrix, or views of a stack of them."""
    s = np.asarray(s, dtype=float)
    m = s.shape[-1] // 2 if s.ndim >= 2 else 0
    if s.shape[-2:] != (2 * m, 2 * m) or m == 0:
        raise ValueError(f"gram shape mismatch: need 2m x 2m, got {s.shape}")
    return s[..., :m, :m], s[..., m:, m:], s[..., :m, m:]


def evaluate_grams(
    stack: np.ndarray,
    k: int,
    method: str,
    n: int,
    weight: Optional[np.ndarray] = None,
    isometry: Optional[np.ndarray] = None,
) -> GramColumns:
    """d^2, eth^2, eps^2 (and the corrected distance) for each matrix of a Gram stack.

    Parameters
    ----------
    stack : (R, 2m, 2m) float64 ndarray
        Gram matrices of the stacked centered data (see
        :func:`center_gram_inplace`), each of n observations; any positive
        multiple of a matrix gives the same result.  The stack is the
        caller's scratch: each matrix is divided in place by its own power
        of two.
    k, method, n
        Projection dimension, "pca" or "trivial", and the observation count.
    weight : (m, m) ndarray, optional
        The weight C of eth^2, typically Cov(X, Y) of the model at any scale,
        which :func:`subalign.grassmann.check_weight` checks before any LAPACK
        call.  The exactly zero weight gives eth^2 = d^2.
    isometry : (m, m) orthogonal ndarray, optional
        W of the corrected distance ``d^2(A, W B)``.  Not checked here: it
        must already have passed :func:`subalign.grassmann.check_isometry`,
        as :class:`subalign.sim.ExperimentConfig` does once per model.

    Each matrix is evaluated as it would be alone: the stacked LAPACK and
    matmul calls run matrix by matrix, and the rest is elementwise.  Failed
    matrices are not taken out of the stack: they go through every step,
    and their float columns are set to NaN at the end.
    """
    if not isinstance(stack, np.ndarray) or stack.ndim != 3 or stack.dtype != np.float64:
        raise ValueError("need an (R, 2m, 2m) float64 stack of Gram matrices")
    sxx, syy, sxy = gram_blocks(stack)
    if not np.isfinite(stack).all():
        raise ValueError("Gram stack has non-finite entries (nan or inf)")
    unit_scale_inplace(stack)  # the blocks are views of the stack
    r, m = len(stack), sxx.shape[-1]
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    if weight is not None:
        check_weight(weight, m)
    status = np.zeros(r, dtype=np.int8)
    if method == "pca":
        bases, variances = [], []
        for block in (sxx, syy):
            w, v = np.linalg.eigh(block)
            tol = w[:, -1] * max(m, n) * np.finfo(float).eps
            # Centered data of n observations has rank at most n - 1.
            status[(n - 1 < k) | ~(w[:, -k] > tol)] = _DEFICIENT_RANK
            bases.append(v)
            variances.append(w[:, -k:].sum(axis=1))
        (var_x, var_y), top = variances, slice(-k, None)
    elif method == "trivial":
        bases = [np.broadcast_to(np.eye(m), (r, m, m))] * 2
        var_x, var_y = (np.trace(block[:, :k, :k], axis1=1, axis2=2) for block in (sxx, syy))
        top = slice(None, k)
    else:
        raise ValueError(f"unknown method {method!r}")
    status[(status == 0) & ((var_x < _DEGENERATE_SQ) | (var_y < _DEGENERATE_SQ))] = (
        _DEGENERATE_PROJECTION)
    a, b = (basis[:, :, top] for basis in bases)
    a_t = np.swapaxes(a, -1, -2)
    nuclear = np.linalg.svd(a_t @ sxy @ b, compute_uv=False).sum(axis=-1)
    # Two roots: for the trivial method, var_x * var_y underflows once the first k
    # coordinates carry less than about 1e-154 of max |S|.  A degenerate projection
    # divides by zero here; its row is failed and set to NaN below.
    with np.errstate(divide="ignore", invalid="ignore"):
        eps_sq = 2.0 * k - 2.0 * k * nuclear / (np.sqrt(var_x) * np.sqrt(var_y))
    out = GramColumns(status, chordal_sq(a_t @ b),
                      np.full(r, np.nan) if weight is None else weighted_sq(a, b, weight),
                      np.clip(eps_sq, 0.0, 2.0 * k),
                      np.full(r, np.nan) if isometry is None else chordal_sq(a_t @ isometry @ b))
    for column in out[1:]:
        column[status != 0] = np.nan
    return out
