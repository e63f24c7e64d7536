"""Data generator: paired noisy measurements of a common random process.

:func:`mvn_grams` turns each seed of a chunk into the centered 2m x 2m
Gram matrix of n zero-mean jointly Gaussian pairs with an arbitrary
:class:`JointCovariance`, without forming the pairs: this module owns the
whole step from a replicate's seed to its Gram matrix.  Preset
constructors cover the identity, spiked-diagonal, and coordinate-reversed
covariance structures used by the simulation experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import center_gram_inplace

__all__ = [
    "JointCovariance",
    "mvn_grams",
    "identity_pair",
    "spiked_diag_pair",
    "reversed_pair",
]

_SYM_TOL = 1e-12
_PSD_TOL = -1e-10


@dataclass(frozen=True, eq=False)
class JointCovariance:
    """Block covariance of a stacked pair (X, Y) of m-dimensional vectors.

    ``cov_xy`` is Cov(X, Y): rows index X components, columns index Y.
    Validated at construction: all entries finite, ``cov_x`` and ``cov_y``
    nonzero and symmetric (to 1e-12 times their max |entry|), and the
    assembled 2m x 2m block matrix positive semidefinite (min eigenvalue >=
    -1e-10 times the largest), which by interlacing covers ``cov_x`` and
    ``cov_y``.

    ``root`` is the symmetric PSD square root of the block matrix, from the
    eigendecomposition that validates it, with negative eigenvalues clamped
    to zero; singular blocks (e.g. perfectly correlated pairs) have one
    where a Cholesky factor would fail.  All four arrays are read-only float64
    copies that the instance owns; the arrays passed in are left as they were.
    """

    cov_x: np.ndarray
    cov_y: np.ndarray
    cov_xy: np.ndarray
    root: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cov_x = np.array(self.cov_x, dtype=float)
        cov_y = np.array(self.cov_y, dtype=float)
        cov_xy = np.array(self.cov_xy, dtype=float)
        m = cov_x.shape[0] if cov_x.ndim == 2 else 0
        for name, mat in (("cov_x", cov_x), ("cov_y", cov_y), ("cov_xy", cov_xy)):
            if mat.shape != (m, m) or m == 0:
                raise ValueError(f"{name} must be m x m, got shape {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} has non-finite entries")
        for name, mat in (("cov_x", cov_x), ("cov_y", cov_y)):
            size = np.max(np.abs(mat))
            if size == 0.0:
                raise ValueError(f"{name} must be a nonzero matrix")
            skew = np.max(np.abs(mat - mat.T))
            if skew > _SYM_TOL * size:
                raise ValueError(f"{name} not symmetric (max asymmetry {skew:.3e})")
        eigvals, eigvecs = np.linalg.eigh(np.block([[cov_x, cov_xy], [cov_xy.T, cov_y]]))
        if eigvals[0] < _PSD_TOL * eigvals[-1]:
            raise ValueError(
                f"block covariance not positive semidefinite (min eig {eigvals[0]:.3e})"
            )
        root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
        for name, mat in (("cov_x", cov_x), ("cov_y", cov_y), ("cov_xy", cov_xy), ("root", root)):
            mat.setflags(write=False)  # each is this instance's own float64 copy
            object.__setattr__(self, name, mat)

    @property
    def m(self) -> int:
        return self.cov_x.shape[0]


def mvn_grams(jc: JointCovariance, n: int, seeds: list[int]) -> np.ndarray:
    """The (R, 2m, 2m) stack of centered Gram matrices of n Gaussian pairs, one per seed.

    Matrix r is drawn from ``numpy.random.default_rng(seeds[r])`` (PCG64).
    The pairs are ``L G`` with ``L = jc.root`` and ``G`` one ``(2m, n)``
    standard-normal block, but the data is never formed: centering commutes
    with ``L``, so the Gram matrix of the centered pairs is ``L (Gc Gc^T) L^T``
    with ``Gc`` the centered normal block.  An overflow is not reported here:
    it leaves a non-finite entry, which
    :func:`subalign.kernel.evaluate_grams` rejects.
    """
    root = jc.root
    grams = np.empty((len(seeds), 2 * jc.m, 2 * jc.m))
    with np.errstate(over="ignore", invalid="ignore"):
        for gram, rng in zip(grams, map(np.random.default_rng, seeds)):
            gram[...] = root @ center_gram_inplace(rng.standard_normal((2 * jc.m, n))) @ root.T
    return grams


def identity_pair(m: int, beta: float) -> JointCovariance:
    """Cov(X) = Cov(Y) = I_m with Cov(X, Y) = beta I_m; needs |beta| <= 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not abs(beta) <= 1.0:  # NaN fails
        raise ValueError(f"|beta| <= 1 required for positive semidefiniteness, got {beta}")
    eye = np.eye(m)
    return JointCovariance(eye, eye, beta * eye)


def _spiked_diagonal(m: int, lambda2: float, beta: float) -> np.ndarray:
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if not (np.isfinite(lambda2) and np.isfinite(beta)):  # inf * 0 would warn first
        raise ValueError(f"lambda2 and beta must be finite, got {lambda2} and {beta}")
    diag = np.full(m, 0.7)
    diag[0] = 1.0
    diag[1] = lambda2
    return diag


def spiked_diag_pair(m: int, lambda2: float, beta: float) -> JointCovariance:
    """Cov(X) = Cov(Y) = diag(1, lambda2, .7, ..., .7) with Cov(X, Y) = beta I_m.

    With lambda2 = .7 the covariance spectrum has no gap below the leading
    eigenvalue, the setting where separately estimated PCA subspaces become
    unstable.  Feasibility (|beta| <= smallest diagonal) is enforced through
    the block-PSD check at construction.
    """
    cov = np.diag(_spiked_diagonal(m, lambda2, beta))
    return JointCovariance(cov, cov, beta * np.eye(m))


def reversed_pair(m: int, lambda2: float, beta: float) -> tuple[JointCovariance, np.ndarray]:
    """The spiked-diagonal pair with Y's coordinates permuted into reverse order.

    Returns ``(jc, w)`` where ``w`` is the reversal permutation (ones on the
    antidiagonal), so ``cov_y = w @ cov_x @ w.T`` and ``cov_xy = beta * w``.
    ``w`` is returned so callers can compare subspaces after undoing the
    permutation.
    """
    cov_x = np.diag(_spiked_diagonal(m, lambda2, beta))
    w = np.fliplr(np.eye(m))
    cov_y = w @ cov_x @ w.T
    return JointCovariance(cov_x, cov_y, beta * w), w
