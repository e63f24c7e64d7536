"""Data generators: paired noisy measurements of a common random process.

Two families are provided.

* :func:`scientists_sample` draws the two-measurement-device setup: both
  devices see the same signal Z with accuracy ``gamma``, contaminated by
  independent noise Z' and Z''.  Either the mixture scenario (each entry is
  Z with probability gamma, fresh noise otherwise) or the linear scenario
  ``X = gamma Z + sqrt(1 - gamma^2) Z'``.  Both induce the block covariance
  Cov(X) = Cov(Y) = alpha I, Cov(X, Y) = gamma^2 alpha I.

* :func:`mvn_sample` draws zero-mean jointly Gaussian pairs with an
  arbitrary :class:`JointCovariance`, and :func:`mvn_gram` returns the
  centered Gram matrix of the same draw without forming the pairs; preset
  constructors cover the identity, spiked-diagonal, and
  coordinate-reversed covariance structures used by the simulation
  experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import centered_gram

__all__ = [
    "JointCovariance",
    "DataPair",
    "ScientistParams",
    "scientists_sample",
    "scientists_covariance",
    "mvn_sample",
    "mvn_gram",
    "identity_pair",
    "spiked_diag_pair",
    "reversed_pair",
]

_SYM_TOL = 1e-12
_PSD_TOL = -1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
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
    where a Cholesky factor would fail.
    """

    cov_x: np.ndarray
    cov_y: np.ndarray
    cov_xy: np.ndarray
    root: np.ndarray = field(init=False, repr=False, compare=False)

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
        eigvals, eigvecs = np.linalg.eigh(_assemble_block(cov_x, cov_y, cov_xy))
        if eigvals[0] < _PSD_TOL * eigvals[-1]:
            raise ValueError(
                f"block covariance not positive semidefinite (min eig {eigvals[0]:.3e})"
            )
        root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
        object.__setattr__(self, "cov_x", _readonly(cov_x))
        object.__setattr__(self, "cov_y", _readonly(cov_y))
        object.__setattr__(self, "cov_xy", _readonly(cov_xy))
        object.__setattr__(self, "root", _readonly(root))

    @property
    def m(self) -> int:
        return self.cov_x.shape[0]

    def block(self) -> np.ndarray:
        """The assembled 2m x 2m covariance of the stacked vector (X, Y)."""
        return _assemble_block(self.cov_x, self.cov_y, self.cov_xy)


def _assemble_block(cov_x, cov_y, cov_xy) -> np.ndarray:
    return np.block([[cov_x, cov_xy], [cov_xy.T, cov_y]])


@dataclass(frozen=True)
class DataPair:
    """Paired m x n sample matrices (features x observations)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or x.shape != y.shape:
            raise ValueError(f"x and y must be 2-d with equal shapes, got {x.shape}, {y.shape}")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "y", _readonly(y))


@dataclass(frozen=True)
class ScientistParams:
    """Parameters of the two-measurement-device generators.

    gamma in [0, 1] is the measurement accuracy (1: both devices record the
    signal exactly; 0: their outputs are independent).  ``base`` selects the
    common distribution of the signal/noise variables: "normal" or
    "uniform", each centered with variance ``alpha``.
    """

    m: int
    gamma: float
    scenario: str = "linear"
    base: str = "normal"
    alpha: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.scenario not in ("mixture", "linear"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.base not in ("normal", "uniform"):
            raise ValueError(f"unknown base distribution {self.base!r}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def _base_draw(params: ScientistParams, rng: np.random.Generator, shape) -> np.ndarray:
    if params.base == "normal":
        return np.sqrt(params.alpha) * rng.standard_normal(shape)
    half_width = np.sqrt(3.0 * params.alpha)  # variance alpha
    return rng.uniform(-half_width, half_width, shape)


def scientists_sample(params: ScientistParams, n: int, rng: np.random.Generator) -> DataPair:
    """Draw n paired daily measurements under the chosen noise scenario.

    Draw order (fixed for reproducibility): signal Z, noises Z' and Z''
    (each m x n), then for the mixture scenario the two Bernoulli selector
    fields, independent per (feature, day).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    shape = (params.m, n)
    z = _base_draw(params, rng, shape)
    z1 = _base_draw(params, rng, shape)
    z2 = _base_draw(params, rng, shape)
    if params.scenario == "mixture":
        keep_x = rng.random(shape) < params.gamma
        keep_y = rng.random(shape) < params.gamma
        x = np.where(keep_x, z, z1)
        y = np.where(keep_y, z, z2)
    else:
        noise_scale = np.sqrt(1.0 - params.gamma**2)
        x = params.gamma * z + noise_scale * z1
        y = params.gamma * z + noise_scale * z2
    return DataPair(x, y)


def scientists_covariance(params: ScientistParams) -> JointCovariance:
    """The block covariance both scenarios induce: alpha I blocks, gamma^2 alpha I cross."""
    eye = np.eye(params.m)
    return JointCovariance(
        params.alpha * eye, params.alpha * eye, params.gamma**2 * params.alpha * eye
    )


def mvn_sample(jc: JointCovariance, n: int, rng: np.random.Generator) -> DataPair:
    """Draw n iid zero-mean Gaussian pairs with the given block covariance.

    Multiplies one ``(2m, n)`` standard-normal block by ``jc.root``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    draws = jc.root @ rng.standard_normal((2 * jc.m, n))
    return DataPair(draws[: jc.m], draws[jc.m :])


def mvn_gram(jc: JointCovariance, n: int, rng: np.random.Generator) -> np.ndarray:
    """Centered 2m x 2m Gram matrix of the pairs :func:`mvn_sample` draws from ``rng``.

    Consumes the same ``(2m, n)`` standard-normal block, but never forms the
    data: centering commutes with ``jc.root``, so the Gram matrix of the
    centered draw is ``L (Gc Gc^T) L^T`` with ``Gc`` the centered normal block.
    """
    root = jc.root
    return root @ centered_gram(rng.standard_normal((2 * jc.m, n))) @ root.T


def identity_pair(m: int, beta: float) -> JointCovariance:
    """Cov(X) = Cov(Y) = I_m with Cov(X, Y) = beta I_m; needs |beta| <= 1."""
    if abs(beta) > 1.0:
        raise ValueError(f"|beta| <= 1 required for positive semidefiniteness, got {beta}")
    eye = np.eye(m)
    return JointCovariance(eye, eye, beta * eye)


def _spiked_diagonal(m: int, lambda2: float) -> np.ndarray:
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
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
    cov = np.diag(_spiked_diagonal(m, lambda2))
    return JointCovariance(cov, cov, beta * np.eye(m))


def reversed_pair(m: int, lambda2: float, beta: float) -> tuple[JointCovariance, np.ndarray]:
    """The spiked-diagonal pair with Y's coordinates permuted into reverse order.

    Returns ``(jc, w)`` where ``w`` is the reversal permutation (ones on the
    antidiagonal), so ``cov_y = w @ cov_x @ w.T`` and ``cov_xy = beta * w``.
    ``w`` is returned so callers can compare subspaces after undoing the
    permutation.
    """
    cov_x = np.diag(_spiked_diagonal(m, lambda2))
    w = np.fliplr(np.eye(m))
    cov_y = w @ cov_x @ w.T
    return JointCovariance(cov_x, cov_y, beta * w), w
