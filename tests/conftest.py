import numpy as np
import pytest

from subalign import JointCovariance, Subspace


def random_subspace(rng, m, k) -> Subspace:
    q, _ = np.linalg.qr(rng.standard_normal((m, k)))
    return Subspace(q)


def random_orthogonal(rng, m) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def joint_block(jc: JointCovariance) -> np.ndarray:
    """The 2m x 2m covariance of the stacked vector (X, Y)."""
    return np.block([[jc.cov_x, jc.cov_xy], [jc.cov_xy.T, jc.cov_y]])


def random_joint_covariance(rng, m) -> JointCovariance:
    # Gram construction guarantees a PSD block matrix; the 1/(2m) scale
    # keeps eigvalsh round-off well inside the constructor's tolerance.
    mat = rng.standard_normal((2 * m, 2 * m))
    block = mat.T @ mat / (2 * m)
    return JointCovariance(block[:m, :m], block[m:, m:], block[:m, m:])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
