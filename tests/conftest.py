from typing import NamedTuple, Optional

import numpy as np
import pytest

from subalign import JointCovariance, Subspace, evaluate_grams
from subalign.kernel import STATUSES


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


class Row(NamedTuple):
    """One matrix's row of ``evaluate_grams``'s columns: None for an absent column or a NaN."""

    status: str
    d_sq: Optional[float] = None
    eth_sq: Optional[float] = None
    eps_sq: Optional[float] = None
    d_sq_corrected: Optional[float] = None


def stack_rows(out) -> list[Row]:
    """The rows of ``evaluate_grams``'s columns, one per matrix of the stack."""
    return [Row(STATUSES[code], *(None if col is None or np.isnan(col[r]) else col[r].item()
                                  for col in out[1:]))
            for r, code in enumerate(out.status)]


def evaluate_one(s, k, method, n, weight=None, isometry=None) -> Row:
    """``evaluate_grams`` on a stack of one, a copy of the 2m x 2m Gram matrix ``s``."""
    return stack_rows(evaluate_grams(np.array(s, dtype=float)[None], k, method, n, weight,
                                     isometry))[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
