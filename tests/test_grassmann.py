import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subalign import (
    Subspace,
    hausdorff_sq,
    principal_angles,
    projector,
    weighted_hausdorff_sq,
)
from subalign.grassmann import (
    _clamp_cosines, check_isometry, chordal_sq, topk_mass, weight, weighted_sq,
)

from conftest import random_orthogonal, random_subspace


def principal_angles_from_projectors(a, b):
    """Oracle: principal angles via the singular values of ``P_a @ P_b`` (O(m^3))."""
    sigma = np.linalg.svd(projector(a) @ projector(b), compute_uv=False)[: a.dim]
    return np.arccos(_clamp_cosines(sigma))


def weighted_hausdorff_sq_from_projectors(a, b, c):
    """Oracle: ``sum_{i<=k} 2 (1 - sigma_i(P_a C P_b) / w)`` with w the mean top-k sigma of C.

    The zero weight gives the chordal distance, here from the
    projector-route angles.
    """
    k = a.dim
    if not np.any(c):
        return float(2.0 * np.sum(1.0 - np.cos(principal_angles_from_projectors(a, b))))
    w = np.linalg.svd(c, compute_uv=False)[:k].mean()
    sigma = np.linalg.svd(projector(a) @ c @ projector(b), compute_uv=False)[:k]
    return min(max(float(2.0 * np.sum(1.0 - sigma / w)), 0.0), 2.0 * k)


def basis_of(*cols, m):
    out = np.zeros((m, len(cols)))
    for j, c in enumerate(cols):
        out[c, j] = 1.0
    return Subspace(out)


class TestSubspace:
    def test_valid(self):
        s = basis_of(0, 1, m=6)
        assert s.ambient_dim == 6
        assert s.dim == 2

    def test_not_orthonormal(self):
        for basis in (np.ones((3, 2)), np.full((3, 2), np.nan)):
            with pytest.raises(ValueError, match="orthonormal"):
                Subspace(basis)

    def test_k_exceeds_m(self):
        with pytest.raises(ValueError, match="1 <= k <= m"):
            Subspace(np.vstack([np.eye(2), np.eye(2)]).T)  # 2x4

    def test_basis_is_readonly(self):
        s = basis_of(0, m=3)
        with pytest.raises(ValueError):
            s.basis[0, 0] = 2.0


class TestProjector:
    def test_coordinate_subspace(self):
        p = projector(basis_of(0, m=2))
        assert np.allclose(p, [[1.0, 0.0], [0.0, 0.0]])

    def test_diagonal_line(self):
        s = Subspace(np.array([[1.0], [1.0]]) / np.sqrt(2.0))
        assert np.allclose(projector(s), [[0.5, 0.5], [0.5, 0.5]])

    def test_invariants_on_random_subspaces(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 15))
            k = int(rng.integers(1, m + 1))
            p = projector(random_subspace(rng, m, k))
            assert np.max(np.abs(p - p.T)) < 1e-10
            assert np.max(np.abs(p @ p - p)) < 1e-8
            assert abs(np.trace(p) - k) < 1e-8


class TestPrincipalAngles:
    def test_identical_subspaces(self):
        s = basis_of(0, 1, m=6)
        assert np.allclose(principal_angles(s, s), [0.0, 0.0], atol=1e-7)

    def test_orthogonal_lines(self):
        a = basis_of(0, m=6)
        b = basis_of(1, m=6)
        assert np.allclose(principal_angles(a, b), [np.pi / 2])

    def test_quarter_turn_against_inner_product(self):
        u = np.zeros(6)
        u[0] = 1.0
        v = np.zeros(6)
        v[0] = v[1] = 1.0 / np.sqrt(2.0)
        oracle = np.arccos(u @ v)
        a = Subspace(u[:, None])
        b = Subspace(v[:, None])
        assert principal_angles(a, b)[0] == pytest.approx(oracle, abs=1e-12)

    def test_nondecreasing_in_range(self, rng):
        for _ in range(25):
            a = random_subspace(rng, 9, 4)
            b = random_subspace(rng, 9, 4)
            ang = principal_angles(a, b)
            assert np.all(np.diff(ang) >= 0)
            assert np.all(ang >= 0) and np.all(ang <= np.pi / 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            principal_angles(basis_of(0, m=5), basis_of(0, m=6))
        with pytest.raises(ValueError, match="incompatible"):
            principal_angles(basis_of(0, m=6), basis_of(0, 1, m=6))

    def test_projector_route_agrees(self, rng):
        for _ in range(25):
            a = random_subspace(rng, 12, 3)
            b = random_subspace(rng, 12, 3)
            assert np.allclose(
                principal_angles(a, b), principal_angles_from_projectors(a, b), atol=1e-7
            )

    def test_cosine_clamp_rejects_gross_values(self):
        assert np.all(_clamp_cosines(np.array([1.0 + 5e-11])) == 1.0)
        with pytest.raises(ValueError, match="escape"):
            _clamp_cosines(np.array([1.001]))
        with pytest.raises(ValueError, match="escape"):
            _clamp_cosines(np.array([-0.1]))


class TestHausdorffSq:
    def test_identical(self):
        s = basis_of(0, 1, m=6)
        assert hausdorff_sq(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_lines_hit_max(self):
        assert hausdorff_sq(basis_of(0, m=6), basis_of(1, m=6)) == pytest.approx(2.0)

    def test_quarter_turn(self):
        a = basis_of(0, m=6)
        v = np.zeros(6)
        v[0] = v[1] = 1.0 / np.sqrt(2.0)
        b = Subspace(v[:, None])
        assert hausdorff_sq(a, b) == pytest.approx(2.0 * (1.0 - np.cos(np.pi / 4)), abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(25):
            a = random_subspace(rng, 10, 3)
            b = random_subspace(rng, 10, 3)
            assert abs(hausdorff_sq(a, b) - hausdorff_sq(b, a)) < 1e-10

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(
        m=st.integers(min_value=2, max_value=12),
        k_raw=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bounds_fuzz(self, m, k_raw, seed):
        k = min(k_raw, m)
        gen = np.random.default_rng(seed)
        a = random_subspace(gen, m, k)
        b = random_subspace(gen, m, k)
        d2 = hausdorff_sq(a, b)
        assert 0.0 <= d2 <= 2.0 * k
        cosines = np.cos(principal_angles(a, b))
        assert np.all(cosines >= 0.0) and np.all(cosines <= 1.0)


class TestWeightedHausdorffSq:
    def test_scalar_identity_weight_reduces_to_unweighted(self, rng):
        a = random_subspace(rng, 8, 3)
        b = random_subspace(rng, 8, 3)
        weighted = weighted_hausdorff_sq(a, b, 2.5 * np.eye(8))
        assert weighted == pytest.approx(hausdorff_sq(a, b), abs=1e-12)

    def test_zero_weight_convention(self, rng):
        a = random_subspace(rng, 8, 3)
        b = random_subspace(rng, 8, 3)
        assert weighted_hausdorff_sq(a, b, np.zeros((8, 8))) == hausdorff_sq(a, b)

    def test_reversal_weight_on_leading_coordinates(self):
        # The reversal permutation maps e1, e2 to e40, e39, orthogonal to
        # span{e1, e2}, so the projected weight vanishes and the distance
        # saturates at 2k even though a == b.
        m = 40
        a = basis_of(0, 1, m=m)
        w = np.fliplr(np.eye(m))
        cross = 0.6 * w
        sigma = np.linalg.svd(projector(a) @ cross @ projector(a), compute_uv=False)
        assert sigma[:2] == pytest.approx([0.0, 0.0], abs=1e-14)
        assert weighted_hausdorff_sq(a, a, cross) == pytest.approx(4.0, abs=1e-12)

    def test_bounds_on_random_weights(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 12))
            k = int(rng.integers(1, min(m, 6) + 1))
            a = random_subspace(rng, m, k)
            b = random_subspace(rng, m, k)
            c = rng.standard_normal((m, m))
            assert 0.0 <= weighted_hausdorff_sq(a, b, c) <= 2.0 * k

    def test_projection_shrinks_singular_values(self, rng):
        # Each singular value of P_a C P_b is bounded by the matching
        # singular value of C; this is what keeps the distance nonnegative.
        for _ in range(100):
            m = int(rng.integers(2, 10))
            k = int(rng.integers(1, m + 1))
            a = random_subspace(rng, m, k)
            b = random_subspace(rng, m, k)
            c = rng.standard_normal((m, m))
            lhs = np.linalg.svd(projector(a) @ c @ projector(b), compute_uv=False)
            rhs = np.linalg.svd(c, compute_uv=False)
            assert np.all(lhs <= rhs + 1e-10)

    def test_shape_mismatch(self, rng):
        a = random_subspace(rng, 6, 2)
        with pytest.raises(ValueError, match="6 x 6"):
            weighted_hausdorff_sq(a, a, np.eye(5))

    def test_matches_projector_definition(self, rng):
        # The k x k core A^T C B against the m x m definition P_a C P_b, on
        # random weights, a zero weight and a weight of rank max(1, k - 1)
        # (below both m and, for k > 1, k), including k = m.
        dims = [(int(m), int(rng.integers(1, m + 1))) for m in rng.integers(2, 10, size=50)]
        for m, k in dims + [(5, 5), (8, 8)]:
            a = random_subspace(rng, m, k)
            b = random_subspace(rng, m, k)
            rank = max(1, k - 1)
            weights = [
                rng.standard_normal((m, m)),
                np.zeros((m, m)),
                rng.standard_normal((m, rank)) @ rng.standard_normal((rank, m)),
            ]
            for c in weights:
                want = weighted_hausdorff_sq_from_projectors(a, b, c)
                assert weighted_hausdorff_sq(a, b, c) == pytest.approx(want, abs=1e-9)


def weighted_sq_per_call(a, b, c):
    """The weighted distance with the weight rescaled and its top-k mass taken on every call."""
    k = a.shape[1]
    if not np.any(c):
        return chordal_sq(a.T @ b)
    c = np.ldexp(c, -np.frexp(np.max(np.abs(c)))[1])
    sigma = np.linalg.svd(a.T @ c @ b, compute_uv=False)
    return min(max(float(2.0 * np.sum(1.0 - sigma / (topk_mass(c, k) / k))), 0.0), 2.0 * k)


class TestPreparedWeight:
    def test_bitwise_equal_to_per_call_preparation(self, rng):
        for m in rng.integers(2, 10, size=40):
            k = int(rng.integers(1, m + 1))
            a, b = (random_subspace(rng, int(m), k).basis for _ in range(2))
            for c in (rng.standard_normal((m, m)) * 10.0 ** rng.integers(-300, 300),
                      np.zeros((m, m)), np.eye(m)):
                assert weighted_sq(a, b, weight(c, k)) == weighted_sq_per_call(a, b, c)

    @pytest.mark.parametrize("c", [np.ones((3, 4)), np.ones(3), np.ones((0, 0))])
    def test_rejects_non_square_weight(self, c):
        with pytest.raises(ValueError, match="square"):
            weight(c, 1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_weight(self, bad):
        # Unchecked, an inf weight reached LAPACK, which printed an error to stderr
        # and returned a Weight; a NaN one raised LinAlgError at its first use.
        for c in (np.full((4, 4), bad), np.where(np.eye(4) > 0, bad, 0.5)):
            with pytest.raises(ValueError, match="non-finite"):
                weight(c, 2)
            with pytest.raises(ValueError, match="non-finite"):
                weighted_hausdorff_sq(basis_of(0, m=4), basis_of(1, m=4), c)

    @pytest.mark.parametrize("k", [0, 4])
    def test_rejects_k_outside_1_to_m(self, k):
        with pytest.raises(ValueError, match="1 <= k <= m"):
            weight(np.eye(3), k)

    def test_given_the_bases_m_names_the_size_before_k(self):
        # k = 4 is above C's size, but the fault is that C is not m x m.
        with pytest.raises(ValueError) as raised:
            weight(np.eye(3), 4, m=4)
        assert str(raised.value) == "weight is 3 x 3 at k = 4; these bases need 4 x 4 at k = 4"
        assert weight(np.eye(4), 4, m=4).m == 4

    def test_rejects_raw_matrix(self):
        a = np.eye(3)[:, :1]
        with pytest.raises(TypeError, match="grassmann.weight"):
            weighted_sq(a, a, np.eye(3))

    def test_rejects_bases_of_another_shape(self):
        a = np.eye(4)[:, :2]
        for w in (weight(np.eye(4), 1), weight(np.eye(5), 2)):
            with pytest.raises(ValueError, match="4 x 4 at k = 2"):
                weighted_sq(a, a, w)

    def test_weight_is_read_only(self):
        c = np.eye(3)
        w = weight(c, 2)
        c[0, 0] = 5.0
        assert weighted_sq(np.eye(3)[:, :2], np.eye(3)[:, :2], w) == 0.0
        with pytest.raises(ValueError):
            w.scaled[0, 0] = 1.0


class TestApplyIsometry:
    """The image of a subspace under an isometry W: ``Subspace(w @ b.basis)``."""

    def test_identity_map(self, rng):
        b = random_subspace(rng, 7, 2)
        assert np.allclose(Subspace(np.eye(7) @ b.basis).basis, b.basis)

    def test_reversal_permutation(self):
        moved = Subspace(np.fliplr(np.eye(40)) @ basis_of(0, m=40).basis)
        expected = np.zeros((40, 1))
        expected[39, 0] = 1.0
        assert np.allclose(moved.basis, expected)

    def test_projector_conjugation(self, rng):
        b = random_subspace(rng, 8, 3)
        w = random_orthogonal(rng, 8)
        assert np.allclose(projector(Subspace(w @ b.basis)), w @ projector(b) @ w.T)

    def test_distance_invariance(self, rng):
        b1 = random_subspace(rng, 9, 3)
        b2 = random_subspace(rng, 9, 3)
        w = random_orthogonal(rng, 9)
        before = hausdorff_sq(b1, b2)
        after = hausdorff_sq(Subspace(w @ b1.basis), Subspace(w @ b2.basis))
        assert after == pytest.approx(before, abs=1e-10)

    def test_rejects_non_orthogonal(self):
        for w in (np.eye(5) * 2.0, np.full((5, 5), np.nan)):
            with pytest.raises(ValueError, match="not orthogonal"):
                check_isometry(w, 5)


def test_orthogonal_weight_matches_distance_to_moved_subspace(rng):
    # With weight beta * W (W orthogonal, beta != 0) the weighted distance
    # between a and b equals the plain distance between a and W b, at any
    # scale of beta: the distance has no zero-weight threshold and no
    # overflow near 1e300.
    for _ in range(25):
        m = int(rng.integers(2, 12))
        k = int(rng.integers(1, min(m, 5) + 1))
        a = random_subspace(rng, m, k)
        b = random_subspace(rng, m, k)
        w = random_orthogonal(rng, m)
        beta = float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1)
        rhs = hausdorff_sq(a, Subspace(w @ b.basis))
        for scale in (1e-300, 1e-15, 1.0, 1e300):
            lhs = weighted_hausdorff_sq(a, b, scale * beta * w)
            assert lhs == pytest.approx(rhs, abs=1e-9), scale
