import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from sympindex import (ContractError, DimensionError, HalfInt,
                       IllConditionedSpectrumError, SympMatrix,
                       complex_det, direct_sum, direct_sum_many,
                       is_symplectic, j_matrix, omega_matrix, polar_decompose,
                       random_symplectic, rho, rho_hat, rho_polar,
                       symplectic_residual)


def rotation(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


class TestStructures:
    def test_omega_convention(self):
        om = omega_matrix(2)
        assert np.array_equal(om[:2, 2:], np.eye(2))
        assert np.array_equal(om[2:, :2], -np.eye(2))

    def test_j_is_minus_omega_and_squares_to_minus_id(self):
        jm = j_matrix(3)
        assert np.array_equal(jm, -omega_matrix(3))
        assert np.allclose(jm @ jm, -np.eye(6))

    def test_certified_matrix_rejects_non_symplectic(self):
        with pytest.raises(ContractError):
            SympMatrix(np.diag([2.0, 2.0]))

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            SympMatrix(np.eye(3))

    def test_symplectic_residual_zero_for_identity(self):
        assert symplectic_residual(np.eye(4)) == 0.0

    def test_residual_of_huge_entries_does_not_overflow(self):
        # warnings are errors in this suite: an overflow would raise here
        assert is_symplectic(np.diag([1e200, 1e-200]))
        assert not is_symplectic(np.diag([1e200, 1e200]))
        assert symplectic_residual(np.diag([1e300, 1e300])) == pytest.approx(
            np.sqrt(2.0) / 2.0)
        stack = np.array([np.full((2, 2), 1.7e308), np.eye(2),
                          np.diag([1e-300, 1e300])])
        assert np.isfinite(symplectic_residual(stack))

    def test_scaled_residual_keeps_the_unscaled_bits(self):
        # every matrix is scaled by a power of two; up to about 1e77 the
        # plain formula is still finite, and both must agree bit for bit
        def fro(m):
            return np.sqrt((m * m).sum())

        om = omega_matrix(2)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            a = random_symplectic(2, seed) * 10.0 ** rng.uniform(
                -3, 70, size=(4, 4))
            plain = fro(a.T @ om @ a - om) / (1.0 + fro(a) ** 2)
            assert symplectic_residual(a) == plain
        a = random_symplectic(2, 0)
        assert symplectic_residual(a) == fro(a.T @ om @ a - om) / (
            1.0 + fro(a) ** 2)

    def test_singular_matrix_with_huge_entries_fails_typed(self):
        # the residual is relative to 1 + |M|^2, so this singular matrix
        # passes the symplectic check and fails later, in the spectrum;
        # a scale-consistent check would raise ContractError instead
        with pytest.raises(IllConditionedSpectrumError,
                           match="quadruple multiplicities sum to 4"):
            rho(np.full((2, 2), 1e200))


class TestPolar:
    def test_factors(self):
        a = random_symplectic(2, seed=1)
        o, p = polar_decompose(a)
        assert np.allclose(o @ p, a, atol=1e-10)
        assert np.allclose(o.T @ o, np.eye(4), atol=1e-10)
        assert np.allclose(p, p.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(p)) > 0
        assert is_symplectic(o) and is_symplectic(p)

    def test_orthogonal_factor_commutes_with_j(self):
        a = random_symplectic(3, seed=2)
        o, _ = polar_decompose(a)
        jm = j_matrix(3)
        assert np.linalg.norm(o @ jm - jm @ o) < 1e-9


class TestCircleMaps:
    def test_complex_det_of_rotation(self):
        assert complex_det(rotation(0.7)) == pytest.approx(np.exp(0.7j))

    def test_rho_polar_equals_det_on_unitary(self):
        phi = 1.1
        assert rho_polar(rotation(phi)) == pytest.approx(np.exp(1j * phi))

    def test_rho_hat_matches_rho_polar_on_unitary_and_positive(self):
        a = rotation(0.4)
        assert rho_hat(a) == pytest.approx(rho_polar(a))
        p = np.diag([3.0, 1 / 3.0])
        assert rho_hat(p) == pytest.approx(1.0)
        assert rho_polar(p) == pytest.approx(1.0)
        # det_C of this C-linear part overflows; its phase does not
        huge = np.diag([1e200, 1e200, 1e-200, 1e-200])
        assert rho_hat(huge) == rho_polar(huge) == 1.0
        # det_C(C_A) = det_C(U) det_C(C_P) with C_P > 0: both maps are the
        # complex determinant of the orthogonal polar factor U, which the
        # SVD gives to within eps * cond(A)
        largest = 0.0
        for n in (1, 2, 4, 8):
            stack = np.array([random_symplectic(n, seed, scale=scale,
                                                max_cond=2e6)
                              for scale in (0.5, 1.0, 1.5) for seed in range(3)])
            cond = np.linalg.cond(stack)
            largest = max(largest, cond.max())
            want = complex_det(polar_decompose(stack)[0])
            for circle_map in (rho_polar, rho_hat):
                assert (np.abs(circle_map(stack) - want) <= 1e-13 * cond).all()
        assert largest > 1e5

    def test_determinant_maps_name_themselves_in_their_errors(self):
        infinite = rotation(0.3)
        infinite[0, 1] = np.inf
        for bad in (np.diag([2.0, 2.0]), infinite):
            for circle_map in (rho_polar, rho_hat):
                with pytest.raises(ContractError, match=circle_map.__name__):
                    circle_map(bad)

    def test_complex_det_requires_j_commutation(self):
        with pytest.raises(ContractError):
            complex_det(np.diag([2.0, 0.5]))

    def test_stacks_give_one_value_per_matrix(self):
        stack = np.array([random_symplectic(2, seed=s) for s in range(5)])
        for circle_map in (rho_polar, rho_hat):
            got = circle_map(stack)
            assert got.shape == (5,)
            assert got == pytest.approx([circle_map(a) for a in stack],
                                        abs=1e-12)
        o, p = polar_decompose(stack)
        assert np.allclose(o @ p, stack, atol=1e-10)
        assert symplectic_residual(stack) < 1e-12

    def test_stacks_are_checked_as_a_whole(self):
        good = np.array([rotation(0.3), rotation(1.2)])
        stretched = good.copy()
        stretched[1] = np.diag([2.0, 2.0])           # not symplectic
        for circle_map in (rho_polar, rho_hat, polar_decompose):
            with pytest.raises(ContractError):
                circle_map(stretched)
        skew = good.copy()
        skew[1] = np.diag([2.0, 0.5])                # does not commute with J0
        with pytest.raises(ContractError):
            complex_det(skew)
        infinite = good.copy()
        infinite[0, 0, 0] = np.inf
        with pytest.raises(ContractError):
            complex_det(infinite)
        with pytest.raises(ContractError):
            rho_polar(infinite)
        assert not is_symplectic(stretched) and is_symplectic(good)
        assert complex_det(good) == pytest.approx(np.exp([0.3j, 1.2j]))


class TestDirectSum:
    def test_interleaved_layout(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        b = rotation(0.3)
        s = direct_sum(a, b)
        # e-block rows/cols 0..1, f-block rows/cols 2..3
        assert s[0, 0] == a[0, 0] and s[0, 2] == a[0, 1]
        assert s[1, 1] == b[0, 0] and s[1, 3] == b[0, 1]
        assert is_symplectic(s)

    def test_many_preserves_symplecticity(self):
        mats = [random_symplectic(1, seed=k) for k in range(3)]
        assert is_symplectic(direct_sum_many(mats))

    def test_stacks_are_summed_matrix_by_matrix(self):
        a = np.array([random_symplectic(1, seed=k) for k in range(4)])
        b = np.array([random_symplectic(2, seed=k) for k in range(4)])
        got = direct_sum_many([a, b])
        assert got.shape == (4, 6, 6)
        for k in range(4):
            assert np.array_equal(got[k], direct_sum(a[k], b[k]))
        with pytest.raises(DimensionError):
            direct_sum_many([a, b[:3]])

    def test_mixed_sizes_match_an_index_list_reference(self):
        mats = [random_symplectic(m, seed=m) for m in (1, 2, 3, 1)]
        total = sum(a.shape[0] // 2 for a in mats)
        ref = np.zeros((2 * total, 2 * total))
        offset = 0
        for a in mats:
            m = a.shape[0] // 2
            idx = np.concatenate([np.arange(offset, offset + m),
                                  np.arange(total + offset, total + offset + m)])
            ref[np.ix_(idx, idx)] = a
            offset += m
        assert direct_sum_many(mats).tobytes() == ref.tobytes()


class TestRandomSymplectic:
    def test_deterministic(self):
        assert np.array_equal(random_symplectic(2, seed=5),
                              random_symplectic(2, seed=5))

    def test_is_symplectic(self):
        for seed in range(5):
            assert symplectic_residual(random_symplectic(3, seed)) < 1e-9

    def test_condition_cap(self):
        a = random_symplectic(2, seed=7, max_cond=40)
        assert np.linalg.cond(a) < 40


class TestHalfInt:
    def test_arithmetic_and_rendering(self):
        h = HalfInt(3)
        assert str(h) == "3/2"
        assert h + HalfInt(1) == 2
        assert h.as_float() == 1.5
        assert not h.is_integer
        assert HalfInt.from_int(2) == 2

    def test_from_float_guard(self):
        assert HalfInt.from_float(1.5000001) == HalfInt(3)
        with pytest.raises(Exception):
            HalfInt.from_float(1.3)

    def test_hash_agrees_with_equality(self):
        # equal values must hash alike, or sets and dicts miss them
        assert 1 in {HalfInt(2)} and 1.5 in {HalfInt(3)}
        assert HalfInt(-3) in {-1.5} and HalfInt(0) in {0, 0.0}
        assert {HalfInt(4): "two"}[2] == "two"
        big = 2 ** 80 + 1
        assert HalfInt(2 * big) == big and hash(HalfInt(2 * big)) == hash(big)
        assert len({HalfInt(3), HalfInt(3), HalfInt(5)}) == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=10_000))
def test_products_and_inverses_stay_symplectic(seed_a, seed_b):
    a = random_symplectic(2, seed=seed_a)
    b = random_symplectic(2, seed=seed_b)
    assert symplectic_residual(a @ b) < 1e-8
    assert symplectic_residual(np.linalg.inv(a)) < 1e-8
    assert symplectic_residual(a.T) < 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rho_maps_land_on_unit_circle(seed):
    a = random_symplectic(2, seed=seed)
    assert abs(abs(rho_polar(a)) - 1.0) < 1e-12
    assert abs(abs(rho_hat(a)) - 1.0) < 1e-12
