import numpy as np
import pytest
import scipy.linalg as sla

import sympindex.spectral as spectral
from sympindex import (DEFAULT_TOL, IllConditionedSpectrumError,
                       direct_sum_many, eigen_quadruples,
                       first_kind_eigenvalues, generalized_eigenspace,
                       j_matrix, krein_form, random_symplectic, rho)
from conftest import unit_jordan_real


def rotation(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def w_minus(n):
    d = np.ones(2 * n) * -1.0
    d[0] = 2.0
    d[n] = 0.5
    return np.diag(d)


class TestQuadruples:
    def test_regimes_on_mixed_spectrum(self):
        a = direct_sum_many([np.diag([3.0, 1 / 3.0]), rotation(0.8), -np.eye(2)])
        regimes = {q.regime for q in eigen_quadruples(a)}
        assert regimes == {"RealPositive", "UnitNonReal", "MinusOne"}

    def test_quadruple_members_closed_under_inversion_conjugation(self):
        a = random_symplectic(3, seed=11)
        for q in eigen_quadruples(a):
            members = set(np.round(q.members, 8))
            for z in q.members:
                assert np.round(1 / z, 8) in members
                assert np.round(np.conj(z), 8) in members

    def test_total_multiplicity_is_dimension(self):
        for seed in range(4):
            a = random_symplectic(2, seed=seed)
            total = sum(q.total_multiplicity for q in eigen_quadruples(a))
            assert total == 4

    def test_defective_cluster_merged(self):
        # order-4 chain at a unit eigenvalue splits ~eps^(1/4); the cluster
        # must still be recognized as one eigenvalue with multiplicity 4
        a = unit_jordan_real(0.7, 4)
        tol = DEFAULT_TOL.with_overrides(tol_eig=1e-3)
        quads = eigen_quadruples(a, tol)
        assert len(quads) == 1
        assert quads[0].multiplicity == 4
        assert quads[0].regime == "UnitNonReal"


class TestEigenspaces:
    def test_generalized_eigenspace_dimension(self):
        a = direct_sum_many([np.array([[2.0, 1.0], [0.0, 2.0]]),
                             np.diag([0.5, -1e0 * 2.0])])
        # 2 is a defective eigenvalue of multiplicity 2 in the first block
        basis = generalized_eigenspace(a, 2.0, multiplicity=2)
        assert basis.shape[1] == 2
        p = (a - 2.0 * np.eye(a.shape[0]))
        assert np.linalg.norm(p @ p @ basis) < 1e-8


class TestKrein:
    def test_rotation_has_positive_eigenvalue_of_first_kind(self):
        kd = krein_form(rotation(0.9), np.exp(0.9j))
        assert kd.signature == (1, 0)
        kd_bar = krein_form(rotation(0.9), np.exp(-0.9j))
        assert kd_bar.signature == (0, 1)

    def test_signature_is_conjugation_invariant(self):
        phi = 1.2
        a = direct_sum_many([rotation(phi), rotation(-phi)])
        k = random_symplectic(2, seed=3, max_cond=50)
        b = k @ a @ np.linalg.inv(k)
        assert (krein_form(a, np.exp(1j * phi), multiplicity=2).signature
                == krein_form(b, np.exp(1j * phi), multiplicity=2).signature
                == (1, 1))


class TestRho:
    def test_minus_identity(self):
        for n in (1, 2, 3):
            assert rho(-np.eye(2 * n)) == pytest.approx((-1.0) ** n)

    def test_w_minus(self):
        for n in (1, 2, 3):
            assert rho(w_minus(n)) == pytest.approx((-1.0) ** (n - 1))

    def test_rotation(self):
        for phi in (0.3, 0.9, -1.4, 2.8):
            assert rho(rotation(phi)) == pytest.approx(np.exp(1j * phi),
                                                       abs=1e-12)

    def test_hyperbolic_is_one(self):
        assert rho(np.diag([2.0, 0.5])) == pytest.approx(1.0)
        assert rho(np.diag([-3.0, 2.0, -1 / 3.0, 0.5])) == pytest.approx(-1.0)

    def test_power_law(self):
        for seed in range(10):
            a = random_symplectic(2, seed=seed)
            r = rho(a)
            for npow in (2, 3):
                assert abs(rho(np.linalg.matrix_power(a, npow)) - r ** npow) < 1e-8

    def test_conjugation_invariance(self):
        a = direct_sum_many([rotation(0.8), np.diag([2.0, 0.5])])
        k = random_symplectic(2, seed=9, max_cond=50)
        assert abs(rho(k @ a @ np.linalg.inv(k)) - rho(a)) < 1e-9

    def test_product_of_commuting_blocks(self):
        a = direct_sum_many([rotation(0.5), rotation(1.1)])
        assert rho(a) == pytest.approx(np.exp(1j * 1.6), abs=1e-12)

    def test_one_spectral_analysis_per_call(self, monkeypatch):
        calls = []
        original = spectral.eigen_quadruples

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigen_quadruples", counted)
        a = direct_sum_many([rotation(0.7), np.diag([2.0, 0.5])])
        assert rho(a) == pytest.approx(np.exp(0.7j), abs=1e-12)
        assert len(calls) == 1


class TestFirstKind:
    def test_count_and_content(self):
        a = direct_sum_many([np.diag([2.0, 0.5]), rotation(0.8)])
        fk = first_kind_eigenvalues(a)
        assert len(fk) == 2
        assert any(abs(z - 0.5) < 1e-9 for z in fk)
        assert any(abs(z - np.exp(0.8j)) < 1e-9 for z in fk)

    def test_w_minus_first_kind(self):
        fk = first_kind_eigenvalues(w_minus(1))
        assert len(fk) == 1
        assert fk[0] == pytest.approx(0.5)


class TestAmbiguityGuard:
    def test_band_gap_raises(self):
        # two real eigenvalue pairs separated by a gap inside (tol, 10 tol)
        gap = 3e-7
        a = np.diag([2.0, 2.0 + gap, 0.5, 1.0 / (2.0 + gap)])
        with pytest.raises(IllConditionedSpectrumError):
            eigen_quadruples(a, DEFAULT_TOL.with_overrides(tol_eig=1e-7))
