import numpy as np
import pytest
import scipy.linalg as sla

import sympindex.spectral as spectral
from sympindex import (DEFAULT_TOL, IllConditionedSpectrumError,
                       KreinDegenerateError, direct_sum_many, eigen_quadruples,
                       first_kind_eigenvalues, generalized_eigenspace,
                       j_matrix, krein_form, random_symplectic, rho)
from conftest import krein_degenerate_rotation, unit_jordan_real


def rotation(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def w_minus(n):
    d = np.ones(2 * n) * -1.0
    d[0] = 2.0
    d[n] = 0.5
    return np.diag(d)


def union_find_clusters(values, radius):
    """Pairwise union-find clustering: the reference for ``_cluster``."""
    m = len(values)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(values[i] - values[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


class TestCluster:
    def test_chain_is_one_cluster_ordered_by_smallest_index(self):
        tol = 1e-7
        a, b, c = 2.0, 2.0 + 0.8 * tol, 2.0 + 1.6 * tol
        assert abs(a - c) > tol
        values = np.array([c, 5.0, a, 7.0j, b])
        means, sizes = spectral._cluster(values, tol)
        assert sizes.tolist() == [3, 1, 1]
        assert means[0] == pytest.approx(2.0 + 0.8 * tol, abs=1e-15)
        assert means[1:].tolist() == [5.0, 7.0j]

    def test_matches_union_find(self):
        rng = np.random.default_rng(5)
        radius = 1e-3
        for _ in range(200):
            m = int(rng.integers(1, 17))
            # steps of 0.5 or 1.5 radii along a shuffled walk make chains
            steps = rng.choice([0.5, 1.5], size=m) * radius
            walk = np.cumsum(steps * np.exp(1j * rng.uniform(0, 0.2, m)))
            values = rng.permutation(walk)
            means, sizes = spectral._cluster(values, radius)
            groups = union_find_clusters(values, radius)
            assert sizes.tolist() == [len(g) for g in groups]
            for mean, idx in zip(means, groups):
                assert abs(mean - np.mean(values[idx])) <= 1e-15


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

    @pytest.mark.parametrize("kinds", [(1, -1), (1, 1, -1), (1, 1, 1, -1)])
    def test_mixed_cluster_signature_is_basis_free(self, kinds):
        # the real part of the Hermitian form alone has a signature that
        # depends on the basis of the generalized eigenspace
        phi = 1.3
        a = direct_sum_many([rotation(k * phi) for k in kinds])
        m_plus, m_minus = kinds.count(1), kinds.count(-1)
        lam = np.exp(1j * phi)
        for seed in range(100):
            k = random_symplectic(len(kinds), seed=seed, max_cond=20)
            b = k @ a @ np.linalg.inv(k)
            kd = krein_form(b, lam, multiplicity=len(kinds))
            assert kd.signature == (m_plus, m_minus), seed
            assert abs(rho(b) - lam ** (m_plus - m_minus)) < 1e-8, seed


def krein_cases():
    """Seeded conjugated direct sums, n = 1..4, keyed by a label."""
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    minus_shear = np.array([[-1.0, 1.0], [0.0, -1.0]])
    sums = {
        "one pair": [rotation(0.9)],
        "mixed simple pairs": [rotation(2.1), rotation(-0.4)],
        "double mixed pair": [rotation(1.3), rotation(-1.3), np.diag([2.0, 0.5])],
        "defective -1 block": [rotation(0.6), minus_shear, rotation(-2.5),
                               np.diag([-3.0, -1 / 3.0])],
        "defective +1 block": [shear, rotation(-0.8), rotation(1.9)],
    }
    for seed, (label, blocks) in enumerate(sums.items()):
        n = len(blocks)
        k = random_symplectic(n, seed=40 + seed, max_cond=20)
        yield label, k @ direct_sum_many(blocks) @ np.linalg.inv(k)


class TestKreinRoutes:
    @pytest.mark.parametrize("label,a", list(krein_cases()))
    def test_one_product_matches_krein_form(self, label, a, monkeypatch):
        # simple pairs take the one-product route; only clusters of
        # multiplicity >= 2 may reach krein_form
        calls = []
        original = spectral.krein_form

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "krein_form", counted)
        quads, krein = spectral._spectral_summary(a, DEFAULT_TOL)
        monkeypatch.undo()
        units = [q for q in quads if q.regime == "UnitNonReal"]
        assert units
        assert len(calls) == sum(q.multiplicity > 1 for q in units)
        for q in units:
            lam = q.representative
            ref = krein_form(a, lam, DEFAULT_TOL, multiplicity=q.multiplicity)
            assert krein[lam].signature == ref.signature
            if q.multiplicity == 1:
                assert krein[lam].q_matrix == pytest.approx(ref.q_matrix, abs=1e-9)
            else:
                assert ref.signature == (1, 1)

    def test_degenerate_simple_pair_raises(self):
        a = krein_degenerate_rotation(0.7)
        with pytest.raises(KreinDegenerateError):
            krein_form(a, np.exp(0.7j), multiplicity=1)
        with pytest.raises(KreinDegenerateError):
            rho(a)
        # the same pair is nondegenerate once tol_form is below its form
        assert rho(a, DEFAULT_TOL.with_overrides(tol_form=1e-11)) == \
            pytest.approx(np.exp(0.7j), abs=1e-9)


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

    def test_one_decomposition_per_call(self, monkeypatch):
        # the eigenvalues that eigen_quadruples clusters come from the eig
        # whose eigenvectors give the Krein forms
        calls = []
        for name in ("eig", "eigvals"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *args, name=name, original=original:
                                calls.append(name) or original(*args))
        a = direct_sum_many([rotation(0.7), np.diag([2.0, 0.5])])
        assert rho(a) == pytest.approx(np.exp(0.7j), abs=1e-12)
        assert calls == ["eig"]


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
