import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sympindex.spectral as spectral
from sympindex import (DEFAULT_TOL, ContractError, ExpPath,
                       IllConditionedSpectrumError, KreinDegenerateError,
                       SympindexError, direct_sum_many, eigen_quadruples,
                       evaluate_array, first_kind_eigenvalues,
                       generalized_eigenspace, j_matrix, krein_form,
                       normal_form, omega_matrix, random_symplectic, rho,
                       symplectic_residual)
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


def cluster_row(values, radius):
    """``_cluster`` of one row of valid values: its components' means and
    sizes, in the order of their smallest indices."""
    means, sizes = spectral._cluster(values[None], np.ones((1, len(values)), bool),
                                     radius)
    roots = sizes[0] > 0
    return means[0][roots], sizes[0][roots]


class TestCluster:
    def test_chain_is_one_cluster_ordered_by_smallest_index(self):
        tol = 1e-7
        a, b, c = 2.0, 2.0 + 0.8 * tol, 2.0 + 1.6 * tol
        assert abs(a - c) > tol
        values = np.array([c, 5.0, a, 7.0j, b])
        means, sizes = cluster_row(values, tol)
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
            means, sizes = cluster_row(values, radius)
            groups = union_find_clusters(values, radius)
            assert sizes.tolist() == [len(g) for g in groups]
            for mean, idx in zip(means, groups):
                assert abs(mean - np.mean(values[idx])) <= 1e-15

    def test_rows_cluster_on_their_own(self):
        # a stack clusters each row's valid prefix as that prefix alone,
        # bitwise, whatever the other rows and the padding hold
        rng = np.random.default_rng(8)
        radius = 1e-3
        for _ in range(50):
            k, m = 5, int(rng.integers(1, 17))
            steps = rng.choice([0.5, 1.5], size=(k, m)) * radius
            values = rng.permuted(np.cumsum(steps, axis=1) + 0.3j, axis=1)
            counts = rng.integers(0, m + 1, size=k)
            valid = np.arange(m) < counts[:, None]
            means, sizes = spectral._cluster(values, valid, radius)
            assert not sizes[~valid].any()
            for row in range(k):
                roots = sizes[row] > 0
                ref_means, ref_sizes = cluster_row(values[row, :counts[row]], radius)
                assert sizes[row][roots].tolist() == ref_sizes.tolist()
                assert means[row][roots].tobytes() == ref_means.tobytes()


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
        # at hyperbolic rate 15 the computed eigenvalue e^-15 is off by about
        # cond * eps relative; the partner is derived from e^15 instead
        end = evaluate_array(ExpPath(s_matrix=np.diag([15.0, -15.0])), 1.0)
        (q,) = eigen_quadruples(end)
        lam = q.representative
        assert q.regime == "RealPositive"
        assert lam == pytest.approx(np.exp(15.0), rel=1e-9)
        assert q.members == (lam, 1.0 / lam.real)
        assert np.copysign(1.0, q.members[1].imag) == 1.0

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

    def test_nullspace_of_a_wide_matrix_counts_its_column_excess(self):
        # rank 1 with three columns: a kernel of dimension 2
        m = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        kernel = spectral._nullspace(m)
        assert kernel.shape == (3, 2)
        assert np.linalg.norm(m @ kernel) < 1e-12

    @staticmethod
    def defective_real_and_unit():
        # a Jordan chain of order 2 at 2 and its inverse-transpose, and a
        # rotation by 0.9, conjugated
        jordan = np.array([[2.0, 1.0], [0.0, 2.0]])
        zero = np.zeros((2, 2))
        a = direct_sum_many([np.block([[jordan, zero],
                                       [zero, np.linalg.inv(jordan).T]]),
                             rotation(0.9)])
        k = random_symplectic(3, seed=2, scale=0.3, max_cond=20)
        assert symplectic_residual(a) < 1e-12
        return k @ a @ np.linalg.inv(k)

    def test_real_eigenvalue_gives_a_real_basis(self):
        a = self.defective_real_and_unit()
        basis = generalized_eigenspace(a, 2.0, multiplicity=2)
        assert basis.dtype == np.float64 and basis.shape == (6, 2)
        assert np.linalg.norm(basis.T @ basis - np.eye(2)) < 1e-12
        # the same space as the basis a complex lam gives
        ref = generalized_eigenspace(a, 2.0 + 0.0j, multiplicity=2)
        assert ref.dtype == np.complex128
        assert np.linalg.norm(basis @ basis.T - ref @ ref.conj().T) < 1e-8
        p = a - 2.0 * np.eye(6)
        assert np.linalg.norm(p @ p @ basis) < 1e-8 * np.linalg.norm(a) ** 2

    def test_complex_eigenvalue_gives_a_complex_basis(self):
        a = self.defective_real_and_unit()
        lam = np.exp(0.9j)
        basis = generalized_eigenspace(a, lam, multiplicity=1)
        assert basis.dtype == np.complex128 and basis.shape == (6, 1)
        assert np.linalg.norm(a @ basis - lam * basis) < 1e-8 * np.linalg.norm(a)

    @pytest.mark.parametrize("lam", [1.3, 1.3 + 0.0j])
    def test_non_eigenvalue_fails_the_invariance_check(self, lam):
        a = self.defective_real_and_unit()
        with pytest.raises(IllConditionedSpectrumError, match="not invariant"):
            generalized_eigenspace(a, lam, multiplicity=1)

    @pytest.mark.parametrize("multiplicity", [None, 2])
    def test_overflowing_power_is_ill_conditioned(self, multiplicity):
        # (A - 1e200)^2 has entries 1e400: LAPACK's SVD of the infinite
        # matrix did not return
        a = np.diag([1e200, 1e200, 1e-200, 1e-200])
        with pytest.raises(IllConditionedSpectrumError, match="overflows"):
            generalized_eigenspace(a, 1e200, multiplicity=multiplicity)
        with pytest.raises(IllConditionedSpectrumError, match="overflows"):
            normal_form(a)


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
        s = spectral._spectral_summary(a[None], DEFAULT_TOL)
        monkeypatch.undo()
        units = np.flatnonzero((s.mults[0] > 0) & (s.codes[0] == spectral._UNIT))
        assert units.size
        assert len(calls) == np.count_nonzero(s.mults[0, units] > 1)
        for j in units:
            lam, mult = complex(s.reps[0, j]), int(s.mults[0, j])
            ref = krein_form(a, lam, DEFAULT_TOL, multiplicity=mult)
            assert (s.plus[0, j], s.minus[0, j]) == ref.signature
            if mult == 1:
                assert s.forms[0, j] == pytest.approx(ref.q_matrix[0, 0], abs=1e-9)
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


def off_circle(r, theta):
    """A complex quadruple r e^{+-i theta}, 1/r e^{+-i theta} (n = 2)."""
    b = r * rotation(theta)
    return np.block([[b, np.zeros((2, 2))], [np.zeros((2, 2)), np.linalg.inv(b).T]])


def mixed_stack(n, seed):
    """Seeded 2n x 2n matrices of every regime, conjugated or not, shuffled:
    Id, -Id, W-, rotation + hyperbolic, a unit pair of multiplicity 2 with
    signature (1, 1), an off-circle quadruple and random symplectic ones."""
    rest = [rotation(0.4 + 0.3 * i) for i in range(n - 2)]
    mats = [np.eye(2 * n), -np.eye(2 * n), w_minus(n),
            direct_sum_many([rotation(0.8), np.diag([2.0, 0.5])] + rest),
            direct_sum_many([rotation(1.3), rotation(-1.3)] + rest),
            direct_sum_many([off_circle(1.7, 0.6)] + rest)]
    mats += [random_symplectic(n, seed=seed + i) for i in range(3)]
    rng = np.random.default_rng(seed)
    out = []
    for a in mats:
        if rng.random() < 0.5:
            k = random_symplectic(n, seed=seed + 100, max_cond=20)
            a = k @ a @ np.linalg.inv(k)
        out.append(a)
    return np.array([out[i] for i in rng.permutation(len(out))])


def first_error(mats, fn=rho):
    """(row, type, message) of the first matrix that ``fn`` rejects."""
    for row, a in enumerate(mats):
        try:
            fn(a)
        except SympindexError as exc:
            return row, type(exc), str(exc)
    return None


def scalar_cluster(values, radius):
    """One matrix's clustering as a loop-free scalar reference: the
    component means and sizes in the order of their smallest indices."""
    m = len(values)
    adjacent = np.abs(values[:, None] - values[None, :]) <= radius
    if np.count_nonzero(adjacent) == m:
        return values, np.ones(m, dtype=int)
    index = np.arange(m)
    labels = index
    while True:
        spread = np.where(adjacent, labels, m).min(axis=1)
        if (spread == labels).all():
            break
        labels = spread
    members = labels == index[labels == index, None]
    sizes = np.count_nonzero(members, axis=1)
    return members @ values / sizes, sizes


def scalar_rho(a, tol=DEFAULT_TOL):
    """rho and the first-kind eigenvalues of one matrix, quadruple by
    quadruple in Python scalars: the reference for the array routes."""
    n = a.shape[0] // 2
    tol_eig = tol.tol_eig
    evals, evecs = np.linalg.eig(a)
    if symplectic_residual(a) > tol.tol_symp:
        raise ContractError("eigen_quadruples requires a symplectic matrix")
    if not np.all(evals):
        raise IllConditionedSpectrumError("an eigenvalue rounds to zero")
    means, mults = scalar_cluster(evals[np.abs(evals) >= 1.0 - 10 * tol_eig], tol_eig)
    snapped = spectral._snap(means, 10 * tol_eig)
    gaps = np.abs(means[:, None] - means[None, :])
    apart = np.abs(snapped[:, None] - snapped[None, :])
    band = (gaps > tol_eig) & (gaps <= 10 * tol_eig) & (apart > tol_eig)
    if np.count_nonzero(band):
        i, j = np.argwhere(band)[0]
        raise IllConditionedSpectrumError(
            f"cluster gap {gaps[i, j]:.3e} inside the ambiguity band "
            f"({tol_eig:.1e}, {10 * tol_eig:.1e})")
    if np.count_nonzero(apart <= tol_eig * np.maximum(1.0, np.abs(snapped))) > len(snapped):
        snapped, mults = spectral._merge_clouds(snapped, mults, tol_eig)
    quads = [spectral.EigenQuadruple(rep, mult)
             for rep, mult in zip(snapped.tolist(), mults.tolist()) if rep.imag >= 0.0]
    total = sum(q.total_multiplicity for q in quads)
    if total != 2 * n:
        raise IllConditionedSpectrumError(
            f"quadruple multiplicities sum to {total}, expected {2 * n}")
    signature = {}
    for q in quads:
        lam = q.representative
        if q.regime != "UnitNonReal":
            continue
        near = np.abs(evals - lam) <= 10 * tol_eig
        if near.sum() == 1 and q.multiplicity == 1:
            v = evecs[:, near.argmax()][:, None]
            form = np.diag(spectral._krein_matrix(v, omega_matrix(n))).real[0]
            if abs(form) <= tol.tol_form:
                raise spectral._krein_degenerate(lam / abs(lam), abs(form))
            signature[lam] = (int(form > 0), int(form < 0))
        else:
            signature[lam] = krein_form(a, lam, tol, multiplicity=q.multiplicity).signature
    m_minus, value = 0, 1.0 + 0.0j
    for q in quads:
        if q.regime == "RealNegative":
            m_minus += 2 * q.multiplicity
        elif q.regime == "MinusOne":
            m_minus += q.multiplicity
        elif q.regime == "UnitNonReal":
            r, s = signature[q.representative]
            value *= q.representative ** r * np.conj(q.representative) ** s
    if m_minus % 2 != 0:
        raise IllConditionedSpectrumError("negative-real multiplicity is odd")
    value *= (-1.0) ** (m_minus // 2)
    value = complex(value) / abs(complex(value))
    first = []
    for q in quads:
        rep, m = q.representative, q.multiplicity
        if q.regime in ("PlusOne", "MinusOne"):
            if m % 2 != 0:
                raise IllConditionedSpectrumError(
                    f"eigenvalue {rep} has odd multiplicity {m}")
            first += [rep] * (m // 2)
        elif q.regime == "UnitNonReal":
            r, s = signature[rep]
            first += [rep] * r + [np.conj(rep)] * s
        else:
            first += [z for z in q.members if abs(z) < 1 for _ in range(m)]
    if len(first) != n:
        raise IllConditionedSpectrumError(
            f"selected {len(first)} first-kind eigenvalues, expected {n}")
    prod = 1.0 + 0.0j
    for z in first:
        prod *= complex(z) / abs(complex(z))
    prod /= abs(prod)
    if abs(value - prod) > 1e-9:
        raise IllConditionedSpectrumError(
            f"rho routes disagree: {value:.12g} vs {prod:.12g}")
    return value, first


def outcome(fn, *args):
    """A value as the bits of its complex entries, or an error's type and text."""
    try:
        value = fn(*args)
    except SympindexError as exc:
        return type(exc), str(exc)
    return [(z.real.hex(), z.imag.hex()) for z in map(complex, np.ravel(value))]


class TestScalarReference:
    @pytest.mark.parametrize("factor", [1.0, 0.05, 20.0, 0.0025, 400.0])
    def test_array_routes_equal_the_scalar_loop_bitwise(self, factor):
        tol = DEFAULT_TOL.with_overrides(tol_eig=factor * DEFAULT_TOL.tol_eig)
        mats = [a for n, seed in [(2, 0), (3, 2)] for a in mixed_stack(n, seed)]
        mats += [a for _, a in krein_cases()]
        mats += [random_symplectic(n, seed=seed, scale=0.5 + 0.3 * (seed % 5))
                 for n in (1, 2, 3, 4) for seed in range(8)]
        mats += [unit_jordan_real(0.7, 3), krein_degenerate_rotation(0.7),
                 np.diag([2.0, 2.0 + 3e-7, 0.5, 1.0 / (2.0 + 3e-7)]),
                 np.diag([-3.0, 2.0, -1 / 3.0, 0.5]), 2.0 * np.eye(2)]
        for a in mats:
            ref = outcome(lambda a: scalar_rho(a, tol)[0], a)
            assert outcome(rho, a, tol) == ref
            assert outcome(first_kind_eigenvalues, a, tol) == outcome(
                lambda a: scalar_rho(a, tol)[1], a)


class TestStackedRho:
    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 1), (3, 2), (4, 3)])
    def test_rows_equal_one_matrix_at_a_time(self, n, seed):
        stack = mixed_stack(n, seed)
        values = rho(stack)
        singles = [rho(a) for a in stack]
        assert values.shape == (len(stack),)
        assert values.tobytes() == np.array(singles).tobytes()
        reps, mults = eigen_quadruples(stack)
        for row, a in enumerate(stack):
            quads = eigen_quadruples(a)
            keep = mults[row] > 0
            assert mults[row][keep].tolist() == [q.multiplicity for q in quads]
            assert reps[row][keep].tolist() == [q.representative for q in quads]

    def test_a_matrix_is_a_stack_of_one(self):
        a = direct_sum_many([rotation(0.7), np.diag([2.0, 0.5])])
        value = rho(a)
        assert type(value) is complex
        assert rho(a[None]).tolist() == [value]

    def test_one_eig_and_one_clustering_pass_per_stack(self, monkeypatch):
        calls = []
        for name in ("eig", "eigvals"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *args, name=name, original=original:
                                calls.append(name) or original(*args))
        original_eq = spectral.eigen_quadruples

        def counted(*args, **kwargs):
            calls.append("eigen_quadruples")
            return original_eq(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigen_quadruples", counted)
        rho(mixed_stack(2, 5))
        assert calls == ["eig", "eigen_quadruples"]

    def test_only_multiple_unit_clusters_reach_krein_form(self, monkeypatch):
        calls = []
        original = spectral.krein_form
        monkeypatch.setattr(spectral, "krein_form",
                            lambda *args, **kwargs: calls.append(1) or
                            original(*args, **kwargs))
        stack = mixed_stack(3, 4)
        rho(stack)
        # the unit pair of multiplicity 2 sits in one matrix of the stack
        assert len(calls) == 1

    @pytest.mark.parametrize("bad,error", [
        (krein_degenerate_rotation(0.7), KreinDegenerateError),
        (np.diag([2.0, 2.0 + 3e-7, 0.5, 1.0 / (2.0 + 3e-7)]),
         IllConditionedSpectrumError),
    ])
    def test_a_failing_row_raises_its_own_error(self, bad, error):
        if bad.shape[0] == 2:
            bad = direct_sum_many([bad, np.diag([2.0, 0.5])])
        good = direct_sum_many([rotation(0.3), rotation(1.1)])
        stack = np.array([good, good, bad, good, bad])
        with pytest.raises(error) as info:
            rho(stack)
        with pytest.raises(error) as single:
            rho(bad)
        assert str(info.value) == str(single.value)
        assert info.value.row == 2


def structured(draw, n):
    """A direct sum of n blocks of every regime, maybe conjugated."""
    blocks = []
    for _ in range(n):
        kind = draw(st.sampled_from(["rotation", "hyperbolic", "minus", "id",
                                     "shear", "minus shear", "degenerate"]))
        if kind == "rotation":
            blocks.append(rotation(draw(st.floats(-3.2, 3.2))))
        elif kind == "hyperbolic":
            x = draw(st.floats(1.01, 20.0)) * draw(st.sampled_from([1.0, -1.0]))
            blocks.append(np.diag([x, 1.0 / x]))
        elif kind == "minus":
            blocks.append(-np.eye(2))
        elif kind == "id":
            blocks.append(np.eye(2))
        elif kind == "shear":
            blocks.append(np.array([[1.0, draw(st.floats(-2.0, 2.0))], [0.0, 1.0]]))
        elif kind == "minus shear":
            blocks.append(np.array([[-1.0, 1.0], [0.0, -1.0]]))
        else:
            blocks.append(krein_degenerate_rotation(draw(st.floats(0.1, 3.0))))
    a = direct_sum_many(blocks)
    if draw(st.booleans()):
        k = random_symplectic(n, seed=draw(st.integers(0, 10_000)), max_cond=50)
        a = k @ a @ np.linalg.inv(k)
    return a


@st.composite
def spectral_inputs(draw):
    """A matrix or a stack of up to four, symplectic or not: finite random
    entries, seeded random symplectic matrices or structured direct sums."""
    n = draw(st.integers(1, 3))
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "symplectic", "structured"]))
        if kind == "random":
            mats.append(draw(arrays(float, (2 * n, 2 * n),
                                    elements=st.floats(-1e300, 1e300))))
        elif kind == "symplectic":
            mats.append(random_symplectic(n, seed=draw(st.integers(0, 10_000)),
                                          scale=draw(st.floats(0.1, 2.0))))
        else:
            mats.append(structured(draw, n))
    if len(mats) == 1 and draw(st.booleans()):
        return mats[0]
    return np.array(mats)


class TestTypedFailures:
    @settings(max_examples=150, deadline=None)
    @given(spectral_inputs())
    def test_entry_points_fail_only_typed(self, a):
        # warnings are errors in this suite, so a warning escapes untyped too
        for fn in (rho, first_kind_eigenvalues, eigen_quadruples):
            try:
                fn(a)
            except SympindexError:
                pass
        if a.ndim == 2:
            return
        for fn in (rho, eigen_quadruples):
            failure = first_error(a, fn)
            try:
                fn(a)
            except SympindexError as exc:
                # a stack fails when one of its matrices does, and the
                # matrix its error names fails alone with that error
                assert failure is not None
                with pytest.raises(SympindexError) as info:
                    fn(a[exc.row])
                assert (type(info.value), str(info.value)) == \
                    (type(exc), str(exc))
            else:
                assert failure is None
        if first_error(a) is None:
            assert rho(a).tobytes() == np.array([rho(m) for m in a]).tobytes()

    def test_non_symplectic_stack_is_a_contract_error(self):
        with pytest.raises(ContractError):
            rho(np.array([np.eye(2), 2.0 * np.eye(2)]))
        with pytest.raises(ContractError):
            eigen_quadruples(np.array([np.eye(2), 2.0 * np.eye(2)]))
