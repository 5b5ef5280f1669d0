import numpy as np
import pytest

from sympindex import (CatPath, ConjPath, ConstPath, DEFAULT_TOL,
                       DirectSumPath, ExpPath, HalfInt, LagrangianFrame,
                       NoCrossingError, ProdPath, ReversePath, SampledPath,
                       ShearPath, UnsupportedStructureError, conley_zehnder,
                       cz_dim2_closed_form, evaluate_array, graph_lagrangian,
                       horizontal_frame, lagrangian_crossing_form,
                       lagrangian_rs_index, make_loop, make_shear,
                       omega_matrix, random_symplectic, rs2_index, rs_index,
                       vertical_frame)
from sympindex import sampling
from sympindex.lagrangian import doubled_omega
from sympindex.rs import _rs2


def exp_path(n=1, seed=0, scale=1.0, duration=1.0):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(2 * n, 2 * n)) * scale
    return ExpPath(s_matrix=0.5 * (s + s.T), duration=duration)


class TestClosedForms:
    def test_small_exponential_is_half_signature(self):
        s = np.diag([0.7, 0.3, -0.4, 0.2])
        res = rs_index(ExpPath(s_matrix=s))
        assert res.value == HalfInt(2)  # (3 positive - 1 negative) / 2
        (c,) = res.crossings
        assert c.t == 0.0 and c.weight == 0.5 and c.signature == 2

    def test_degenerate_generator_eigenvalues_ignored(self):
        s = np.diag([0.5, 0.0, -0.3, 0.0])
        assert rs_index(ExpPath(s_matrix=s)).value == HalfInt(0)

    def test_shear_closed_form(self):
        b0 = np.diag([1.0, -2.0])
        b1 = np.diag([-1.0, -2.0])
        res = rs_index(make_shear((b0, b1)))
        # 1/2 Sign B(0) - 1/2 Sign B(1) = 0/2 - (-2)/2 = 1
        assert res.value == HalfInt(2)

    def test_cat_additivity(self):
        s = np.diag([0.7, 0.3])
        a = ExpPath(s_matrix=s, duration=0.5)
        mid = evaluate_array(a, 1.0)
        ts = np.linspace(0.0, 1.0, 17)
        b = SampledPath(times=ts, matrices=tuple(
            mid @ evaluate_array(ExpPath(s_matrix=s, duration=0.5), t)
            for t in ts))
        res = CatPath(parts=(a, b))
        assert rs_index(res).value == rs_index(ExpPath(s_matrix=s)).value


class TestGenericEngine:
    def test_loops_have_index_two_n(self):
        for n in (1, 2):
            for k in (1, 2):
                res = rs_index(make_loop(k, n))
                assert res.value == HalfInt.from_int(2 * k)
                interior = [c for c in res.crossings if 0.0 < c.t < 1.0]
                assert all(c.signature == 2 for c in interior)
                ends = [c for c in res.crossings if c.t in (0.0, 1.0)]
                assert all(c.weight == 0.5 for c in ends)

    def test_plateau_of_identity_counts_zero(self):
        # first third constant at Id, then a crossing-free continuation
        s = np.diag([1.0, -1.0])
        tail = ExpPath(s_matrix=s)
        p = CatPath(parts=(ConstPath(np.eye(2)), tail))
        res = rs_index(p)
        assert res.value == rs_index(tail).value

    def test_agrees_with_conley_zehnder(self):
        for seed in (1, 4, 7):
            p = exp_path(n=2, seed=seed, scale=0.8)
            ts = np.linspace(0.0, 1.0, 65)
            sp = SampledPath(times=ts, matrices=tuple(
                evaluate_array(p, t) for t in ts))
            assert rs_index(sp).value == conley_zehnder(p).value
        # spectral radius 7 >= 2 pi: past the closed form, into the scan
        fast = ExpPath(s_matrix=np.diag([7.0, 7.0]))
        assert rs_index(fast).value == conley_zehnder(fast).value == \
            cz_dim2_closed_form(np.diag([7.0, 7.0]), 1.0) == HalfInt(6)

    def test_constant_identity_path_is_zero(self):
        assert rs_index(ConstPath(np.eye(4))).value == HalfInt(0)


def _turn_hold_return():
    """A full turn, a wobble within 1e-6 of Id, and the turn undone.

    The wobble keeps the whole kernel (dimension 2) over [1/3, 2/3] and its
    sigma_min has a strict grid minimum at t = 1/2.  Wrapped in a reversal,
    so the crossing scan sees the catenation as one path.
    """
    turn = ExpPath(s_matrix=np.diag([2 * np.pi, 2 * np.pi]))
    tiny = ExpPath(s_matrix=np.diag([1e-6, 1e-6]))
    wobble = CatPath(parts=(tiny, ReversePath(inner=tiny)) * 2)
    return CatPath(parts=(turn, wobble, ReversePath(inner=turn)))


class TestScanPlateaus:
    def test_interior_plateau_scores_zero_without_a_search(self, monkeypatch):
        brackets = []
        golden = sampling._golden_min

        def spy(curve, a, b, width):
            brackets.extend(zip(a, b))
            return golden(curve, a, b, width)

        monkeypatch.setattr(sampling, "_golden_min", spy)
        res = rs_index(ReversePath(inner=_turn_hold_return()))
        assert res.value == HalfInt(0)
        assert [(c.t, c.signature) for c in res.crossings] == [(0.0, 2),
                                                              (1.0, -2)]
        near = [t for t, _, flag in res.trace if flag]
        assert min(near) < 0.34 and max(near) > 0.66
        assert not [ab for ab in brackets if 0.33 < ab[1] and ab[0] < 0.67]

    def test_interior_plateau_with_varying_kernel_raises(self):
        # the second summand returns to Id at t = 1/2, inside the plateau
        p = DirectSumPath(parts=(
            _turn_hold_return(),
            ExpPath(s_matrix=np.diag([4 * np.pi, 4 * np.pi]))))
        with pytest.raises(UnsupportedStructureError,
                           match="crossing plateau near t=0.334"):
            rs_index(p)

    def test_full_length_plateau_with_varying_kernel_raises(self):
        # a shear always has a kernel; B(1/2) = 0 doubles it
        shear = ShearPath(b0=np.array([[1.0]]), b1=np.array([[-1.0]]))
        with pytest.raises(UnsupportedStructureError,
                           match="full-length plateau"):
            rs_index(DirectSumPath(parts=(shear,)))


class TestVerticalIndex:
    def test_shear_coincides_with_matrix_index(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            b0 = rng.normal(size=(2, 2))
            b0 = 0.5 * (b0 + b0.T)
            b1 = rng.normal(size=(2, 2))
            b1 = 0.5 * (b1 + b1.T)
            if min(np.min(np.abs(np.linalg.eigvalsh(b0))),
                   np.min(np.abs(np.linalg.eigvalsh(b1)))) < 1e-2:
                continue
            p = make_shear((b0, b1))
            assert rs2_index(p) == rs_index(p).value

    def test_counterexample_separates_the_two_indices(self):
        # lower-triangular flow: vertical subspace is preserved, so the
        # Lagrangian index vanishes while the matrix index does not
        n = 2
        s = np.zeros((2 * n, 2 * n))
        s[:n, :n] = np.eye(n)
        p = ExpPath(s_matrix=s)
        assert rs_index(p).value == HalfInt(n)
        assert rs2_index(p) == HalfInt(0)

    def test_crossing_on_a_junction_is_scored_per_part(self):
        # both parts cross the vertical Lagrangian at the junction t = 1/2;
        # a difference across the kink gave -1/2 instead of 1 - 1/2
        a = ExpPath(s_matrix=np.diag([np.pi, np.pi]))
        b = ProdPath(ExpPath(s_matrix=np.diag([2.0, -5.0])),
                     ConstPath(-np.eye(2)))
        assert (rs2_index(a), rs2_index(b)) == (HalfInt(2), HalfInt(-1))
        res = _rs2(CatPath(parts=(a, b)))
        assert res.value == HalfInt(1)
        assert [(c.t, c.signature) for c in res.crossings] == \
            [(0.0, 1), (0.5, 1), (0.5, -1)]
        assert res.trace == ()


class TestLagrangian:
    def test_localization_of_a_graph(self):
        # graph of t -> (2t - 1) Id against the horizontal Lagrangian
        for n in (1, 2):
            v = horizontal_frame(n)

            def frames(t):
                a = (2.0 * t - 1.0) * np.eye(n)
                f = np.zeros((2 * n, n))
                f[:n] = np.eye(n)
                f[n:] = a
                return LagrangianFrame(f)

            value, reports, _ = lagrangian_rs_index(frames, v)
            assert value == HalfInt.from_int(n)
            (c,) = reports
            assert c.t == pytest.approx(0.5, abs=1e-6)
            assert c.signature == n

    def test_crossing_form_matches_slope(self):
        n = 2
        v = horizontal_frame(n)
        a_dot = np.diag([2.0, 2.0])

        def frames(t):
            f = np.zeros((2 * n, n))
            f[:n] = np.eye(n)
            f[n:] = (2.0 * t - 1.0) * np.eye(n)
            return LagrangianFrame(f)

        q = lagrangian_crossing_form(frames, 0.5, v)
        w = np.linalg.eigvalsh(q)
        assert np.allclose(np.sort(w), np.sort(np.linalg.eigvalsh(a_dot)),
                           atol=1e-5)

    def test_crossing_form_independent_of_complement(self):
        n = 2
        v = vertical_frame(n)
        p = exp_path(n=n, seed=5, scale=0.6)

        def frames(t):
            return evaluate_array(p, t) @ v.frame

        w1 = np.linalg.eigvalsh(lagrangian_crossing_form(frames, 0.0, v))
        rng = np.random.default_rng(0)
        f0 = frames(0.0)
        q0, _ = np.linalg.qr(f0)
        om = -np.asarray(
            np.block([[np.zeros((n, n)), -np.eye(n)],
                      [np.eye(n), np.zeros((n, n))]]))
        w_frame = -om @ q0 + q0 @ rng.normal(size=(n, n)) * 0.2
        w2 = np.linalg.eigvalsh(
            lagrangian_crossing_form(frames, 0.0, v, w_frame=w_frame))
        assert np.allclose(np.sort(w1), np.sort(w2), atol=1e-5)

    def test_no_crossing_raises(self):
        n = 1
        v = vertical_frame(n)
        with pytest.raises(NoCrossingError):
            lagrangian_crossing_form(lambda t: horizontal_frame(n).frame,
                                     0.3, v)

    def test_doubled_layout_matches_index_lists(self):
        for n in (1, 3):
            a = random_symplectic(n, seed=n)
            idx1 = np.concatenate([np.arange(n), np.arange(2 * n, 3 * n)])
            idx2 = np.concatenate([np.arange(n, 2 * n), np.arange(3 * n, 4 * n)])
            omega = np.zeros((4 * n, 4 * n))
            omega[np.ix_(idx1, idx1)] = -omega_matrix(n)
            omega[np.ix_(idx2, idx2)] = omega_matrix(n)
            frame = np.zeros((4 * n, 2 * n))
            frame[idx1, :] = np.eye(2 * n)
            frame[idx2, :] = a
            assert doubled_omega(n).tobytes() == omega.tobytes()
            g = graph_lagrangian(a)
            assert g.frame.tobytes() == frame.tobytes()
            assert g.omega.tobytes() == omega.tobytes()

    def test_graph_cross_check(self):
        # rs_index(psi) equals the index of the graph path against the diagonal
        p = exp_path(n=1, seed=2, scale=0.8)
        n = 1
        diag = LagrangianFrame(
            graph_lagrangian(np.eye(2 * n)).frame,
            omega=graph_lagrangian(np.eye(2 * n)).omega)

        def frames(t):
            g = graph_lagrangian(evaluate_array(p, t))
            return LagrangianFrame(g.frame, omega=g.omega)

        value, _, _ = lagrangian_rs_index(frames, diag)
        assert value == rs_index(
            SampledPath(times=np.linspace(0, 1, 33),
                        matrices=tuple(evaluate_array(p, t)
                                       for t in np.linspace(0, 1, 33)))).value

    def test_naturality_under_constant_conjugation(self):
        p = exp_path(n=2, seed=8, scale=0.7)
        ts = np.linspace(0.0, 1.0, 49)
        sp = SampledPath(times=ts, matrices=tuple(
            evaluate_array(p, t) for t in ts))
        g = random_symplectic(2, seed=6, max_cond=40)
        conj = ConjPath(phi=ConstPath(g), psi=sp)
        assert rs_index(conj).value == rs_index(sp).value
