import json
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from sympindex import (CatPath, ConjPath, ConstPath, DEFAULT_TOL,
                       DirectSumPath, ExpPath, HalfInt,
                       InternalConsistencyError, LagrangianFrame,
                       NoCrossingError, ProdPath, ReversePath, SampledPath,
                       ShearPath, UnsupportedStructureError, conley_zehnder,
                       cz_dim2_closed_form, direct_sum_many, evaluate_array,
                       evaluate_stack,
                       graph_lagrangian, horizontal_frame, j_matrix,
                       lagrangian_crossing_form, lagrangian_rs_index,
                       make_loop, make_shear, omega_matrix, path_from_json,
                       random_symplectic, rs2_index, rs_index, vertical_frame)
from sympindex import lagrangian, paths
from sympindex.lagrangian import doubled_omega
from sympindex.rs import _rs2
import sympindex.rs as rs_module

DATA = Path(__file__).parent / "data"


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

    def test_direct_sum_of_exponentials_has_exact_forms(self, monkeypatch):
        # a rotation of frequency 7 returns to Id at t = 2 pi / 7; the other
        # block turns back by 4 and has its only crossing at t = 0.  Under a
        # constant conjugator K the generator is K^-T S K^-1, exact too.
        s1, s2 = np.diag([7.0, 7.0]), np.diag([-4.0, -4.0])
        p = DirectSumPath(parts=(ExpPath(s_matrix=s1), ExpPath(s_matrix=s2)))
        k = random_symplectic(2, seed=5, scale=0.3, max_cond=10.0)
        k_inv = np.linalg.inv(k)
        s = direct_sum_many([s1, s2])
        q = ConjPath(phi=ConstPath(k), psi=p)
        s_q = paths._exponential(q).s_matrix
        assert np.allclose(s_q, k_inv.T @ s @ k_inv, rtol=0.0, atol=1e-12)

        def no_quotient(*args):
            raise AssertionError("difference quotient of an exact generator")

        monkeypatch.setattr(paths, "difference_quotient", no_quotient)
        for path, gen in ((p, s), (q, s_q)):
            res = rs_index(path)
            assert res.value == conley_zehnder(path).value == \
                HalfInt.from_int(2)
            assert [(c.t, c.signature) for c in res.crossings] == \
                [(0.0, 0), (pytest.approx(2 * np.pi / 7), 2)]
            for c in res.crossings:
                gamma = c.kernel_basis.T @ gen @ c.kernel_basis
                assert np.array_equal(c.gamma, 0.5 * (gamma + gamma.T))


class TestReferenceFrames:
    @staticmethod
    def _path(seed):
        k = random_symplectic(2, seed=seed, scale=0.3, max_cond=10.0)
        return ConjPath(phi=ConstPath(k), psi=DirectSumPath(parts=(
            ExpPath(s_matrix=np.diag([7.0, 7.0])),
            ExpPath(s_matrix=np.diag([-4.0, -4.0])))))

    def test_frames_are_shared_per_n_and_read_only(self, monkeypatch):
        first = self._path(5)
        values = rs_index(first).value, rs2_index(first)
        frames = rs_module._diagonal(2), rs_module._vertical(2)
        d_invs = [v._darboux_inverse for v in frames]
        for v, d_inv in zip(frames, d_invs):
            for a in (v.frame, v.omega, d_inv):
                assert not a.flags.writeable
            # D^-1 takes the reference to R^m x 0
            lower = (d_inv @ v.frame)[v.m:]
            assert np.abs(lower).max() <= 1e-14

        built, init = [], LagrangianFrame.__post_init__
        monkeypatch.setattr(LagrangianFrame, "__post_init__",
                            lambda self: built.append(self) or init(self))
        second = self._path(6)
        assert (rs_index(second).value, rs2_index(second)) == values
        assert built == []
        for v, again, d_inv in zip(
                frames, (rs_module._diagonal(2), rs_module._vertical(2)),
                d_invs):
            assert again is v and again._darboux_inverse is d_inv


    def test_graph_stack_rows_are_graph_lagrangian_frames(self):
        # one layout: the stacked graphs the Souriau count reads and the
        # frames of graph_lagrangian, the diagonal among them
        path, ts = self._path(5), np.linspace(0.0, 1.0, 7)
        for psi, frame in zip(evaluate_stack(path, ts),
                              rs_module._graphs(path, ts)):
            assert frame.tobytes() == graph_lagrangian(psi).frame.tobytes()
        diagonal = rs_module._diagonal(2)
        assert diagonal.frame.tobytes() == rs_module._graphs(
            ConstPath(np.eye(4)), np.zeros(1))[0].tobytes()
        assert diagonal.omega.tobytes() == doubled_omega(2).tobytes()

    def test_end_determinant_beyond_the_float_range(self):
        # det(psi_1 - Id) is about -e^822: the parity rule reads its sign
        # with no overflow warning
        a, zero = np.diag([300.0, 300.0 / 1.1, 300.0 / 1.2]), np.zeros((3, 3))
        path = ExpPath(s_matrix=np.block([[zero, -a], [-a, zero]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rs_index(path).value == HalfInt(0)


def _turn_hold_return():
    """A full turn, a wobble within 1e-6 of Id, and the turn undone.

    The wobble keeps the whole kernel (dimension 2) over [1/3, 2/3]: every
    sample there is on V, and the Souriau count of each interval between
    them is 0.  Wrapped in a reversal, so the catenation is one path.
    """
    turn = ExpPath(s_matrix=np.diag([2 * np.pi, 2 * np.pi]))
    tiny = ExpPath(s_matrix=np.diag([1e-6, 1e-6]))
    wobble = CatPath(parts=(tiny, ReversePath(inner=tiny)) * 2)
    return CatPath(parts=(turn, wobble, ReversePath(inner=turn)))


class TestScanPlateaus:
    """A run of samples on V joined by intervals of Souriau count 0 is a
    plateau: it scores 0, and only its ends are reported, half each, with
    the one-sided form of the part outside it."""

    def test_interior_plateau_scores_zero_without_a_search(self, monkeypatch):
        counted = []
        counts = lagrangian._doubled_counts

        def spy(lam, on):
            counted.append(len(lam))
            return counts(lam, on)

        monkeypatch.setattr(lagrangian, "_doubled_counts", spy)
        res = rs_index(ReversePath(inner=_turn_hold_return()))
        assert res.value == HalfInt(0)
        assert [(c.t, c.signature, c.weight) for c in res.crossings] == [
            (0.0, 2, 0.5), (pytest.approx(1 / 3), 2, 0.5),
            (pytest.approx(2 / 3), -2, 0.5), (1.0, -2, 0.5)]
        inside = [phase for t, phase in res.trace if 0.34 < t < 0.66]
        assert len(inside) > 10 and np.ptp(inside) < 1e-4
        # the trace is counted once, and no interval is searched
        assert counted == [len(res.trace)]

    @pytest.mark.parametrize("times,mats", [
        # V from 0 to 1 - 4e-6, off the last grid sample 63/64
        ((0.0, 1.0 - 4e-6, 1.0),
         (np.eye(2), np.eye(2), sla.expm(0.01 * j_matrix(1)))),
        # V on [0.945124, 0.966764] around the one grid sample 61/64
        ((0.0, 0.945124, 0.966764, 1.0),
         (sla.expm(0.1 * j_matrix(1)), np.eye(2), np.eye(2),
          sla.expm(-0.1 * j_matrix(1)))),
    ])
    def test_plateau_ending_inside_a_cell(self, times, mats):
        # a callable hides the junctions, so the plateau's ends are found
        # by splitting the cells where its one-sided forms are 0
        p = SampledPath(times=times, matrices=mats)
        v = vertical_frame(1)
        value, reports, _ = lagrangian_rs_index(
            lambda t: evaluate_array(p, t) @ v.frame, v)
        assert value == rs2_index(p)
        if len(times) == 3:
            assert value == HalfInt(1)
        # each end is scored near where V is left or reached
        assert np.allclose([r.t for r in reports], times[1:-1], atol=1e-4)

    def test_interior_plateau_with_varying_kernel_raises(self):
        # the second summand returns to Id at t = 1/2, inside the plateau
        p = DirectSumPath(parts=(
            _turn_hold_return(),
            ExpPath(s_matrix=np.diag([4 * np.pi, 4 * np.pi]))))
        with pytest.raises(UnsupportedStructureError,
                           match="crossing plateau near t=0.484"):
            rs_index(p)

    def test_full_length_plateau_with_varying_kernel_raises(self):
        # a shear always has a kernel; B(1/2) = 0 doubles it
        shear = ShearPath(b0=np.array([[1.0]]), b1=np.array([[-1.0]]))
        with pytest.raises(UnsupportedStructureError,
                           match="varying kernel dimension"):
            rs_index(DirectSumPath(parts=(shear,)))


def _vertical_closed_form(s) -> int:
    """Doubled rs2 of exp(t J0 diag(a, b)) on [0, 1]: for ab > 0 the
    vertical line turns at frequency sqrt(ab) and meets itself at
    t = k pi / sqrt(ab) with form sign b, half of it at t = 0; for ab < 0
    only at t = 0."""
    a, b = np.diag(s)
    sign = 1 if b > 0 else -1
    if a * b < 0:
        return sign
    return sign * (1 + 2 * int(np.floor(np.sqrt(a * b) / np.pi)))


class TestSouriauCount:
    """The index is the Souriau count of one winding of det W, returned
    only when the crossing forms at the crossings it locates sum to it."""

    def test_interior_plateau_keeps_the_forms_at_its_ends(self):
        # the path enters Id with form 2 pi Id and leaves it with form Id
        i2 = np.eye(2)
        b = CatPath(parts=(ExpPath(s_matrix=2 * np.pi * i2), ConstPath(i2),
                           ExpPath(s_matrix=i2)))
        assert [rs_index(p).value for p in (
            b, ProdPath(b, ConstPath(i2)), ReversePath(inner=b))] == \
            [HalfInt.from_int(3), HalfInt.from_int(3), HalfInt.from_int(-3)]

    def test_nested_junction_is_scored_per_side(self):
        # both parts cross the vertical Lagrangian at the junction t = 1/2,
        # also when the catenation sits inside another node
        c = CatPath(parts=(
            ExpPath(s_matrix=np.diag([np.pi, np.pi])),
            ProdPath(ExpPath(s_matrix=np.diag([2.0, -5.0])),
                     ConstPath(-np.eye(2)))))
        for p in (c, ProdPath(c, ConstPath(np.eye(2))),
                  ReversePath(inner=ReversePath(inner=c))):
            res = _rs2(p)
            assert res.value == rs2_index(p) == HalfInt(1)
            assert [(c.t, c.signature, c.weight) for c in res.crossings] == \
                [(0.0, 1, 0.5), (0.5, 1, 0.5), (0.5, -1, 0.5)]

    def test_near_pair_is_counted_and_located(self):
        # n = 8, conjugated sum of diagonal blocks: two vertical crossings
        # 5.7e-4 apart, less than a cell of a 512-point grid
        obj = json.loads((DATA / "near_pair_path.json").read_text())
        path = path_from_json(obj)
        blocks = [np.array(part["S"]) for part in obj["path"]["psi"]["parts"]]
        assert rs_index(path).value == sum(
            (cz_dim2_closed_form(b, 1.0) for b in blocks), HalfInt(0))
        res = _rs2(path)
        assert res.value == HalfInt(sum(_vertical_closed_form(b)
                                        for b in blocks))
        pair = [c.t for c in res.crossings if 0.538 < c.t < 0.540]
        assert len(pair) == 2 and pair[1] - pair[0] > 5e-4

    def test_plateau_ending_next_to_the_end_has_a_one_sided_form(self):
        # Id until 4e-6 before the end, then a small turn: the one-sided
        # forms at the end of the plateau fit their stencil into [t1, 1]
        t1 = 1.0 - 4e-6
        turn = evaluate_array(ExpPath(s_matrix=0.01 * np.eye(2)), 1.0)
        p = SampledPath(times=np.array([0.0, t1, 1.0]),
                        matrices=(np.eye(2), np.eye(2), turn))
        for res, value in ((rs_index(p), HalfInt.from_int(1)),
                           (_rs2(p), HalfInt(1))):
            assert res.value == value
            assert [(c.t, c.weight) for c in res.crossings] == \
                [(pytest.approx(t1), 0.5)]
            gamma = res.crossings[0].gamma
            assert np.allclose(gamma, 0.01 / 4e-6 * np.eye(len(gamma)),
                               rtol=1e-6)

    def test_forms_that_miss_the_count_raise(self, monkeypatch):
        monkeypatch.setattr(lagrangian, "_signature",
                            lambda gamma, tol_form: (0, True))
        with pytest.raises(InternalConsistencyError,
                           match="Souriau count 3 but the crossing forms "
                                 "sum to 0"):
            rs_index(ExpPath(s_matrix=np.diag([7.0, 7.0])))

    def test_a_count_off_by_one_breaks_the_parity_rule(self, monkeypatch):
        # exp(t J0 diag(7, 7)) has index 3; a count that is off by two keeps
        # the parity, and the rule cannot see it
        count = rs_module._souriau_index

        def shifted_count(shift, *args):
            value, reports, trace = count(*args)
            return value + HalfInt.from_int(shift), reports, trace

        path = ExpPath(s_matrix=np.diag([7.0, 7.0]))
        monkeypatch.setattr(rs_module, "_souriau_index",
                            partial(shifted_count, 1))
        with pytest.raises(InternalConsistencyError, match="parity rule"):
            rs_index(path)
        monkeypatch.setattr(rs_module, "_souriau_index",
                            partial(shifted_count, 2))
        assert rs_index(path).value == HalfInt.from_int(5)


def _lagrangian_frames(rng, m: int, count: int):
    """``count`` frames [Re U; Im U] G of random Lagrangians, U unitary and
    G a frame change of condition number 1e3, with the angles of U U^T."""
    frames, angles = [], []
    for _ in range(count):
        u = np.linalg.qr(rng.normal(size=(m, m))
                         + 1j * rng.normal(size=(m, m)))[0]
        g = (np.linalg.qr(rng.normal(size=(m, m)))[0]
             @ np.diag(np.logspace(0, -3, m))
             @ np.linalg.qr(rng.normal(size=(m, m)))[0])
        frames.append(np.vstack([u.real, u.imag]) @ g)
        angles.append(np.angle(np.linalg.eigvals(u @ u.T)))
    return np.array(frames), np.array(angles)


def _spy_qr(monkeypatch) -> list:
    """The number of frames of each np.linalg.qr call from now on: the
    complex-eig fallback rows of ``_souriau_angles``."""
    calls, qr = [], np.linalg.qr

    def spy(a, *args, **kwargs):
        calls.append(len(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    return calls


class TestSouriauAngles:
    """The angles of W are 2 arctan of the eigenvalues of S = Y X^-1, and
    the complex eig of U U^T where W has an eigenvalue near -1."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_cayley_angles_match_the_complex_eig(self, monkeypatch, m):
        frames, angles = _lagrangian_frames(np.random.default_rng(m), m, 40)
        fallback = _spy_qr(monkeypatch)
        lam = lagrangian._souriau_angles(frames)
        assert np.max(np.abs(np.sort(lam) - np.sort(angles))) < 1e-12
        # only rows with an angle near pi take the complex eig
        near_pi = np.max(np.abs(angles), axis=1) > np.pi - 2.1e-3
        assert sum(fallback) <= np.count_nonzero(near_pi)

    def test_angle_near_pi_takes_the_complex_eig(self, monkeypatch):
        # W = O diag(e^{i theta}) O^T for the frame [O cos(theta/2);
        # O sin(theta/2)]; a second row has its angles away from pi
        rng = np.random.default_rng(5)
        o = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        g = rng.normal(size=(3, 3))
        rows = [np.array([np.pi - 1e-9, 1e-9, -1e-9]),
                np.array([2.0, 1e-9, -1.0])]
        frames = np.array([np.vstack([o * np.cos(th / 2), o * np.sin(th / 2)])
                           @ g for th in rows])
        fallback = _spy_qr(monkeypatch)
        lam = lagrangian._souriau_angles(frames)
        assert fallback == [1]
        for got, want in zip(lam, rows):
            assert np.allclose(np.sort(got), np.sort(want), rtol=0, atol=1e-12)
        # 2 arctan of the eigenvalues of S would miss the small angles of
        # the first row, where max |s| is about 2e9
        s = np.linalg.solve(frames[0][:3].T, frames[0][3:].T)
        s = np.linalg.eigvalsh(0.5 * (s + s.T))
        assert np.max(np.abs(s)) > lagrangian.CAYLEY_MAX
        assert np.max(np.abs(2 * np.arctan(s[:2]) - [-1e-9, 1e-9])) > 1e-9

    def test_singular_x_takes_the_complex_eig(self, monkeypatch):
        # psi_t = J0 [[Id, B(t)], [0, Id]] with B affine from -Id to Id:
        # psi_{1/2} = J0 maps the vertical onto the horizontal at a sample
        # of the grid, where X is exactly 0; the evolved vertical
        # [-Id; B(t)] never meets the vertical
        raised = []
        solve = np.linalg.solve

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                raised.append(len(a))
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        res = _rs2(ProdPath(ConstPath(j_matrix(2)),
                            ShearPath(b0=-np.eye(2), b1=np.eye(2))))
        assert raised
        assert res.value == HalfInt(0)
        assert res.crossings == ()
        assert len(res.trace) == 65


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

    def test_forms_from_the_generator_match_the_difference_quotient(
            self, monkeypatch):
        path = path_from_json(json.loads(
            (DATA / "near_pair_path.json").read_text()))
        souriau, pairs = rs_module._souriau_index, []

        def spy(frame_stack, v, tol, form_at, junctions=()):
            def both(t, k, side):
                kernel, gamma = form_at(t, k, side)
                quotient = lagrangian._crossing_form(
                    frame_stack, t, v, tol, side=side, k=k)[1]
                pairs.append((np.linalg.eigvalsh(gamma),
                              np.linalg.eigvalsh(quotient)))
                return kernel, gamma
            return souriau(frame_stack, v, tol, both, junctions)

        monkeypatch.setattr(rs_module, "_souriau_index", spy)
        _rs2(path)
        assert len(pairs) > 2
        for got, want in pairs:
            assert np.allclose(got, want, rtol=0,
                               atol=1e-9 * np.max(np.abs(want)))

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
        # the Souriau winding samples the junction
        assert res.trace[0] == (0.0, 0.0) and res.trace[-1][0] == 1.0
        assert 0.5 in [t for t, _ in res.trace]


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
