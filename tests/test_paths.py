import numpy as np
import pytest
import scipy.linalg as sla

import sympindex
from sympindex import (CatPath, ConjPath, ConstPath, ContractError,
                       DimensionError, DirectSumPath, ExpPath, LoopPath,
                       ParameterError, ProdPath, ReversePath, SampledPath,
                       SamplingError, ShearPath, direct_sum_many, evaluate,
                       evaluate_array, evaluate_stack, generator, j_matrix,
                       junction_parameters, make_loop, make_shear,
                       path_from_json, path_to_json, random_symplectic,
                       symplectic_residual)
from sympindex import paths
from sympindex.cz import _Extension
from sympindex.tolerances import DEFAULT_TOL


def exp_path(n=1, seed=0, duration=1.0):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(2 * n, 2 * n))
    return ExpPath(s_matrix=0.5 * (s + s.T), duration=duration)


class TestNodes:
    def test_const_path_is_constant_and_checked(self):
        a = random_symplectic(1, seed=3)
        p = ConstPath(a)
        assert np.array_equal(evaluate_array(p, 0.0), evaluate_array(p, 0.7))
        with pytest.raises(ParameterError):
            ConstPath(np.diag([2.0, 2.0]))

    def test_exp_path_values(self):
        p = exp_path(seed=1)
        assert np.allclose(evaluate_array(p, 0.0), np.eye(2))
        t = 0.63
        expect = sla.expm(t * j_matrix(1) @ p.s_matrix)
        assert np.allclose(evaluate_array(p, t), expect, atol=1e-12)

    def test_exp_path_rejects_asymmetric_generator(self):
        with pytest.raises(ParameterError):
            ExpPath(s_matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sampled_path_hits_samples_and_stays_symplectic(self):
        base = exp_path(n=2, seed=4)
        times = np.linspace(0.0, 1.0, 9)
        mats = tuple(evaluate_array(base, t) for t in times)
        p = SampledPath(times=times, matrices=mats)
        for t, m in zip(times, mats):
            assert np.allclose(evaluate_array(p, t), m, atol=1e-10)
        for t in (0.13, 0.5, 0.99):
            assert symplectic_residual(evaluate_array(p, t)) < 1e-8

    def test_sampled_path_step_validation(self):
        far = np.diag([40.0, 1 / 40.0])
        with pytest.raises(SamplingError):
            SampledPath(times=np.array([0.0, 1.0]),
                        matrices=(np.eye(2), far))
        with pytest.raises(ParameterError):
            SampledPath(times=np.array([0.0, 0.5]),
                        matrices=(np.eye(2), np.eye(2)))

    def test_cat_junction_mismatch_rejected(self):
        a = exp_path(seed=1)
        b = exp_path(seed=2)  # starts at Id but a(1) != Id
        with pytest.raises(ParameterError):
            CatPath(parts=(a, b))

    def test_cat_traverses_parts_in_order(self):
        a = exp_path(seed=1)
        shift = ConjPath(phi=ConstPath(evaluate_array(a, 1.0)),
                         psi=ConstPath(np.eye(2)))
        cont = ProdPath(left=ConstPath(evaluate_array(a, 1.0)), right=exp_path(seed=5))
        p = CatPath(parts=(a, cont))
        assert np.allclose(evaluate_array(p, 0.25), evaluate_array(a, 0.5))
        assert np.allclose(evaluate_array(p, 0.5), evaluate_array(a, 1.0))
        assert np.allclose(evaluate_array(p, 1.0), evaluate_array(cont, 1.0))

    def test_prod_conj_reverse_dsum(self):
        a, b = exp_path(seed=1), exp_path(seed=2)
        t = 0.4
        va, vb = evaluate_array(a, t), evaluate_array(b, t)
        assert np.allclose(evaluate_array(ProdPath(left=a, right=b), t), va @ vb)
        assert np.allclose(evaluate_array(ConjPath(phi=b, psi=a), t),
                           vb @ va @ np.linalg.inv(vb))
        assert np.allclose(evaluate_array(ReversePath(inner=a), t),
                           evaluate_array(a, 1.0 - t))
        ds = DirectSumPath(parts=(a, b))
        assert ds.n == 2
        assert symplectic_residual(evaluate_array(ds, t)) < 1e-10

    def test_only_the_passed_node_memoises(self):
        a, b = exp_path(seed=1), exp_path(seed=2)
        inner = [a, b, ConstPath(random_symplectic(2, seed=3))]
        dsum = DirectSumPath(parts=(a, b))
        conj = ConjPath(phi=inner[2], psi=dsum)
        cont = ProdPath(left=ConstPath(evaluate_array(a, 1.0)), right=b)
        cat = CatPath(parts=(a, cont))
        rev = ReversePath(inner=cat)
        for top, nested in ((conj, inner + [dsum]),
                            (rev, [a, b, cat, cont, cont.left])):
            for node in [top] + nested:
                node._cache.clear()
            evaluate_array(top, 0.3)
            evaluate_array(top, 0.8)
            assert sorted(top._cache) == [0.3, 0.8]
            assert all(not node._cache for node in nested)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ProdPath(left=exp_path(n=1), right=exp_path(n=2))
        with pytest.raises(DimensionError):
            CatPath(parts=(exp_path(n=1), exp_path(n=2)))

    def test_shear_structure(self):
        b0 = np.array([[1.0, 0.2], [0.2, -0.5]])
        b1 = -b0
        p = ShearPath(b0=b0, b1=b1)
        m = evaluate_array(p, 0.5)
        assert np.allclose(m, np.eye(4))
        m = evaluate_array(p, 0.0)
        assert np.allclose(m[:2, 2:], b0) and np.allclose(m[2:, :2], 0.0)
        with pytest.raises(ParameterError):
            ShearPath(b0=np.array([[0.0, 1.0], [0.0, 0.0]]), b1=np.zeros((2, 2)))

    def test_make_shear_callable_and_pair(self):
        f = lambda t: np.array([[np.cos(t), 0.0], [0.0, t]])
        p = make_shear(f)
        assert np.allclose(evaluate_array(p, 0.3)[:2, 2:], f(0.3))
        q = make_shear((np.eye(2), np.zeros((2, 2))))
        assert np.allclose(evaluate_array(q, 0.25)[:2, 2:], 0.75 * np.eye(2))

    def test_loop_closes_and_winds(self):
        p = make_loop(2, 3)
        assert np.allclose(evaluate_array(p, 0.0), np.eye(6))
        assert np.allclose(evaluate_array(p, 1.0), np.eye(6))
        assert np.allclose(evaluate_array(p, 0.25),
                           evaluate_array(make_loop(2, 3), 0.25))
        for t in (0.1, 0.4, 0.8):
            assert symplectic_residual(evaluate_array(p, t)) < 1e-12

    def test_parameter_domain_enforced(self):
        p = exp_path()
        with pytest.raises(ParameterError):
            evaluate_array(p, 1.5)
        with pytest.raises(ParameterError):
            evaluate_array(p, -0.2)

    def test_evaluate_returns_certified_matrix(self):
        v = evaluate(exp_path(seed=6), 0.5)
        assert symplectic_residual(np.asarray(v)) < 1e-10


# junctions of the paths below: a three-part catenation, a catenation
# nested in its first part, a sampled path and the extension's thirds
_JUNCTIONS = [1.0 / 6.0, 0.3, 1.0 / 3.0, 2.0 / 3.0, 0.7]
STACK_TS = np.union1d(np.linspace(0.0, 1.0, 60), _JUNCTIONS)


def _every_node_type():
    """One path of each node type, composites over exponential leaves."""
    a, b = exp_path(n=1, seed=1), exp_path(n=1, seed=2)
    a1 = evaluate_array(a, 1.0)
    times = np.array([0.0, 0.3, 0.7, 1.0])
    mild = exp_path(n=1, seed=4, duration=0.4)
    sampled = SampledPath(times=times, matrices=tuple(
        evaluate_array(mild, t) for t in times))
    head = CatPath(parts=(a, ProdPath(left=ConstPath(a1), right=b)))
    h1 = evaluate_array(head, 1.0)
    cat = CatPath(parts=(head, ConstPath(h1),
                         ProdPath(left=ConstPath(h1), right=make_loop(1, 1))))
    ext = _Extension(evaluate_array(exp_path(n=2, seed=3), 1.0), DEFAULT_TOL, 0)
    return {
        "const": ConstPath(random_symplectic(2, seed=3)),
        "exp": exp_path(n=2, seed=5),
        "sampled": sampled,
        "nested cat": cat,
        "prod": ProdPath(left=a, right=b),
        "conj": ConjPath(phi=b, psi=a),
        "dsum": DirectSumPath(parts=(a, sampled, ConstPath(a1))),
        "joined dsum": DirectSumPath(parts=(exp_path(n=1, seed=6, duration=0.6),
                                            exp_path(n=2, seed=7))),
        "reverse": ReversePath(inner=cat),
        "affine shear": ShearPath(b0=np.diag([1.0, -2.0]),
                                  b1=np.array([[0.5, 0.3], [0.3, 2.0]])),
        "shear": make_shear(lambda t: np.array([[np.cos(3 * t), t],
                                                [t, np.sin(t)]])),
        "loop": make_loop(-2, 3),
        "extension": ext,
    }


class TestOverflow:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("index", ["conley_zehnder", "rs_index",
                                       "rs2_index"])
    def test_overflowing_path_is_typed(self, index):
        # exp(800) overflows inside expm: the stack is checked, not returned
        path = ExpPath(s_matrix=np.diag([800.0, -800.0]))
        with pytest.raises(ContractError, match="overflow"):
            getattr(sympindex, index)(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("index", ["conley_zehnder", "rs_index",
                                       "rs2_index"])
    def test_overflowing_conjugator_is_typed(self, index):
        # the conjugator overflows before the stack is checked: inverting it
        # would return NaN or fail on a singular matrix
        path = ConjPath(phi=ExpPath(s_matrix=np.diag([800.0, -800.0])),
                        psi=ExpPath(s_matrix=np.diag([1.0, 2.0])))
        with pytest.raises(ContractError, match="overflow"):
            getattr(sympindex, index)(path)


class TestStackedEvaluation:
    def test_grid_holds_the_ends_and_junctions(self):
        assert len(STACK_TS) == 65
        assert {0.0, 1.0, *_JUNCTIONS} <= set(STACK_TS.tolist())
        # the reversal passes 1 - t to its inner path, whose junctions these are
        for name, p in _every_node_type().items():
            if name not in ("extension", "reverse"):
                assert set(junction_parameters(p)) <= set(STACK_TS.tolist())

    @pytest.mark.parametrize("name", list(_every_node_type()))
    def test_stack_equals_scalar_evaluation_bitwise(self, name):
        stacked = evaluate_stack(_every_node_type()[name], STACK_TS)
        single = _every_node_type()[name]
        scalar = np.array([evaluate_array(single, t) for t in STACK_TS])
        assert stacked.shape == scalar.shape == (65,) + scalar.shape[1:]
        assert np.array_equal(stacked, scalar)

    def test_stacked_and_scalar_calls_share_the_memo(self):
        p = _every_node_type()["nested cat"]
        stacked = evaluate_stack(p, STACK_TS)
        entries = dict(p._cache)
        assert sorted(entries) == STACK_TS.tolist()
        for i, t in enumerate(STACK_TS.tolist()):
            hit = evaluate_array(p, t)
            assert hit is entries[t]
            assert np.array_equal(hit, stacked[i])
        assert p._cache == entries
        # a repeated parameter is evaluated once and returned twice
        again = evaluate_stack(p, [0.25, 0.25, 1.0 + 1e-13])
        assert np.array_equal(again[0], again[1])
        assert np.array_equal(again[2], entries[1.0])

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_constant_conjugator_is_inverted_once(self, n, monkeypatch):
        k = random_symplectic(n, seed=n, scale=1.0)
        p = ConjPath(phi=ConstPath(k), psi=exp_path(n, seed=n))
        g = p.phi._evaluate(STACK_TS)
        # a row of the stack is bitwise the conjugation by its own inverse
        per_row = g @ p.psi._evaluate(STACK_TS) @ np.linalg.inv(g)
        shapes, inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: shapes.append(np.shape(a)) or inv(a))
        assert p._evaluate(STACK_TS).tobytes() == per_row.tobytes()
        assert shapes == [(2 * n, 2 * n)]

    def test_stack_outside_the_domain_rejected(self):
        p = exp_path()
        for ts in ([0.0, 0.5, 1.5], [-0.2, 0.5], [0.5, np.nan]):
            with pytest.raises(ParameterError):
                evaluate_stack(p, ts)
        assert not p._cache


def _mixed_blocks(n):
    """n exponential parts of durations other than 1, elliptic (a definite
    2 x 2 generator) and hyperbolic (an indefinite one) in turn."""
    rng = np.random.default_rng(n)
    parts = []
    for i in range(n):
        a, b = rng.uniform(0.5, 4.0, size=2)
        c = rng.uniform(-0.3, 0.3)
        s = np.array([[a, c], [c, b if i % 2 == 0 else -b]])
        parts.append(ExpPath(s_matrix=s, duration=rng.uniform(0.4, 1.6)))
    return tuple(parts)


class TestJoinedDirectSum:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_joined_stack_matches_the_parts(self, n):
        parts = _mixed_blocks(n)
        p = DirectSumPath(parts=parts)
        assert isinstance(p._joined, ExpPath)
        joined = p._evaluate(STACK_TS)
        per_part = direct_sum_many([q._evaluate(STACK_TS) for q in parts])
        # expm scales the whole matrix at once: equal to rounding, not bitwise
        assert np.abs(joined - per_part).max() <= \
            1e-13 * np.abs(per_part).max()
        outside = direct_sum_many([np.ones((2, 2))] * n) == 0
        assert not joined[:, outside].any()

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_rows_equal_a_stack_of_one(self, n):
        p = DirectSumPath(parts=_mixed_blocks(n))
        stacked = p._evaluate(STACK_TS)
        for row, t in zip(stacked, STACK_TS):
            assert row.tobytes() == p._evaluate(np.array([t]))[0].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_one_expm_call_per_stack(self, n, monkeypatch):
        import scipy.linalg

        shapes, expm = [], scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm",
                            lambda a: shapes.append(np.shape(a)) or expm(a))
        DirectSumPath(parts=_mixed_blocks(n))._evaluate(STACK_TS)
        assert shapes == [(len(STACK_TS), 2 * n, 2 * n)]

    @pytest.mark.parametrize("kind", ["const", "sampled"])
    def test_other_parts_keep_the_per_part_route(self, kind):
        a = exp_path(n=1, seed=1, duration=0.7)
        mild = exp_path(n=1, seed=4, duration=0.4)
        times = np.array([0.0, 0.3, 0.7, 1.0])
        other = ConstPath(random_symplectic(1, seed=3)) if kind == "const" \
            else SampledPath(times=times, matrices=tuple(
                evaluate_array(mild, t) for t in times))
        p = DirectSumPath(parts=(a, other, exp_path(n=1, seed=2)))
        assert p._joined is None
        per_part = direct_sum_many([q._evaluate(STACK_TS) for q in p.parts])
        assert p._evaluate(STACK_TS).tobytes() == per_part.tobytes()

    def test_json_still_emits_the_parts(self):
        parts = _mixed_blocks(4)
        p = DirectSumPath(parts=parts)
        evaluate_stack(p, STACK_TS)
        assert p._joined is not None
        obj = path_to_json(p)
        assert obj["n"] == 4
        assert obj["path"] == {"type": "dsum", "parts": [
            {"type": "exp", "S": q.s_matrix.tolist(), "T": q.duration}
            for q in parts]}
        back = path_from_json(obj)
        assert isinstance(back, DirectSumPath) and len(back.parts) == 4
        assert np.array_equal(evaluate_stack(back, STACK_TS),
                              evaluate_stack(p, STACK_TS))

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_generator_is_exact(self, n):
        parts = _mixed_blocks(n)
        p = DirectSumPath(parts=parts)
        g = generator(p, 0.37)
        want = direct_sum_many([q.duration * q.s_matrix for q in parts])
        assert np.array_equal(g.s_matrix, want)
        assert not g.one_sided
        # nothing was evaluated: no difference quotient
        assert not p._cache


def _conjugated_sum(n=2):
    """A constant symplectic K conjugating a sum of exponential parts, with
    the exact generator K^-T S K^-1 it should have."""
    parts = _mixed_blocks(n)
    k = random_symplectic(n, seed=5, scale=0.3, max_cond=10.0)
    k_inv = np.linalg.inv(k)
    s = direct_sum_many([q.duration * q.s_matrix for q in parts])
    return ConjPath(phi=ConstPath(k), psi=DirectSumPath(parts=parts)), \
        k_inv.T @ s @ k_inv


class TestConjugatorCache:
    def test_exponential_is_built_once_per_node(self):
        q, want = _conjugated_sum()
        e = paths._exponential(q)
        assert isinstance(e, ExpPath) and paths._exponential(q) is e
        assert np.allclose(e.s_matrix, want, rtol=0.0, atol=1e-12)
        assert not q._phi_inv.flags.writeable

    def test_generator_builds_no_path_after_the_first_call(self,
                                                           monkeypatch):
        q, want = _conjugated_sum()
        built, init = [], ExpPath.__post_init__
        monkeypatch.setattr(ExpPath, "__post_init__",
                            lambda self: built.append(self) or init(self))
        first = generator(q, 0.3).s_matrix
        # the sum's joined path and the conjugated one
        assert len(built) == 2
        for t in (0.0, 0.3, 0.71, 1.0):
            assert generator(q, t).s_matrix.tobytes() == first.tobytes()
        assert len(built) == 2
        assert np.allclose(first, want, rtol=0.0, atol=1e-12)

    def test_constant_conjugator_is_inverted_once(self, monkeypatch):
        k = random_symplectic(2, seed=1, scale=0.3, max_cond=10.0)
        q = ConjPath(phi=ConstPath(k), psi=make_loop(3, 2))
        shapes, inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: shapes.append(np.shape(a)) or inv(a))
        stacks = [evaluate_stack(q, ts)
                  for ts in (STACK_TS[:10], STACK_TS[10:], [0.123])]
        assert shapes == [(4, 4)]
        monkeypatch.setattr(np.linalg, "inv", inv)
        for ts, stack in zip((STACK_TS[:10], STACK_TS[10:], [0.123]), stacks):
            want = k @ make_loop(3, 2)._evaluate(np.array(ts)) @ inv(k)
            assert np.allclose(stack, want, rtol=0.0, atol=1e-12)

    def test_moving_conjugator_inverts_each_sample(self):
        phi = exp_path(n=1, seed=3)
        q = ConjPath(phi=phi, psi=exp_path(n=1, seed=4))
        assert q._phi_inv is None and paths._exponential(q) is None
        g = phi._evaluate(STACK_TS)
        want = g @ q.psi._evaluate(STACK_TS) @ np.linalg.inv(g)
        assert np.allclose(q._evaluate(STACK_TS), want, rtol=0.0, atol=1e-12)


class TestGenerator:
    def test_exponential_generator_is_exact(self):
        p = exp_path(seed=7, duration=1.7)
        g = generator(p, 0.3)
        assert np.allclose(g.s_matrix, 1.7 * p.s_matrix)
        assert not g.one_sided

    def test_finite_difference_accuracy(self):
        a, b = exp_path(seed=1), exp_path(seed=2)
        p = ProdPath(left=a, right=b)
        t = 0.37
        g = generator(p, t)
        # reference: S(t) = -J d/dt psi psi^-1 by tiny central difference
        h = 1e-6
        d = (evaluate_array(p, t + h) - evaluate_array(p, t - h)) / (2 * h)
        ref = -j_matrix(1) @ d @ np.linalg.inv(evaluate_array(p, t))
        ref = 0.5 * (ref + ref.T)
        assert np.linalg.norm(g.s_matrix - ref) < 1e-6

    def test_one_sided_flags(self):
        a = exp_path(seed=1)
        cont = ProdPath(left=ConstPath(evaluate_array(a, 1.0)),
                        right=exp_path(seed=5))
        p = CatPath(parts=(a, cont))
        assert generator(p, 0.5).one_sided
        assert generator(p, 0.0).one_sided
        assert not generator(p, 0.25).one_sided

    def test_one_sided_difference_steps_away_from_the_junction(self):
        # a nested path whose interior junction at t = 1/2 is a kink
        s1, s2 = np.diag([-3.0, -1.0]), np.diag([2.0, 5.0])
        head = ExpPath(s_matrix=s1)
        tail = ProdPath(left=ExpPath(s_matrix=s2),
                        right=ConstPath(sla.expm(j_matrix(1) @ s1)))
        p = CatPath(parts=(head, tail))
        # the catenation runs each part at double speed
        for t, want in ((0.5 - 1e-6, 2 * s1), (0.5 + 1e-6, 2 * s2)):
            g = generator(p, t)
            assert g.one_sided
            assert np.linalg.norm(g.s_matrix - want) < 1e-6
        # exactly on the junction the forward side is kept
        assert np.linalg.norm(generator(p, 0.5).s_matrix - 2 * s2) < 1e-6

    def test_junction_parameters(self):
        a = exp_path(seed=1)
        cont = ProdPath(left=ConstPath(evaluate_array(a, 1.0)),
                        right=exp_path(seed=5))
        p = CatPath(parts=(a, cont))
        assert junction_parameters(p) == [0.5]
        assert junction_parameters(ReversePath(inner=p)) == [0.5]
        mild = exp_path(seed=1, duration=0.3)
        times = np.array([0.0, 0.3, 1.0])
        sp = SampledPath(times=times,
                         matrices=tuple(evaluate_array(mild, t) for t in times))
        assert junction_parameters(sp) == [pytest.approx(0.3)]
        assert junction_parameters(DirectSumPath(parts=(p, sp))) == \
            [pytest.approx(0.3), 0.5]


class TestJson:
    def test_round_trip_preserves_values(self):
        a = exp_path(n=1, seed=1)
        times = np.linspace(0.0, 1.0, 5)
        sp = SampledPath(times=times,
                         matrices=tuple(evaluate_array(a, t) for t in times))
        paths = [
            a,
            ConstPath(random_symplectic(1, seed=2)),
            sp,
            ProdPath(left=a, right=ReversePath(inner=a)),
            ConjPath(phi=ConstPath(random_symplectic(1, seed=3)), psi=a),
            DirectSumPath(parts=(a, make_shear((np.eye(1), -np.eye(1))))),
            make_loop(-2, 2),
            DirectSumPath(parts=(make_loop(1, 1), ExpPath(np.diag([1.0, 2.0])))),
            CatPath(parts=(a, ProdPath(left=ConstPath(evaluate_array(a, 1.0)),
                                       right=a))),
        ]
        for p in paths:
            q = path_from_json(path_to_json(p))
            assert q.n == p.n
            for t in (0.0, 0.21, 0.5, 1.0):
                assert np.allclose(evaluate_array(q, t), evaluate_array(p, t),
                                   atol=1e-9), type(p).__name__

    def test_callable_shear_not_serializable(self):
        p = make_shear(lambda t: np.array([[t]]))
        with pytest.raises(ParameterError):
            path_to_json(p)

    def test_bad_json_rejected(self):
        with pytest.raises(ParameterError):
            path_from_json({"n": 1})
        with pytest.raises(ParameterError):
            path_from_json({"n": 1, "path": {"type": "mystery"}})
        with pytest.raises(DimensionError):
            path_from_json({"n": 3, "path": {"type": "exp",
                                             "S": [[1.0, 0.0], [0.0, 1.0]]}})
