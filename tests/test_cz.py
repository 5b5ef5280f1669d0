import importlib
import json
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from sympindex import (AdmissibilityError, CatPath, ConditioningError,
                       ConjPath, ConstPath, ContractError, DirectSumPath,
                       ExpPath,
                       HalfInt, InternalConsistencyError,
                       KreinDegenerateError, ParameterError,
                       ProdPath, ReversePath,
                       SampledPath, SympindexError, WindingResolutionError,
                       conley_zehnder, cz_dim2_closed_form, direct_sum_many,
                       evaluate_array, evaluate_stack, extension_winding,
                       make_loop,
                       maslov_loop,
                       path_from_json, random_symplectic, rs_index,
                       winding)
import sympindex.cz as cz
import sympindex.spectral as spectral
from sympindex.core import rho_hat, rho_polar, symplectic_residual
from sympindex.spectral import first_kind_eigenvalues, rho
from sympindex.cz import _Extension, _rho_map, _unit_passage_times
from sympindex.tolerances import DEFAULT_TOL
from conftest import krein_degenerate_rotation, rotation, unit_jordan_real

DATA = Path(__file__).parent / "data"
# the package exports the function normal_form under the module's name
nf = importlib.import_module("sympindex.normal_form")


def exp_path(n=1, seed=0, scale=1.0, duration=1.0):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(2 * n, 2 * n)) * scale
    return ExpPath(s_matrix=0.5 * (s + s.T), duration=duration)


def unitary_symplectic(n, seed):
    """The orthogonal symplectic realification of a seeded random unitary."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return np.block([[q.real, -q.imag], [q.imag, q.real]])


def jordan_generator(a):
    """S with J0 S = [[H, 0], [0, -H^T]], H = [[a, 1], [0, a]], on the first
    two degrees of freedom, and a rotation by 2 on the third: exp(J0 S) has
    an order-2 Jordan chain at e^a, and its index is the rotation's, 1."""
    h = np.array([[a, 1.0], [0.0, a]])
    zero = np.zeros((2, 2))
    return direct_sum_many([np.block([[zero, -h.T], [-h, zero]]),
                            np.diag([2.0, 2.0])])


def rotation_path(rate, duration=1.0):
    return ExpPath(s_matrix=rate * np.eye(2), duration=duration)


class TestWindingEngine:
    def test_constant_map_has_zero_winding(self):
        turns, trace, depth = winding(lambda ts: np.full(len(ts), 1.0 + 0.0j))
        assert turns == 0.0 and depth == 0
        assert trace[0] == (0.0, 0.0) and trace[-1][0] == 1.0

    def test_uniform_rotation(self):
        for k in (1, -2, 5):
            turns, _, _ = winding(lambda ts, k=k: np.exp(2j * np.pi * k * ts))
            assert turns == pytest.approx(k, abs=1e-12)

    def test_fast_rotation_triggers_refinement(self):
        turns, _, depth = winding(lambda ts: np.exp(2j * np.pi * 40 * ts))
        assert turns == pytest.approx(40, abs=1e-9)
        assert depth >= 1

    def test_depth_cap_raises(self):
        with pytest.raises(WindingResolutionError):
            winding(lambda ts: np.exp(2j * np.pi * 10.3 * ts), max_refine=1,
                    coarse=4)


class TestClosedForm:
    def test_positive_definite_anchor(self):
        assert cz_dim2_closed_form(np.diag([5.0, 5.0]), 1.0) == HalfInt.from_int(1)

    def test_negative_definite_anchor(self):
        assert cz_dim2_closed_form(np.diag([-7.0, -7.0]), 1.0) == HalfInt.from_int(-3)

    def test_indefinite_is_zero(self):
        assert cz_dim2_closed_form(np.diag([3.0, -2.0]), 1.0) == HalfInt.from_int(0)

    def test_period_rejected(self):
        with pytest.raises(AdmissibilityError):
            cz_dim2_closed_form(np.eye(2), 2.0 * np.pi)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            cz_dim2_closed_form(np.eye(4), 1.0)
        with pytest.raises(ParameterError):
            cz_dim2_closed_form(np.zeros((2, 2)), 1.0)

    def test_agrees_with_index(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            s = rng.normal(size=(2, 2))
            s = 0.5 * (s + s.T)
            w = np.linalg.eigvalsh(s)
            if np.min(np.abs(w)) < 1e-3:
                continue
            x = np.sqrt(abs(w[0] * w[1])) / (2 * np.pi)
            if abs(x - round(x)) < 1e-3:
                continue
            p = ExpPath(s_matrix=s)
            assert conley_zehnder(p).value == cz_dim2_closed_form(s, 1.0)


class TestExtension:
    def test_elliptic_endpoint(self):
        phi = 0.9
        turns, endpoint = extension_winding(
            np.array([[np.cos(phi), -np.sin(phi)],
                      [np.sin(phi), np.cos(phi)]]))
        assert endpoint == "W+"
        assert turns == pytest.approx((np.pi - phi) / np.pi, abs=1e-6)

    def test_hyperbolic_endpoint(self):
        turns, endpoint = extension_winding(np.diag([2.0, 0.5]))
        assert endpoint == "W-"
        assert turns == pytest.approx(0.0, abs=1e-6)

    def test_minus_identity(self):
        turns, endpoint = extension_winding(-np.eye(4))
        assert endpoint == "W+"
        assert turns == pytest.approx(0.0, abs=1e-6)

    def test_extension_samples_are_built_once(self, monkeypatch):
        seen = []
        build = _Extension._evaluate

        def spy(self, ts):
            seen.extend(ts.tolist())
            return build(self, ts)

        monkeypatch.setattr(_Extension, "_evaluate", spy)
        conley_zehnder(exp_path(n=2, seed=3, scale=2.0))
        assert seen and len(seen) == len(set(seen))

    # seed 5 conjugates by a normal-form basis of condition number 4.6e3
    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_extension_is_a_continuous_symplectic_path(self, seed):
        a_end = evaluate_array(exp_path(n=2, seed=seed, scale=2.0), 1.0)
        ext = _Extension(a_end, DEFAULT_TOL, seed=0)
        assert np.array_equal(evaluate_array(ext, 0.0), a_end)
        # each third is built from its own matrices; they meet at the joins
        for t in (1.0 / 3.0, 2.0 / 3.0):
            left = evaluate_array(ext, t)
            right = evaluate_array(ext, np.nextafter(t, 1.0))
            assert np.linalg.norm(left - right) <= 1e-10 * np.linalg.norm(left)
        # it ends at U W+- U^T for the fixed unitary factor U of the
        # unwinding, where every circle map takes its value at W+-
        end = evaluate_array(ext, 1.0)
        target = -np.eye(4) if ext.endpoint == "W+" else \
            np.diag([2.0, -1.0, 0.5, -1.0])
        u = ext._unwind(1.0)[0]
        assert np.linalg.norm(u.T @ u - np.eye(4)) <= 1e-12
        assert symplectic_residual(u) <= 1e-12
        assert np.linalg.norm(end - u @ target @ u.T) <= 1e-10
        for circle_map in (rho, rho_polar, rho_hat):
            assert abs(circle_map(end) - circle_map(target)) <= 1e-12
        for t in np.linspace(0.0, 1.0, 31):
            assert symplectic_residual(evaluate_array(ext, t)) < 1e-10

    def test_extension_calls_no_expm_or_logm(self, monkeypatch):
        # the bridge is a Cayley path, one solve per sample, and the
        # unwinding holds its inverse, so the other two thirds solve nothing
        # and every expm evaluates the path, once per memoised sample; a
        # stacked call solves and exponentiates a whole stack at once, so
        # samples are counted as the matrices of the stacks
        expm, solve, build = sla.expm, np.linalg.solve, _Extension._evaluate
        calls, solves, samples = [], [], []

        def spy_expm(a):
            calls.append(len(a) if a.ndim == 3 else 1)
            return expm(a)

        def spy_solve(a, b):
            solves.append(a)
            return solve(a, b)

        def no_logm(*args, **kwargs):
            raise AssertionError("logm called")

        def spy_evaluate(self, ts):
            before = len(solves)
            out = build(self, ts)
            samples.extend(ts.tolist())
            solved = sum(len(a) if a.ndim == 3 else 1
                         for a in solves[before:])
            assert solved == np.count_nonzero(ts <= 1.0 / 3.0), ts
            return out

        monkeypatch.setattr(sla, "expm", spy_expm)
        monkeypatch.setattr(sla, "logm", no_logm)
        monkeypatch.setattr(np.linalg, "solve", spy_solve)
        monkeypatch.setattr(_Extension, "_evaluate", spy_evaluate)
        path = exp_path(n=2, seed=3, scale=2.0)
        conley_zehnder(path)
        assert min(samples) <= 1.0 / 3.0 < max(samples)
        assert calls and sum(calls) == len(path._cache)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unwind_runs_from_k_to_its_unitary_factor(self, seed):
        # K = -P for a positive polar factor P has the orthogonal factor -Id
        ks = [random_symplectic(3, seed=seed, max_cond=50)]
        ks += [-sla.polar(random_symplectic(2, seed=s, max_cond=20))[1]
               for s in range(seed, 40, 3)]
        for k in ks:
            k_at = _Extension._build_unwind(k)
            eye = np.eye(k.shape[0])
            assert np.linalg.norm(k_at(0.0)[0] - k) <= 1e-12
            u = k_at(1.0)[0]
            assert np.linalg.norm(u.T @ u - eye) <= 1e-12
            assert symplectic_residual(u) <= 1e-12
            for t in np.linspace(0.0, 1.0, 31):
                kt, kt_inv = k_at(t)
                assert symplectic_residual(kt) < 1e-10
                assert np.linalg.norm(kt_inv @ kt - eye) <= 1e-12

    @pytest.mark.parametrize("n, seed", [(3, 0), (3, 1), (4, 2), (4, 3)])
    def test_circle_maps_are_unitary_conjugation_invariant(self, n, seed):
        # the unwinding stops at its unitary factor U because every circle
        # map restricts to det_C on U(n) = Sp(2n) & O(2n), so conjugation by
        # U leaves it unchanged; X has unit pairs of both Krein signs, a
        # negative hyperbolic pair and, at n = 4, a positive one
        blocks = [_rot2(0.9), np.diag([-2.0, -0.5]), _rot2(-2.1),
                  np.diag([1.5, 1 / 1.5])][:n]
        k = random_symplectic(n, seed=seed, scale=0.3)
        x = k @ direct_sum_many(blocks) @ np.linalg.inv(k)
        u = unitary_symplectic(n, seed)
        for circle_map in (rho, rho_polar, rho_hat):
            assert abs(circle_map(u @ x @ u.T) - circle_map(x)) <= 1e-12

    def test_orthogonal_factor_at_minus_identity(self):
        # a sum of two rotations of index 3 each; its normal-form basis now
        # has the orthogonal factor Id, not the double eigenvalue -1 that
        # the name recalls, so this pins the value only
        path = DirectSumPath(parts=(
            ExpPath(s_matrix=np.diag([9.85616236, 14.61014894])),
            ExpPath(s_matrix=np.diag([9.54149537, 14.98637942]))))
        assert conley_zehnder(path).value == HalfInt.from_int(6)

    def test_degenerate_endpoint_rejected(self):
        p = ExpPath(s_matrix=np.zeros((2, 2)))
        with pytest.raises(AdmissibilityError):
            conley_zehnder(p)

    def test_must_start_at_identity(self):
        a = random_symplectic(1, seed=3)
        with pytest.raises(AdmissibilityError):
            conley_zehnder(ConstPath(a))

    @pytest.mark.filterwarnings("error")
    def test_determinant_overflow_is_typed(self):
        # the endpoint's entries, about e^200, are finite; det(A - Id) of
        # the 4 x 4 sum is not
        block = ExpPath(s_matrix=np.diag([200.0, -200.0]))
        p = DirectSumPath(parts=(block, block))
        with pytest.raises(ContractError, match="overflow"):
            conley_zehnder(p)

    def test_eigenvalue_rounding_to_zero_is_typed(self):
        # cond(psi_1) ~ 1.7e16: an eigenvalue of the endpoint rounds to 0
        p = ExpPath(s_matrix=np.array([[-12.49052763, 12.03765861],
                                       [12.03765861, 16.53431942]]))
        with pytest.raises(SympindexError):
            conley_zehnder(p)


def _rot2(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def _scalar_pair(t, lam, target):
    m = (1 - t) * lam + t * target
    return np.diag([m, 1.0 / m])


def _scalar_quad(r, th):
    out = np.zeros((4, 4))
    out[:2, :2] = r * _rot2(th)
    out[2:, 2:] = _rot2(th) / r
    return out


def _scalar_positive_pairs(t, lam1, lam2):
    if t <= 0.5:
        return direct_sum_many([np.diag([lam1, 1 / lam1]),
                                _scalar_pair(2 * t, lam2, lam1)])
    s = 2 * t - 1
    return _scalar_quad(1 + (lam1 - 1) * (1 - s), np.pi * s)


# the per-sample deformer that each stacked one replaced, by its function
SCALAR_DEFORMERS = {
    cz._pair_block: _scalar_pair,
    cz._positive_pairs_block: _scalar_positive_pairs,
    cz._quad_to_minus_one: lambda t, r0, th0: _scalar_quad(
        1 + (r0 - 1) * (1 - t), th0 + (np.pi - th0) * t),
    cz._unit_to_minus_one: lambda t, phi: _rot2(
        (1 - t) * phi + t * (np.pi if phi > 0 else -np.pi)),
}


def scalar_k_at(k):
    """The unwinding K(t) = U P^(1-t) and its inverse at one t, one matrix
    at a time: U is the realified unitary polar factor of the complex block
    of K's orthogonal polar factor, both taken by ``scipy.linalg.polar``."""
    n = k.shape[0] // 2
    o, _ = sla.polar(k)
    w, _ = sla.polar(o[:n, :n] + 1j * o[n:, :n])
    u = np.block([[w.real, -w.imag], [w.imag, w.real]])
    _, s, vt = np.linalg.svd(k)

    def k_at(t):
        return (u @ ((vt.T * s ** (1 - t)) @ vt),
                (vt.T * s ** (t - 1)) @ vt @ u.T)

    return k_at


def scalar_extension(ext, t):
    """One sample of the extension, third by third as it was evaluated
    before the thirds were stacked: the reference for ``_evaluate``."""
    eye = np.eye(len(ext.a_end))
    if t <= 1.0 / 3.0:
        uc = 3.0 * t * ext._cayley
        return ext.a_end @ np.linalg.solve(eye - uc, eye + uc)
    deformers = [partial(SCALAR_DEFORMERS[fn.func], **fn.keywords)
                 for fn in ext._deformers]

    def deform(u):
        return direct_sum_many([fn(u) for fn in deformers])

    if t <= 2.0 / 3.0:
        return ext.k_perm @ deform(3.0 * t - 1.0) @ ext.k_perm_inv
    kt, kt_inv = scalar_k_at(ext.k_perm)(3.0 * t - 2.0)
    return kt @ deform(1.0) @ kt_inv


def every_block_endpoint():
    """A conjugated W- endpoint with distinct eigenvalues and every deformer
    kind: three positive real pairs (a survivor and a pair of pairs), a
    negative pair, a quadruple and two unit pairs of opposite Krein sign."""
    blocks = [np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3.0]),
              np.diag([1.5, 1 / 1.5]), np.diag([-2.0, -0.5]),
              cz._quad_block(1.3, 0.7), _rot2(0.9), _rot2(-2.1)]
    k = random_symplectic(8, seed=4, scale=0.3)
    return k @ direct_sum_many(blocks) @ np.linalg.inv(k)


def repeated_eigenvalue_path():
    # the first two exponentials share the eigenvalue e of their endpoints
    return DirectSumPath(parts=(ExpPath(s_matrix=np.diag([1.0, -1.0])),
                                ExpPath(s_matrix=np.diag([0.5, -2.0])),
                                ExpPath(s_matrix=np.diag([2.0, -0.7]))))


class TestStackedExtension:
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_thirds_match_the_per_sample_arithmetic(self, perturbed):
        a_end = (evaluate_array(repeated_eigenvalue_path(), 1.0) if perturbed
                 else every_block_endpoint())
        ext = _Extension(a_end, DEFAULT_TOL, seed=0)
        assert ext.perturbed == perturbed
        kinds = {(fn.func, fn.keywords.get("target")) for fn in ext._deformers}
        assert (cz._pair_block, 2.0) in kinds
        assert (cz._positive_pairs_block, None) in kinds
        if not perturbed:
            assert kinds == {(cz._pair_block, 2.0), (cz._pair_block, -1.0),
                             (cz._positive_pairs_block, None),
                             (cz._quad_to_minus_one, None),
                             (cz._unit_to_minus_one, None)}
        # the joins and both halves of the positive pairs (t = 1/2)
        joins = [1.0 / 3.0, 2.0 / 3.0]
        ts = np.unique(np.concatenate([
            np.linspace(0.0, 1.0, 46), joins, np.nextafter(joins, 1.0),
            [0.5, 0.5 + 1e-9]]))
        stack = ext._evaluate(ts)
        for t, got in zip(ts.tolist(), stack):
            ref = scalar_extension(ext, t)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref), t


class TestExtensionRoutes:
    @staticmethod
    def spy_calls(monkeypatch):
        calls = Counter()
        for name in ("normal_form", "semisimple_perturb"):
            def wrapped(*args, _fn=getattr(cz, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cz, name, wrapped)
        return calls

    def test_semisimple_endpoint_is_its_own_bridge_end(self, monkeypatch):
        calls = self.spy_calls(monkeypatch)
        a_end = every_block_endpoint()
        ext = _Extension(a_end, DEFAULT_TOL, seed=0)
        assert not ext.perturbed
        assert calls == {"normal_form": 1}
        seen = []
        build = _Extension._evaluate

        def spy(self, ts):
            seen.extend(ts.tolist())
            return build(self, ts)

        monkeypatch.setattr(_Extension, "_evaluate", spy)
        turns = ext.rho_winding(Counter())
        assert sorted(seen) == [0.0, 1.0 / 3.0]
        # sum of sign(theta) (pi - |theta|) / pi over the first-kind unit
        # eigenvalues e^{i theta}
        angles = [np.angle(z) for z in first_kind_eigenvalues(a_end)
                  if abs(abs(z) - 1.0) < 1e-9]
        assert len(angles) == 2
        closed = sum(np.sign(th) * (np.pi - abs(th)) / np.pi for th in angles)
        assert turns == pytest.approx(closed, abs=1e-12)
        assert closed == pytest.approx(((np.pi - 0.9) - (np.pi - 2.1)) / np.pi)

    def test_repeated_eigenvalue_is_perturbed(self, monkeypatch):
        calls = self.spy_calls(monkeypatch)
        result = conley_zehnder(repeated_eigenvalue_path())
        assert calls == {"normal_form": 2, "semisimple_perturb": 1}
        assert result.endpoint == "W-"
        assert result.value == HalfInt.from_int(0)

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_determinant_windings_skip_a_constant_bridge(self, perturbed,
                                                         monkeypatch):
        path = repeated_eigenvalue_path() if perturbed else exp_path(2, seed=1)
        ext = _Extension(evaluate_array(path, 1.0), DEFAULT_TOL, seed=0)
        assert ext.perturbed == perturbed
        seen = []
        build = _Extension._evaluate

        def spy(self, ts):
            seen.extend(ts.tolist())
            return build(self, ts)

        monkeypatch.setattr(_Extension, "_evaluate", spy)
        turns = [ext.det_winding(circle_map, DEFAULT_TOL)
                 for circle_map in (cz.rho_polar, cz.rho_hat)]
        assert turns[0] == pytest.approx(turns[1], abs=1e-12)
        # the bridge third is t <= 1/3; a constant one shares only t = 1/3
        bridge = sorted(t for t in seen if t <= 1.0 / 3.0)
        if perturbed:
            assert bridge[0] == 0.0 and len(bridge) > 2
        else:
            assert bridge == [1.0 / 3.0]
        assert max(seen) == 1.0
        w = conley_zehnder(path).diagnostics["windings"]
        assert w["polar"] == pytest.approx(w["clinear"], abs=1e-12)

    def test_singular_cayley_denominator_is_typed(self, monkeypatch):
        # the repeated eigenvalue 2 takes the perturbed route, where A' = -A
        # makes B = A^-1 A' = -Id exactly, and B + Id singular
        monkeypatch.setattr(cz, "semisimple_perturb", lambda a, **kw: -a)
        with pytest.raises(ConditioningError, match="Cayley bridge"):
            _Extension(np.diag([2.0, 2.0, 0.5, 0.5]), DEFAULT_TOL, seed=0)

    @pytest.mark.parametrize("separated", [None, False])
    def test_ill_conditioned_endpoint_has_a_value(self, separated,
                                                  monkeypatch):
        # cond(psi_1) = 5e17; forced onto the perturbed route, its bridge
        # once took A^-1 from a solve that raised numpy's LinAlgError, and
        # now takes Omega^T A^T Omega
        if separated is not None:
            monkeypatch.setattr(cz, "_separated", lambda evals, eps: False)
        path = ExpPath(s_matrix=[[11, 17, -15, -7], [17, 11, 7, 20],
                                 [-15, 7, -3, 1], [-7, 20, 1, -25]])
        assert conley_zehnder(path).value == rs_index(path).value
        assert rs_index(path).value == HalfInt(0)

    def test_fast_hyperbolic_rates_need_no_perturbation(self, monkeypatch):
        # the partners e^-20 and e^-18 inside the circle lie 1.5e-8 apart,
        # closer than any perturbation of size eps = 1e-6 can part them;
        # only the eigenvalues on or outside the circle are compared
        calls = self.spy_calls(monkeypatch)
        a, zero = np.diag([20.0, 18.0]), np.zeros((2, 2))
        path = ExpPath(s_matrix=np.block([[zero, -a], [-a, zero]]))
        evals = np.exp([20.0, 18.0, -20.0, -18.0]) + 0j
        assert abs(evals[3] - evals[2]) < 0.05 * 1e-6
        assert nf._separated(evals, 1e-6)
        assert conley_zehnder(path).value == rs_index(path).value
        assert rs_index(path).value == HalfInt(0)
        assert calls == {"normal_form": 1}

    @pytest.mark.parametrize("gap", [1e-8, 2e-8, 3e-8, 3e-7, 3e-6])
    def test_endpoint_normal_form_retries_at_the_extension_tolerance(self,
                                                                     gap):
        # real eigenvalues e^0.7 and e^0.7 + gap: 1e-8 and 2e-8 lie in the
        # ambiguity band (2.5e-9, 2.5e-8) of the extension's own tol_eig and
        # are merged at the default tol_eig; 3e-7 lies in the default band
        # (1e-7, 1e-6) and is separated at the extension's
        r = np.log(np.exp(0.7) + gap)
        s = direct_sum_many([np.diag([0.7, -0.7]), np.diag([r, -r]),
                             np.diag([2.0, 2.0])])
        k = random_symplectic(3, seed=2, scale=0.3, max_cond=10)
        result = conley_zehnder(ConjPath(ConstPath(k), ExpPath(s_matrix=s)))
        assert result.endpoint == "W+"
        assert result.value == HalfInt.from_int(1)
        # only the gap in the default band needs the retry; the merged
        # pairs are perturbed apart
        assert result.diagnostics["nf_retry"] == (gap == 3e-7)
        assert result.diagnostics["perturbed"] == (gap < 1e-7)

    @pytest.mark.parametrize("a", [0.3, 0.7, 1.5])
    def test_jordan_endpoint_is_perturbed(self, a, monkeypatch):
        # the chain's corner 1 deforms to 0 through admissible paths, so the
        # index is that of the rotation
        calls = self.spy_calls(monkeypatch)
        result = conley_zehnder(ExpPath(s_matrix=jordan_generator(a)))
        assert calls == {"normal_form": 2, "semisimple_perturb": 1}
        assert result.endpoint == "W+"
        assert result.value == HalfInt.from_int(1)

    @pytest.mark.parametrize("conjugator", ["random", "unitary"])
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("a", [0.3, 0.7])
    def test_conjugated_jordan_endpoint_is_perturbed(self, a, seed,
                                                     conjugator):
        # the perturbation splits the chain by about sqrt(eps), enough for
        # the second normal form under any well-conditioned conjugation
        k = (random_symplectic(3, seed, 0.3, max_cond=10)
             if conjugator == "random" else unitary_symplectic(3, seed))
        path = ConjPath(ConstPath(k), ExpPath(s_matrix=jordan_generator(a)))
        assert conley_zehnder(path).value == HalfInt.from_int(1)

    def test_route_is_reported(self):
        # a cz_exp-like path, exp(t J0 P^T S P) for diagonal elliptic and
        # hyperbolic blocks, keeps its endpoint; a Jordan endpoint does not
        k = random_symplectic(3, seed=4, scale=0.3, max_cond=10)
        s = direct_sum_many([np.diag([2.0, 3.1]), np.diag([0.7, -0.7]),
                             np.diag([-1.2, -4.0])])
        simple = conley_zehnder(ExpPath(s_matrix=k.T @ s @ k))
        assert simple.diagnostics["perturbed"] is False
        assert simple.diagnostics["nf_retry"] is False
        jordan = conley_zehnder(ConjPath(
            ConstPath(k), ExpPath(s_matrix=jordan_generator(0.7))))
        assert jordan.diagnostics["perturbed"] is True
        assert jordan.diagnostics["nf_retry"] is False

    @pytest.mark.parametrize("seed", [None, *range(6)])
    @pytest.mark.parametrize("phi", [0.9, 2.0, -2.5])
    def test_unit_jordan_endpoint_is_perturbed(self, phi, seed):
        # an order-2 unit Jordan chain at e^{i phi}; conjugated, it keeps
        # its component and, up to the bridge, its winding
        a = unit_jordan_real(phi, 2)
        turns, endpoint = extension_winding(a)
        if seed is not None:
            k = random_symplectic(2, seed, 0.3, max_cond=10)
            conj_turns, conj_endpoint = extension_winding(
                k @ a @ np.linalg.inv(k))
            assert conj_endpoint == endpoint
            assert conj_turns == pytest.approx(turns, abs=1e-3)

    @pytest.mark.parametrize("rates,doubled", [
        # two equal hyperbolic pairs and a rotation by 2
        ((np.diag([0.7, -0.7]), np.diag([0.7, -0.7]), np.diag([2.0, 2.0])), 2),
        # a unit eigenvalue of multiplicity 3
        ((1.5 * np.eye(2),) * 3, 6)])
    def test_perturbed_endpoint_rotates_its_unit_blocks(self, rates, doubled,
                                                        monkeypatch):
        # the repeated eigenvalue forces the perturbation, whose Cayley
        # factor parts the unit eigenvalues; each order-1 unit block of the
        # perturbed endpoint turns rho^2 on its way to -1
        calls = self.spy_calls(monkeypatch)
        result = conley_zehnder(DirectSumPath(
            parts=tuple(ExpPath(s_matrix=s) for s in rates)))
        assert calls == {"normal_form": 2, "semisimple_perturb": 1}
        assert result.endpoint == "W+"
        closed = [cz_dim2_closed_form(s, 1.0) for s in rates]
        assert result.value == sum(closed[1:], closed[0])
        assert result.value == HalfInt(doubled)


class TestIndexProperties:
    def test_rotation_anchor(self):
        # psi(t) = exp(t pi J0): index 1
        assert conley_zehnder(rotation_path(np.pi)).value == HalfInt.from_int(1)

    def test_hyperbolic_anchor(self):
        s = np.diag([1.0, -1.0])
        assert conley_zehnder(ExpPath(s_matrix=s)).value == HalfInt.from_int(0)
        # nearby rates: the computed eigenvalues inside the disk lie within
        # the ambiguity band of each other, the ones outside far apart
        for r1, r2 in ((9.2, 9.209), (8.0, 8.0005), (10.0, 10.003)):
            path = DirectSumPath(parts=(ExpPath(s_matrix=np.diag([r1, -r1])),
                                        ExpPath(s_matrix=np.diag([r2, -r2]))))
            assert conley_zehnder(path).value == HalfInt.from_int(0)

    def test_three_maps_agree_on_random_paths(self):
        for seed in range(6):
            p = exp_path(n=2, seed=seed, scale=0.8)
            res = conley_zehnder(p)
            w = res.diagnostics["windings"]
            vals = {int(round(v)) for v in w.values()}
            assert vals == {int(res.value.as_float())}
            spread = max(w.values()) - min(w.values())
            assert spread < 1e-6

    def test_loop_shift_property(self):
        p = exp_path(n=2, seed=3, scale=0.7)
        base = conley_zehnder(p).value
        for k in (1, -1, 2):
            shifted = ProdPath(left=make_loop(k, 2), right=p)
            assert conley_zehnder(shifted).value == base + HalfInt.from_int(2 * k)

    def test_naturality_under_conjugation(self):
        p = exp_path(n=2, seed=9, scale=0.8)
        g = random_symplectic(2, seed=4, max_cond=50)
        q = ConjPath(phi=ConstPath(g), psi=p)
        assert conley_zehnder(q).value == conley_zehnder(p).value

    def test_direct_sum_additivity(self):
        a = exp_path(n=1, seed=1, scale=1.2)
        b = exp_path(n=1, seed=2, scale=1.2)
        total = conley_zehnder(DirectSumPath(parts=(a, b))).value
        assert total == conley_zehnder(a).value + conley_zehnder(b).value

    def test_inverse_path_negates(self):
        p = exp_path(n=1, seed=11, scale=1.1)
        inv = ExpPath(s_matrix=-p.s_matrix)
        assert conley_zehnder(inv).value == -conley_zehnder(p).value

    def test_homotopy_invariance_under_reparametrization(self):
        p = exp_path(n=2, seed=5, scale=0.9)
        half = ExpPath(s_matrix=p.s_matrix, duration=0.5)
        ts = np.linspace(0.0, 1.0, 33)
        tail = SampledPath(
            times=ts,
            matrices=tuple(evaluate_array(p, 0.5 + 0.5 * t) for t in ts))
        q = CatPath(parts=(half, tail))
        assert conley_zehnder(q).value == conley_zehnder(p).value

    def test_determinant_parity(self):
        # index parity matches n mod 2 exactly when det(A - Id) > 0
        for seed in range(5):
            p = exp_path(n=2, seed=seed, scale=0.8)
            res = conley_zehnder(p)
            even = int(res.value.as_float()) % 2 == 0
            assert even == (res.endpoint == "W+")
            assert even == (res.diagnostics["det_gap"] > 0)

    def test_result_fields(self):
        res = conley_zehnder(rotation_path(np.pi))
        assert res.value.is_integer
        assert res.winding_trace[0] == (0.0, 0.0)
        assert res.winding_trace[-1][0] == 1.0
        assert res.endpoint in ("W+", "W-")
        assert res.diagnostics["smin_end"] > 0
        assert res.diagnostics["rho_fallbacks"] == 0
        assert res.diagnostics["krein_nudges"] == 0
        # an exponential runs no passage search and winds on at least 64
        # cells
        assert res.diagnostics["passages"] == 0
        assert res.diagnostics["grid_cells"] == 64
        # rho runs on the character sample and the 17 samples of the
        # bridge of the perturbed endpoint -Id
        assert res.diagnostics["rho_samples"] == 1 + 17

    def test_unit_turns_are_reported(self):
        # the unperturbed rotation by 2.5 turns rho^2 by (pi - 2.5) / pi on
        # its way to -1, and its constant bridge by nothing
        res = conley_zehnder(rotation_path(2.5))
        assert res.diagnostics["perturbed"] is False
        assert res.diagnostics["unit_turns"] == pytest.approx(
            (np.pi - 2.5) / np.pi, abs=1e-12)
        assert res.extension_winding == res.diagnostics["unit_turns"]
        # the perturbed -Id: the sum over the unit pairs split off -1
        res = conley_zehnder(rotation_path(np.pi))
        ext = _Extension(evaluate_array(rotation_path(np.pi), 1.0),
                         DEFAULT_TOL, seed=0)
        assert res.diagnostics["unit_turns"] == ext.unit_turns

    def test_tolerance_fallback_is_recorded(self):
        # n = 8, spectral radius 12: the one exponential's character sample
        # t = 1/64 has a cluster gap inside the ambiguity band at the
        # default tol_eig
        path = path_from_json(json.loads(
            (DATA / "rho_fallback_path.json").read_text()))
        res = conley_zehnder(path)
        assert res.value == HalfInt.from_int(2)
        assert res.diagnostics["rho_fallbacks"] == 1
        assert res.diagnostics["krein_nudges"] == 0
        assert res.diagnostics["rho_samples"] == 3

    def test_krein_nudge_is_recorded(self):
        # a path that meets a degenerate Krein form at one parameter only
        def stack(ts):
            return np.array([krein_degenerate_rotation(0.7) if t == 0.25
                             else rotation(0.7 + t) for t in ts])

        events = Counter()
        g = _rho_map(stack, DEFAULT_TOL, events, 1)
        assert g(np.array([0.25]))[0] == pytest.approx(
            np.exp(1j * (0.7 + 0.25 + 1e-9)))
        assert events == {"krein_nudges": 1}
        assert g(np.array([0.5]))[0] == pytest.approx(np.exp(1.2j))
        assert events == {"krein_nudges": 1}


class TestRhoMapFallback:
    """A failing sample of a stack runs alone; the other samples stay
    stacked, with the values and counts of a sample-by-sample pass."""

    GAP = np.diag([2.0, 2.0 + 3e-7, 0.5, 1.0 / (2.0 + 3e-7)])
    KREIN = direct_sum_many([krein_degenerate_rotation(0.7),
                             np.diag([2.0, 0.5])])
    TS = np.linspace(0.0, 1.0, 9)

    @classmethod
    def stack_at(cls, bad):
        """Stacks of the matrix ``bad[t]`` at each t of ``bad``, of two
        rotations elsewhere."""
        def stack(ts):
            return np.array([bad[t] if t in bad else
                             direct_sum_many([rotation(0.3 + t),
                                              rotation(1.1 - 2 * t)])
                             for t in ts.tolist()])
        return stack

    @staticmethod
    def sample_by_sample(stack_at, ts, power):
        events, out = Counter(), []
        for t, a in zip(ts.tolist(), stack_at(ts)):
            try:
                out.append(cz._rho_robust(a, DEFAULT_TOL, events) ** power)
            except KreinDegenerateError:
                events["krein_nudges"] += 1
                s = t + cz.KREIN_NUDGE if t < 0.5 else t - cz.KREIN_NUDGE
                out.append(cz._rho_robust(stack_at(np.array([s]))[0],
                                          DEFAULT_TOL, events) ** power)
        return np.array(out), events

    @pytest.mark.parametrize("kind", ["GAP", "KREIN"])
    @pytest.mark.parametrize("rows", [(4,), (0, 8), (3, 4)])
    def test_only_failing_samples_run_alone(self, kind, rows, monkeypatch):
        bad = getattr(self, kind)
        stack_at = self.stack_at({float(self.TS[r]): bad for r in rows})
        want, want_events = self.sample_by_sample(stack_at, self.TS, 2)
        alone, robust = [], cz._rho_robust

        def spy(a, tol, events):
            alone.append(np.array(a))
            return robust(a, tol, events)

        monkeypatch.setattr(cz, "_rho_robust", spy)
        events = Counter()
        got = _rho_map(stack_at, DEFAULT_TOL, events, 2)(self.TS)
        assert got.tobytes() == want.tobytes()
        assert events == want_events
        assert events["rho_fallbacks" if kind == "GAP" else "krein_nudges"] \
            == len(rows)
        # a band gap runs the cascade on its own sample; a Krein degeneracy
        # raises there and its nudged neighbour runs alone instead
        per_row = 1 if kind == "GAP" else 2
        assert len(alone) == per_row * len(rows)
        assert all(a.tobytes() == bad.tobytes() for a in alone[::per_row])

    def spy_routes(self, monkeypatch) -> list:
        """The stacks ``rho`` passes to ``spectral._rho_routes``."""
        stacks, routes = [], spectral._rho_routes
        monkeypatch.setattr(spectral, "_rho_routes", lambda stack, tol:
                            stacks.append(stack) or routes(stack, tol))
        return stacks

    def test_a_krein_degeneracy_before_a_band_gap(self, monkeypatch):
        # the stack fails the band check at the gap, an earlier check than
        # the Krein form's; the samples before the gap fail the Krein check
        bad = {float(self.TS[2]): self.KREIN, float(self.TS[6]): self.GAP}
        stack_at = self.stack_at(bad)
        want, want_events = self.sample_by_sample(stack_at, self.TS, 2)
        stacks = self.spy_routes(monkeypatch)
        events = Counter()
        got = _rho_map(stack_at, DEFAULT_TOL, events, 2)(self.TS)
        assert got.tobytes() == want.tobytes()
        assert events == want_events
        assert events["krein_nudges"] == 1 and events["rho_fallbacks"] >= 1
        # the whole stack, the six samples before the gap, the two before
        # the degeneracy, the degenerate sample and its nudged neighbour,
        # the three between the two, then the gap's cascade and the last two
        assert [len(s) for s in stacks[:6]] == [9, 6, 2, 1, 1, 3]
        assert [len(s) for s in stacks[6:]] == \
            [1] * (events["rho_fallbacks"] + 1) + [2]

    @pytest.mark.parametrize("kind", ["GAP", "KREIN"])
    def test_samples_before_a_failing_row_run_in_two_stacks(self, kind,
                                                            monkeypatch):
        stack_at = self.stack_at({float(self.TS[4]): getattr(self, kind)})
        stacks = self.spy_routes(monkeypatch)
        _rho_map(stack_at, DEFAULT_TOL, Counter(), 2)(self.TS)
        runs = Counter(a.tobytes() for stack in stacks for a in stack)
        # the whole stack, then the stack of the four samples before row 4
        assert [runs[a.tobytes()] for a in stack_at(self.TS[:4])] == [2] * 4


class TestPassageScreen:
    """Every +-1 passage located on a path that is not one exponential
    anchors the windings; one exponential winds on a sized grid instead."""

    LOOP_PRODUCT_S = [[-2.0475799163981367, -13.738604255225596],
                      [-13.738604255225596, 0.14910221974364662]]

    def test_loop_product_keeps_anchors(self, monkeypatch):
        path = ProdPath(left=make_loop(-2, 1),
                        right=ExpPath(s_matrix=self.LOOP_PRODUCT_S))
        anchor_sets, wind = [], cz.winding

        def spy_winding(*args, **kwargs):
            if "anchor_ts" in kwargs:
                anchor_sets.append(kwargs["anchor_ts"])
            return wind(*args, **kwargs)

        monkeypatch.setattr(cz, "winding", spy_winding)
        res = conley_zehnder(path)
        assert res.value == HalfInt.from_int(-4)
        assert {round(w) for w in res.diagnostics["windings"].values()} == {-4}
        # the -1 passage at t = 0.3685 has a cell of its own beside the +1
        # passage at 0.3705; the +-1 pairs near 0.6195 and 0.8695 share one
        assert res.diagnostics["passages"] == 6
        # the three [0, 1] windings sample the same anchors, 61 per passage
        assert len(anchor_sets) == 3 and len(anchor_sets[0]) == 6 * 61
        assert anchor_sets[1] == anchor_sets[0] == anchor_sets[2]
        # without anchors the spectral winding misses turns
        monkeypatch.setattr("sympindex.cz._unit_passage_times",
                            lambda path, tol, events: [])
        with pytest.raises(InternalConsistencyError,
                           match="circle maps disagree"):
            conley_zehnder(path)

    def test_slow_rotation_has_no_anchors(self, monkeypatch):
        # an ExpPath runs no passage search: psi is evaluated only where one
        # of the three [0, 1] windings samples it
        evaluated, sampled = [], set()
        build, wind = ExpPath._evaluate, cz.winding

        def spy_evaluate(self, ts):
            evaluated.extend(ts.tolist())
            return build(self, ts)

        def spy_winding(*args, **kwargs):
            out = wind(*args, **kwargs)
            sampled.update(t for t, _ in out[1])
            return out

        def sampled_route(*args):
            raise AssertionError("the sampled passage search ran")

        monkeypatch.setattr(ExpPath, "_evaluate", spy_evaluate)
        monkeypatch.setattr(cz, "winding", spy_winding)
        monkeypatch.setattr(cz, "_unit_passage_times", sampled_route)
        res = conley_zehnder(ExpPath(s_matrix=np.diag([12.0, 12.0])))
        assert res.value == cz_dim2_closed_form(np.diag([12.0, 12.0]), 1.0)
        assert res.diagnostics["passages"] == 0
        # 2 * 12 / pi is below 64 cells
        assert res.diagnostics["grid_cells"] == 64
        assert evaluated and set(evaluated) <= sampled

    def test_one_exponential_takes_the_closed_form(self, monkeypatch):
        # a direct sum of exponentials is one exponential, and so is its
        # conjugate by a constant: neither runs the passage search
        blocks = [np.diag(d) for d in
                  ([7.0, 6.5], [2.0, -1.5], [-9.0, -8.5], [3.0, -2.0])]
        total = sum((cz_dim2_closed_form(b, 1.0) for b in blocks), HalfInt(0))
        joined = DirectSumPath(parts=tuple(ExpPath(s_matrix=b)
                                           for b in blocks))
        k = random_symplectic(4, seed=3, scale=0.3, max_cond=10.0)

        def sampled_route(*args):
            raise AssertionError("the sampled passage search ran")

        monkeypatch.setattr(cz, "_unit_passage_times", sampled_route)
        for path in (joined, ConjPath(phi=ConstPath(k), psi=joined)):
            assert conley_zehnder(path).value == total

    def test_fast_rotation_keeps_every_anchor(self):
        # 95 passages of -1 and +1: the grid of ceil(2 * 300 / pi) cells
        # sees every turn of rho^2 without an anchor
        s = np.diag([300.0, 300.0])
        res = conley_zehnder(ExpPath(s_matrix=s))
        assert res.value == cz_dim2_closed_form(s, 1.0) == HalfInt.from_int(95)
        assert res.diagnostics["passages"] == 0
        assert res.diagnostics["grid_cells"] == 191

    def test_rotation_faster_than_the_grid(self):
        # 222 passages, more than one per cell of the 256-point passage
        # grid: all three circle maps wind on ceil(2 * 700 / pi) cells
        s = np.diag([700.0, 700.0])
        res = conley_zehnder(ExpPath(s_matrix=s))
        assert res.value == cz_dim2_closed_form(s, 1.0) == HalfInt.from_int(223)
        assert res.diagnostics["passages"] == 0
        assert res.diagnostics["grid_cells"] == 446
        for turns in res.diagnostics["windings"].values():
            assert turns == pytest.approx(223.0, abs=1e-9)

    @pytest.mark.parametrize("s,duration", [
        (np.diag([5.0, 9.0]), 1.0),                              # elliptic
        (np.diag([7.0, 2.0, 7.0, -0.5]), 1.0),         # elliptic + hyperbolic
        ([[0.0, 0.0, 0.3, 9.0], [0.0, 0.0, -9.0, 0.3],
          [0.3, -9.0, 0.0, 0.0], [9.0, 0.3, 0.0, 0.0]], 1.0),  # quadruple
        (np.diag([6.0, 11.0, 4.0, 3.0]), 0.7),
        (np.diag([1.0, 0.0]), 1.0),                      # shear: mu = 0
    ])
    def test_closed_form_candidates_match_sampled_route(self, s, duration,
                                                        monkeypatch):
        # the eigenvalues of exp(t M) are e^{t mu}: a unit one, mu = i w,
        # passes +-1 at t = k pi / w, which the sampled route finds; the
        # quadruple's eigenvalues never reach the unit circle and the shear
        # has mu = 0, so they have none
        monkeypatch.setattr(cz, "_passage_anchors",
                            lambda t, events: sorted(t))
        path = ExpPath(s_matrix=s, duration=duration)
        mu = np.linalg.eigvals(duration * path._js)
        rates = mu.imag[(np.abs(mu.real) < 1e-9) & (mu.imag > 1e-9)]
        closed = sorted(k * np.pi / w for w in rates
                        for k in range(1, int(np.ceil(w / np.pi))))
        # every unit rate passes -1 inside [0, 1]
        assert len(closed) >= len(rates)
        times = _unit_passage_times(path, DEFAULT_TOL, Counter())
        assert times == pytest.approx(closed, rel=0, abs=1e-8)

    @pytest.mark.parametrize("seed,n", [(0, 1), (1, 2), (2, 3), (3, 4)])
    def test_sampled_copies_of_conjugated_exponentials(self, seed, n):
        # a SampledPath through 257 samples of P^-1 exp(t J0 D) P takes the
        # sampled passage search; D is a sum of 2 x 2 diagonal blocks
        rng = np.random.default_rng(seed)
        blocks, value = [], HalfInt(0)
        while len(blocks) < n:
            d = np.diag(rng.uniform(-15.0, 15.0, size=2))
            x = np.sqrt(abs(d[0, 0] * d[1, 1])) / (2 * np.pi)
            if np.min(np.abs(np.diag(d))) < 0.3 or abs(x - round(x)) < 0.02:
                continue
            blocks.append(d)
            value = value + cz_dim2_closed_form(d, 1.0)
        p = random_symplectic(n, seed, scale=0.3, max_cond=10.0)
        exact = ExpPath(s_matrix=p.T @ direct_sum_many(blocks) @ p)
        ts = np.linspace(0.0, 1.0, 257)
        sampled = SampledPath(times=ts,
                              matrices=tuple(evaluate_stack(exact, ts)))
        assert conley_zehnder(sampled).value == value

    def test_loop_shift_sweep(self):
        # psi = loop_k * exp(t J S): the family where anchors decide the
        # spectral winding; S random symmetric of spectral radius 2-20
        rng = np.random.default_rng(0)
        passages = 0
        for _ in range(20):
            n = int(rng.integers(1, 3))
            radius = rng.uniform(2.0, 20.0)
            k = int(rng.integers(-2, 3))
            s = rng.normal(size=(2 * n, 2 * n))
            s = s + s.T
            s *= radius / np.max(np.abs(np.linalg.eigvalsh(s)))
            base = conley_zehnder(ExpPath(s_matrix=s)).value
            res = conley_zehnder(
                ProdPath(left=make_loop(k, n), right=ExpPath(s_matrix=s)))
            assert res.value == base + HalfInt.from_int(2 * k)
            passages += res.diagnostics["passages"]
        assert passages > 0

    def test_loop_samples_every_anchor(self, monkeypatch):
        # rho of make_loop(2, 1) passes -1 at t = 1/4 and 3/4 and +1 at
        # t = 1/2; the spectrum turns slowly there, and each passage still
        # anchors the loop's winding with all 61 of its anchors
        events, calls, wind = [], [], cz.winding
        passage_times = cz._unit_passage_times

        def spy_passages(path, tol, counter):
            events.append(counter)
            return passage_times(path, tol, counter)

        def spy_winding(*args, **kwargs):
            out = wind(*args, **kwargs)
            calls.append((kwargs["anchor_ts"], {t for t, _ in out[1]}))
            return out

        monkeypatch.setattr(cz, "_unit_passage_times", spy_passages)
        monkeypatch.setattr(cz, "winding", spy_winding)
        assert maslov_loop(make_loop(2, 1)) == 2
        assert [e["passages"] for e in events] == [3]
        (anchors, sampled), = calls
        # the sampler rounds its parameters to 12 digits
        anchors = {round(t, 12) for t in anchors}
        assert len(anchors) == 3 * 61 and anchors <= sampled

    def test_passage_search_takes_the_callers_profile(self, monkeypatch):
        # the passage search refines the Souriau sampler to the caller's
        # max_refine, not the default profile's
        depths, souriau = [], cz._souriau_winding

        def spy(frames, v, max_refine, coarse):
            depths.append(max_refine)
            return souriau(frames, v, max_refine, coarse)

        monkeypatch.setattr(cz, "_souriau_winding", spy)
        path = ProdPath(left=make_loop(-2, 1),
                        right=ExpPath(s_matrix=self.LOOP_PRODUCT_S))
        shallow = DEFAULT_TOL.with_overrides(max_refine=25)
        assert conley_zehnder(path, shallow).value == HalfInt.from_int(-4)
        assert conley_zehnder(path).value == HalfInt.from_int(-4)
        assert depths == [25, DEFAULT_TOL.max_refine]


# the fast-rotation family: exp(t J0 diag(w, 1.1 w)) at rate w sqrt(1.1),
# on the band where a 64-cell grid lost turns (two of them, keeping the
# parity, at w = 161.7) and at three faster rates
FAST_RATES = [*np.arange(10.0, 400.0, 3.7)[35:52], 600.0, 1500.0, 3000.0]


class TestSizedGrid:
    """A path that is one exponential exp(t M) winds with no anchors on
    max(64, ceil(power sum_{Im mu > 0} Im mu / pi)) cells, mu the
    eigenvalues of M: rho^power moves by at most pi per cell, so no turn
    hides between two samples, however fast the rotation."""

    EXTRA = (np.diag([0.5, -0.7]), np.diag([2.0, 2.5]))

    @pytest.mark.parametrize("w", FAST_RATES, ids=lambda w: f"{w:.1f}")
    def test_fast_rotation_family(self, w):
        s = np.diag([w, 1.1 * w])
        plain = ExpPath(s_matrix=s)
        k = random_symplectic(1, seed=3, scale=0.3, max_cond=10)
        summed = DirectSumPath(parts=(plain,) + tuple(
            ExpPath(s_matrix=b) for b in self.EXTRA))
        ref = cz_dim2_closed_form(s, 1.0)
        extra = sum((cz_dim2_closed_form(b, 1.0) for b in self.EXTRA),
                    HalfInt(0))
        # diag(2, 2.5) adds the rate sqrt(5), diag(0.5, -0.7) none
        for path, value, speed in (
                (plain, ref, w * np.sqrt(1.1)),
                (ConjPath(phi=ConstPath(k), psi=plain), ref, w * np.sqrt(1.1)),
                (summed, ref + extra, w * np.sqrt(1.1) + np.sqrt(5.0))):
            res = conley_zehnder(path)
            assert res.value == value
            assert res.diagnostics["passages"] == 0
            assert res.diagnostics["grid_cells"] == max(
                64, int(np.ceil(2 * speed / np.pi)))

    def test_fast_loop(self):
        # exp(t 2 pi 400 J0) winds rho 400 times on 800 cells, its inverse
        # -400 times; rho is read half a cell in, where it has turned by
        # pi / 2: a whole cell turns it by pi, and -pi reads as pi
        for k in (400, -400):
            path = ExpPath(s_matrix=2 * np.pi * k * np.eye(2))
            assert maslov_loop(path) == k

    def test_duration_scales_the_grid(self):
        s = np.diag([40.0, 48.0])
        res = conley_zehnder(ExpPath(s_matrix=s, duration=3.7))
        assert res.value == cz_dim2_closed_form(s, 3.7) == HalfInt.from_int(51)
        assert res.diagnostics["grid_cells"] == int(
            np.ceil(2 * 3.7 * np.sqrt(40.0 * 48.0) / np.pi))


# a Jordan block of exp(t J0 S) at e^{+-3it}, Krein form indefinite: the
# flow of 3 (q1 p2 - q2 p1) + (q1^2 + q2^2) / 2
_JORDAN = np.zeros((4, 4))
_JORDAN[0, 3] = _JORDAN[3, 0] = 3.0
_JORDAN[1, 2] = _JORDAN[2, 1] = -3.0
_JORDAN[0, 0] = _JORDAN[1, 1] = 1.0

# (S, duration) of exponentials exp(t duration J0 S), each conjugated by a
# seeded constant symplectic matrix in TestCharacter
CHARACTER_CASES = {
    "elliptic+hyperbolic": (np.diag([7.0, 2.0, 7.0, -0.5]), 1.0),
    "loxodromic": ([[0.0, 0.0, 0.3, 9.0], [0.0, 0.0, -9.0, 0.3],
                    [0.3, -9.0, 0.0, 0.0], [9.0, 0.3, 0.0, 0.0]], 1.0),
    # e^{6it} twice, of Krein signs +1 and -1
    "repeated-opposite": (np.diag([6.0, -6.0, 6.0, -6.0]), 1.0),
    # e^{3it} (Krein sign +1) meets e^{i(3 + 4 pi)t} (-1) at t = 1/2
    "colliding-opposite": (np.diag([3.0, -3.0 - 4 * np.pi,
                                    3.0, -3.0 - 4 * np.pi]), 1.0),
    "nilpotent": (direct_sum_many([_JORDAN, 2.0 * np.eye(2)]), 1.0),
    "shear+rotation": (np.diag([1.0, 5.0, 0.0, 5.0]), 1.0),
    "duration": (np.diag([6.0, 11.0, -4.0, 3.0]), 2.5),
}


class TestCharacter:
    """On one exponential rho(exp(tM)) is the character e^{ict}: the
    spectral map runs rho on one sample and reads c there; the windings
    keep their grid and the determinant maps still check it."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(CHARACTER_CASES))
    def test_sampled_rho_is_the_character(self, case, seed):
        s, duration = CHARACTER_CASES[case]
        s = np.asarray(s)
        k = random_symplectic(s.shape[0] // 2, seed, scale=0.3, max_cond=10.0)
        path = ConjPath(phi=ConstPath(k),
                        psi=ExpPath(s_matrix=s, duration=duration))
        for power in (1, 2):
            events = Counter()
            character, cells, anchors = cz._spectral_map(
                path, DEFAULT_TOL, events, power)
            assert anchors == [] and events == {"rho_samples": 1}
            ts = np.arange(cells + 1) / cells
            sampled = _rho_map(partial(evaluate_stack, path), DEFAULT_TOL,
                               Counter(), power)(ts)
            assert np.abs(character(ts) - sampled).max() < 1e-9

    def test_an_exponential_runs_rho_on_one_path_sample(self, monkeypatch):
        rows, spectral_rho = [], cz.rho

        def spy(a, tol):
            rows.append(np.asarray(a))
            return spectral_rho(a, tol)

        monkeypatch.setattr(cz, "rho", spy)
        s = np.diag([7.0, 2.0, 7.0, -0.5])
        k = random_symplectic(2, seed=3, scale=0.3, max_cond=10.0)
        path = ConjPath(phi=ConstPath(k), psi=ExpPath(s_matrix=s))
        res = conley_zehnder(path)
        # psi at the first grid point, then the two ends of the constant
        # bridge
        assert [len(r) for r in rows] == [1, 2]
        assert np.array_equal(rows[0][0], evaluate_array(path, 1 / 64))
        assert res.diagnostics["rho_samples"] == 3
        # a product is sampled at every parameter of its winding, plus the
        # bridge ends
        rows.clear()
        res = conley_zehnder(ProdPath(left=make_loop(1, 2),
                                      right=ExpPath(s_matrix=s)))
        assert sum(len(r) for r in rows) == res.diagnostics["rho_samples"]
        assert res.diagnostics["rho_samples"] == len(res.winding_trace) + 2

    def test_a_conjugated_character_sample_raises(self, monkeypatch):
        # rho(psi_t0) conjugated turns the character backwards; the
        # spectral winding is then no index, and no value is returned
        k = random_symplectic(1, seed=3, scale=0.3, max_cond=10.0)
        path = ConjPath(phi=ConstPath(k),
                        psi=ExpPath(s_matrix=np.diag([12.0, 12.0])))
        assert conley_zehnder(path).value == HalfInt.from_int(3)
        calls, spectral_rho = [], cz.rho

        def conjugated_first(a, tol):
            calls.append(a)
            z = spectral_rho(a, tol)
            return np.conj(z) if len(calls) == 1 else z

        monkeypatch.setattr(cz, "rho", conjugated_first)
        with pytest.raises(InternalConsistencyError):
            conley_zehnder(path)

    def test_a_nudged_character_sample_is_read_at_its_parameter(
            self, monkeypatch):
        # c is arg rho / (t0 + KREIN_NUDGE) when the sample t0 = 1/64 is
        # stepped over; dividing by t0 would be off by 2 * 7 * 64e-9 at t = 1
        path = ExpPath(s_matrix=np.diag([7.0, 7.0]))
        ts = np.arange(65) / 64
        want = _rho_map(partial(evaluate_stack, path), DEFAULT_TOL,
                        Counter(), 2)(ts)
        at_t0, spectral_rho = evaluate_array(path, 1 / 64), cz.rho

        def degenerate_at_t0(a, tol):
            if np.array_equal(np.asarray(a).reshape(-1, 2, 2)[0], at_t0):
                exc = KreinDegenerateError("degenerate Krein form")
                exc.row = 0
                raise exc
            return spectral_rho(a, tol)

        monkeypatch.setattr(cz, "rho", degenerate_at_t0)
        events = Counter()
        character, cells, _ = cz._spectral_map(path, DEFAULT_TOL, events, 2)
        assert cells == 64
        assert events == {"krein_nudges": 1, "rho_samples": 1}
        assert np.abs(character(ts) - want).max() < 1e-9

    def test_loop_character_sample_is_half_a_cell(self):
        # rho winds at c = 2 pi 3 on a loop of 64 cells; the sample is
        # t = 1/128, where the map has moved by 3 pi / 64 < pi / 2
        path = ExpPath(s_matrix=2 * np.pi * 3 * np.eye(2))
        value, trace, cells, events = cz._loop_winding(path, DEFAULT_TOL)
        assert (value, cells) == (3, 64)
        assert events == {"rho_samples": 1}
        assert trace[-1][1] == pytest.approx(6 * np.pi, abs=1e-9)


class TestMaslovLoop:
    def test_canonical_loops(self):
        for n in (1, 2):
            for k in (-1, 0, 1, 3):
                assert maslov_loop(make_loop(k, n)) == k

    def test_constant_path_has_no_passage_candidates(self):
        # the Souriau angles of a constant graph do not move, so no grid
        # cell counts a crossing
        events = Counter()
        assert _unit_passage_times(ConstPath(np.eye(4)), DEFAULT_TOL,
                                   events) == []
        assert events["passages"] == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fast_loops(self, n):
        # the rotation turns by up to 2.5 rad per passage grid cell, more
        # than the Souriau count of a cell can resolve
        for k in (-100, -91, -62, 62, 91, 100):
            assert maslov_loop(make_loop(k, n)) == k

    @pytest.mark.parametrize("k", [62, 91, 100])
    @pytest.mark.parametrize("n", [1, 2])
    def test_counted_cells_step_below_a_quarter_turn(self, k, n,
                                                     monkeypatch):
        # every cell the passage search counts steps sum(lambda) by less
        # than pi/2 as the Souriau sampler sees it, wrapped; at k = 62 and
        # 91 the coarse cells step it by 3.0 and 4.5 and are halved, so the
        # true step stays below pi as well.  At k = 100 the true step of a
        # coarse cell, 4.9, wraps to -1.4 and is not refined.
        cells, split = [], cz._split

        def spy(angles_at, a, b, lam_a, lam_b, *args):
            cells.append((b - a, lam_b.sum(axis=1) - lam_a.sum(axis=1)))
            return split(angles_at, a, b, lam_a, lam_b, *args)

        monkeypatch.setattr(cz, "_split", spy)
        assert maslov_loop(make_loop(k, n)) == k
        widths = np.concatenate([w for w, _ in cells])
        steps = np.angle(np.exp(1j * np.concatenate([s for _, s in cells])))
        assert len(steps) and np.abs(steps).max() < np.pi / 2
        if k < 97:
            assert (4 * np.pi * k * widths).max() < np.pi

    def test_product_of_loops_adds(self):
        p = ProdPath(left=make_loop(2, 2), right=make_loop(-1, 2))
        assert maslov_loop(p) == 1

    def test_non_loop_rejected(self):
        with pytest.raises(ContractError):
            maslov_loop(rotation_path(1.0))


def _diagonal_sweep_path(seed):
    """A seeded direct sum of n in {1, 2} blocks diag(a, b), |a|, |b| in
    [0.3, 15], its closed-form index, summed per block, and the largest
    rate sqrt|ab| of its blocks.  Every elliptic frequency sqrt(ab) keeps
    0.02 * 2 pi from a period.  Paths with seed % 4 >= 2 are conjugated:
    ExpPath(P^T D P) = P^-1 exp(t J0 D) P."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 2
    blocks, value, rate = [], 0, 0.0
    while len(blocks) < n:
        a, b = rng.uniform(-15.0, 15.0, size=2)
        x = np.sqrt(abs(a * b)) / (2 * np.pi)
        if min(abs(a), abs(b)) < 0.3 or (a * b > 0 and abs(x - round(x)) < 0.02):
            continue
        blocks.append(np.diag([a, b]))
        value += 0 if a * b < 0 else int(np.sign(a)) * (1 + 2 * int(np.floor(x)))
        rate = max(rate, 2 * np.pi * x)
    if seed % 4 >= 2:
        p = random_symplectic(n, seed, scale=0.3, max_cond=10)
        path = ExpPath(s_matrix=p.T @ direct_sum_many(blocks) @ p)
    else:
        path = DirectSumPath(parts=tuple(ExpPath(s_matrix=d) for d in blocks))
    return path, value, rate


def _shift_path_windings(monkeypatch, turns: int):
    """Add ``turns`` to each of the three [0, 1] windings of
    ``conley_zehnder`` (the ones given anchors), as if every circle map lost
    or gained the same turns between two samples."""
    def shifted(*args, **kwargs):
        out = winding(*args, **kwargs)
        if "anchor_ts" not in kwargs:
            return out
        return (out[0] + turns,) + out[1:]

    monkeypatch.setattr(cz, "winding", shifted)


class TestParityGuard:
    """The parity rule (-1)^(n - CZ) = sign det(Id - A) catches a turn that
    all three circle maps lose together along [0, 1].  An exponential path
    winds on a grid sized from its generator and loses none, so a count off
    by whole turns on the three [0, 1] windings stands in for the loss.  A
    loss of two turns keeps the parity, and the rule cannot see it."""

    @pytest.mark.parametrize("w", [150.0, 170.0, 185.0])
    def test_a_lost_turn_raises(self, w, monkeypatch):
        s = np.diag([w, 1.1 * w])
        ref = cz_dim2_closed_form(s, 1.0)
        assert conley_zehnder(ExpPath(s_matrix=s)).value == ref
        _shift_path_windings(monkeypatch, -1)
        with pytest.raises(InternalConsistencyError, match="parity rule"):
            conley_zehnder(ExpPath(s_matrix=s))
        _shift_path_windings(monkeypatch, -2)
        assert (conley_zehnder(ExpPath(s_matrix=s)).value
                == ref - HalfInt.from_int(2))

    def test_no_value_of_the_wrong_parity(self, monkeypatch):
        # the sweep 10 + 3.7 k over the band where the 64-cell grid once
        # lost turns, each count off by one turn either way
        for turns in (-1, 1):
            _shift_path_windings(monkeypatch, turns)
            for w in np.arange(10.0, 400.0, 3.7)[35:52]:
                with pytest.raises(InternalConsistencyError,
                                   match="parity rule"):
                    conley_zehnder(ExpPath(s_matrix=np.diag([w, 1.1 * w])))


class TestFailureSurface:
    def test_diagonal_sweep_answers_every_path(self):
        # rates reach 15, where the endpoint's condition number is about
        # e^30: every path must give its closed form
        counts = Counter()
        for seed in range(100):
            path, value, rate = _diagonal_sweep_path(seed)
            try:
                got = conley_zehnder(path).value
                outcome = "ok" if got == HalfInt.from_int(value) else "wrong"
            except SympindexError:
                outcome = "typed"
            except Exception:
                outcome = "untyped"
            counts[3 * int(rate // 3), outcome] += 1  # bands of width 3
        assert {outcome for _, outcome in counts} == {"ok"}, sorted(counts.items())

    def test_repeated_endpoint_spectra(self, monkeypatch):
        # conjugated direct sums of 2 x 2 exponentials whose endpoint
        # spectra repeat, most of them taking the perturbed route; the
        # one typed error is a rho_polar symplectic check on the unwinding
        # of a perturbed endpoint's normal-form basis of cond 95
        rng = np.random.default_rng(2028)
        rates = [1.3, 4.1, 7.7, 11.9]
        calls = TestExtensionRoutes.spy_calls(monkeypatch)
        counts = Counter()
        for i in range(240):
            n = 2 + i % 3
            kind = i % 4
            if kind == 0:
                blocks = [np.diag([2.3, 2.3])] * n
            elif kind == 1:
                blocks = ([np.diag([0.7, -0.7])] * (n - 1)
                          + [np.diag([2.0, 2.0])])
            elif kind == 2:
                signs = rng.choice([-1, 1], size=n)
                blocks = [sign * w * np.eye(2) for sign, w in
                          zip(signs, rng.choice(rates, size=n))]
            else:
                blocks = [rng.choice([np.pi, 3 * np.pi]) * np.eye(2)
                          if j % 2 == 0 else np.diag([0.4, -0.4])
                          for j in range(n)]
            k = random_symplectic(n, seed=i, scale=0.3, max_cond=10)
            path = ConjPath(ConstPath(k), DirectSumPath(
                parts=tuple(ExpPath(s_matrix=b) for b in blocks)))
            closed = [cz_dim2_closed_form(b, 1.0) for b in blocks]
            value = sum(closed[1:], closed[0])
            try:
                outcome = ("ok" if conley_zehnder(path).value == value
                           else "wrong")
            except SympindexError:
                outcome = "typed"
            except Exception:
                outcome = "untyped"
            counts[outcome] += 1
        assert calls["semisimple_perturb"] == 198
        assert counts["wrong"] == counts["untyped"] == 0
        assert counts["typed"] <= 1, counts
