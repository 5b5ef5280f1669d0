import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sympindex import (AdmissibilityError, CatPath, ConjPath, ConstPath,
                       ContractError, DEFAULT_TOL, DirectSumPath, ExpPath,
                       HalfInt, ParameterError, ProdPath, ReversePath,
                       SampledPath, SympindexError, WindingResolutionError,
                       conley_zehnder, cz_dim2_closed_form, evaluate_array,
                       extension_winding, make_loop, maslov_loop,
                       path_from_json, random_symplectic, rho, winding)
from sympindex.cz import _nudged, _unit_passage_times
from conftest import krein_degenerate_rotation, rotation

DATA = Path(__file__).parent / "data"


def exp_path(n=1, seed=0, scale=1.0, duration=1.0):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(2 * n, 2 * n)) * scale
    return ExpPath(s_matrix=0.5 * (s + s.T), duration=duration)


def rotation_path(rate, duration=1.0):
    return ExpPath(s_matrix=rate * np.eye(2), duration=duration)


class TestWindingEngine:
    def test_constant_map_has_zero_winding(self):
        turns, trace, depth = winding(lambda t: 1.0 + 0.0j)
        assert turns == 0.0 and depth == 0
        assert trace[0] == (0.0, 0.0) and trace[-1][0] == 1.0

    def test_uniform_rotation(self):
        for k in (1, -2, 5):
            turns, _, _ = winding(lambda t, k=k: np.exp(2j * np.pi * k * t))
            assert turns == pytest.approx(k, abs=1e-12)

    def test_fast_rotation_triggers_refinement(self):
        turns, _, depth = winding(lambda t: np.exp(2j * np.pi * 40 * t))
        assert turns == pytest.approx(40, abs=1e-9)
        assert depth >= 1

    def test_depth_cap_raises(self):
        with pytest.raises(WindingResolutionError):
            winding(lambda t: np.exp(2j * np.pi * 10.3 * t), max_refine=1,
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

    def test_degenerate_endpoint_rejected(self):
        p = ExpPath(s_matrix=np.zeros((2, 2)))
        with pytest.raises(AdmissibilityError):
            conley_zehnder(p)

    def test_must_start_at_identity(self):
        a = random_symplectic(1, seed=3)
        with pytest.raises(AdmissibilityError):
            conley_zehnder(ConstPath(a))

    def test_eigenvalue_rounding_to_zero_is_typed(self):
        # cond(psi_1) ~ 1.7e16: an eigenvalue of the endpoint rounds to 0
        p = ExpPath(s_matrix=np.array([[-12.49052763, 12.03765861],
                                       [12.03765861, 16.53431942]]))
        with pytest.raises(SympindexError):
            conley_zehnder(p)


class TestIndexProperties:
    def test_rotation_anchor(self):
        # psi(t) = exp(t pi J0): index 1
        assert conley_zehnder(rotation_path(np.pi)).value == HalfInt.from_int(1)

    def test_hyperbolic_anchor(self):
        s = np.diag([1.0, -1.0])
        assert conley_zehnder(ExpPath(s_matrix=s)).value == HalfInt.from_int(0)

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

    def test_tolerance_fallback_is_recorded(self):
        # n = 8, spectral radius 12: one sample of the main winding has a
        # cluster gap inside the ambiguity band at the default tol_eig
        path = path_from_json(json.loads(
            (DATA / "rho_fallback_path.json").read_text()))
        res = conley_zehnder(path)
        assert res.value == HalfInt.from_int(2)
        assert res.diagnostics["rho_fallbacks"] == 1
        assert res.diagnostics["krein_nudges"] == 0

    def test_krein_nudge_is_recorded(self):
        # a sampler that meets a degenerate Krein form at one parameter only
        def sample(t):
            return rho(krein_degenerate_rotation(0.7) if t == 0.25
                       else rotation(0.7 + t))

        events = Counter()
        g = _nudged(sample, events)
        assert g(0.25) == pytest.approx(np.exp(1j * (0.7 + 0.25 + 1e-9)))
        assert events == {"krein_nudges": 1}
        assert g(0.5) == pytest.approx(np.exp(1.2j))
        assert events == {"krein_nudges": 1}


class TestMaslovLoop:
    def test_canonical_loops(self):
        for n in (1, 2):
            for k in (-1, 0, 1, 3):
                assert maslov_loop(make_loop(k, n)) == k

    def test_constant_path_has_no_passage_candidates(self):
        # a flat sigma_min run is not a run of local minima
        assert _unit_passage_times(lambda t: np.eye(4), 4) == []

    def test_product_of_loops_adds(self):
        p = ProdPath(left=make_loop(2, 2), right=make_loop(-1, 2))
        assert maslov_loop(p) == 1

    def test_non_loop_rejected(self):
        with pytest.raises(ContractError):
            maslov_loop(rotation_path(1.0))
