import numpy as np
import pytest
import scipy.linalg as sla

from sympindex import ContractError, WindingResolutionError
from sympindex.core import j_matrix, normalize_unit
from sympindex.sampling import (PHASE_STEP, bracketed_roots,
                                difference_quotient, winding)


def recursive_winding(f, max_refine=40, coarse=64, anchor_ts=None):
    """The depth-first winding sampler of a scalar map, as it ran before the
    breadth-first one: the reference for ``winding``."""
    ts = [i / coarse for i in range(coarse + 1)]
    if anchor_ts:
        ts = sorted({round(min(max(float(t), 0.0), 1.0), 12) for t in ts}
                    | {round(min(max(float(t), 0.0), 1.0), 12)
                       for t in anchor_ts})
    zs = [normalize_unit(complex(f(t))) for t in ts]
    trace_t, trace_phase, max_depth = [0.0], [0.0], 0

    def rec(t0, z0, t1, z1, depth):
        nonlocal max_depth
        dphi = float(np.angle(z1 / z0))
        if abs(dphi) < PHASE_STEP:
            trace_t.append(t1)
            trace_phase.append(trace_phase[-1] + dphi)
            return
        if depth >= max_refine:
            raise WindingResolutionError(
                f"phase step {dphi:.3f} at t in [{t0:.6g},{t1:.6g}] "
                f"not resolved within depth {max_refine}")
        max_depth = max(max_depth, depth + 1)
        tm = 0.5 * (t0 + t1)
        zm = normalize_unit(complex(f(tm)))
        rec(t0, z0, tm, zm, depth + 1)
        rec(tm, zm, t1, z1, depth + 1)

    for i in range(len(ts) - 1):
        rec(ts[i], zs[i], ts[i + 1], zs[i + 1], 0)
    turns = trace_phase[-1] / (2.0 * np.pi)
    return turns, list(zip(trace_t, trace_phase)), max_depth


def vectorised(f, calls=None):
    """The map f applied entry by entry, so both samplers see equal values;
    each call's parameters are appended to ``calls``."""
    def g(ts):
        if calls is not None:
            calls.append(len(ts))
        return np.array([f(t) for t in ts])
    return g


class TestLockstepSearches:
    def test_secant_roots_in_lockstep(self):
        # one root of cos(14 pi t), at (2j + 1) / 28, in each bracket
        calls = []

        def f(t):
            calls.append(len(t))
            return np.cos(14 * np.pi * t)

        a, b = np.array([0.0, 0.09, 0.15]), np.array([0.06, 0.13, 0.2])
        t, ft = bracketed_roots(f, a, b, f(a), f(b), 1e-12, 16)
        assert np.allclose(t, np.array([1, 3, 5]) / 28, rtol=0, atol=1e-12)
        assert np.all(np.abs(ft) <= 1e-12)
        assert calls[0] == calls[1] == 3 and len(calls) <= 2 + 16
        calls.clear()
        bracketed_roots(f, a, b, f(a), f(b), 1e-12, 2)
        assert len(calls) == 2 + 2

    @pytest.mark.parametrize("anchored", [False, True])
    def test_winding_matches_the_recursive_sampler(self, anchored):
        if anchored:
            # a full turn within [0.30, 0.305], between two grid samples:
            # only the anchors make the sampler look there
            def f(t):
                s = min(max((t - 0.3) / 0.005, 0.0), 1.0)
                return np.exp(2j * np.pi * s * s * (3 - 2 * s))
            kwargs = {"anchor_ts": [0.301, 0.3025, 0.304]}
        else:
            def f(t):
                return np.exp(2j * np.pi * 40 * t)
            kwargs = {}
        calls = []
        got = winding(vectorised(f, calls), **kwargs)
        ref = recursive_winding(f, **kwargs)
        assert got == ref
        assert round(got[0]) == (1 if anchored else 40)
        assert got[2] >= 1
        # the grid is one call, then one call per refinement level
        assert len(calls) == 1 + got[2]

    def test_unresolved_interval_names_the_leftmost(self):
        def f(t):
            return np.exp(2j * np.pi * 10.3 * t)

        with pytest.raises(WindingResolutionError) as ref:
            recursive_winding(f, max_refine=1, coarse=4)
        with pytest.raises(WindingResolutionError) as got:
            winding(vectorised(f), max_refine=1, coarse=4)
        assert str(got.value) == str(ref.value)
        assert "[0,0.125]" in str(got.value)

    def test_non_finite_map_fails_at_once(self):
        calls = []

        def f(ts):
            calls.append(len(ts))
            return np.where(ts < 0.5, 1.0 + 0j, np.nan)

        with pytest.raises(ContractError, match="non-finite"):
            winding(f, max_refine=4)
        assert calls == [65]

    @staticmethod
    def chirp(t):
        # the phase speed grows as t^2: intervals near t = 1 split over
        # two levels, those near 0 over none
        return np.exp(2j * np.pi * (12 * t ** 3 + 3 * t))

    @pytest.mark.parametrize("anchor_ts", [None, [0.1234, 0.5, 0.77777]])
    def test_array_levels_match_the_recursive_sampler(self, anchor_ts):
        got = winding(vectorised(self.chirp), anchor_ts=anchor_ts)
        ref = recursive_winding(self.chirp, anchor_ts=anchor_ts)
        assert [t for t, _ in got[1]] == [t for t, _ in ref[1]]
        assert got[2] == ref[2] == 2
        assert max(abs(p - q) for (_, p), (_, q) in zip(got[1], ref[1])) \
            <= 1e-12
        assert abs(got[0] - ref[0]) <= 1e-12 and round(got[0]) == 15
        assert all(type(t) is float and type(p) is float for t, p in got[1])

    @pytest.mark.parametrize("max_refine", [0, 1])
    def test_depth_cap_names_the_recursive_samplers_interval(self,
                                                             max_refine):
        with pytest.raises(WindingResolutionError) as ref:
            recursive_winding(self.chirp, max_refine=max_refine)
        with pytest.raises(WindingResolutionError) as got:
            winding(vectorised(self.chirp), max_refine=max_refine)
        assert str(got.value) == str(ref.value)



def scalar_difference_quotient(f, t, h, side=0.0):
    """The difference quotient of a scalar map, point by point, as it ran
    before the vectorised one: the reference for ``difference_quotient``."""
    def quotient(step):
        if not side:
            return (f(t + step) - f(t - step)) / (2 * step)
        s = side * step
        return (-3.0 * f(t) + 4.0 * f(t + s) - f(t + 2 * s)) / (2 * s)

    return (4.0 * quotient(h / 2) - quotient(h)) / 3.0


class TestDifferenceQuotient:
    S = np.array([[2.0, 0.5], [0.5, -1.0]])

    def _path(self):
        js = j_matrix(1) @ self.S
        return (lambda ts: sla.expm(np.asarray(ts)[:, None, None] * js)), js

    @pytest.mark.parametrize("side", [0.0, 1.0, -1.0])
    def test_matches_exponential_derivative(self, side):
        f, js = self._path()
        t = 0.4
        d = difference_quotient(f, t, 1e-5, side)
        assert np.linalg.norm(d - js @ f([t])[0]) < 1e-8

    def test_one_sided_stays_on_its_side(self):
        f, js = self._path()
        seen = []

        def g(ts):
            seen.extend(ts.tolist())
            return f(ts)

        difference_quotient(g, 0.0, 1e-5, 1.0)
        assert min(seen) == 0.0
        seen.clear()
        difference_quotient(g, 1.0, 1e-5, -1.0)
        assert max(seen) == 1.0
        # a step that would leave [0, 1] shrinks to fit between t and 1
        for t, side in [(1.0 - 4e-6, 1.0), (4e-6, -1.0)]:
            seen.clear()
            d = difference_quotient(g, t, 1e-5, side)
            assert min(seen) == (t if side > 0 else 0.0)
            assert max(seen) == (1.0 if side > 0 else t)
            assert np.linalg.norm(d - js @ f([t])[0]) < 1e-8

    @pytest.mark.parametrize("t, side", [(0.4, 0.0), (0.0, 1.0), (0.4, 1.0),
                                         (1.0, -1.0), (0.4, -1.0)])
    def test_one_call_bitwise_equal_to_the_scalar_rule(self, t, side):
        f, js = self._path()
        calls = []

        def g(ts):
            calls.append(ts.tolist())
            return f(ts)

        d = difference_quotient(g, t, 1e-5, side)
        assert len(calls) == 1 and len(calls[0]) == 4
        ref = scalar_difference_quotient(lambda u: sla.expm(u * js), t, 1e-5,
                                         side)
        assert d.tobytes() == ref.tobytes()
