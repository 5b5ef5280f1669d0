import numpy as np
import pytest
import scipy.linalg as sla

from sympindex import WindingResolutionError
from sympindex.core import j_matrix, normalize_unit
from sympindex.sampling import (PHASE_STEP, _golden_min, difference_quotient,
                                local_minima, winding)


def scalar_golden_min(curve, a, b, width):
    """The golden section one bracket at a time, as it ran before the
    lockstep search: the reference for ``_golden_min``."""
    def f(t):
        return curve(np.array([t]))[0]

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > width:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return t, f(t)


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


def _minima(vals, skip=()):
    vals = np.asarray(vals, dtype=float)
    ts = np.linspace(0.0, 1.0, len(vals))

    def curve(t):
        return np.interp(t, ts, vals)

    return [i for i, _, _ in local_minima(curve, ts, vals, 1e-8, skip)]


class TestLocalMinima:
    def test_flat_run_gives_no_candidate(self):
        assert _minima([2.0, 2.0, 2.0, 2.0, 2.0]) == []
        # only the run's ends, each below an outer neighbour, are candidates
        assert _minima([3.0, 1.0, 1.0, 1.0, 3.0]) == [1, 3]

    def test_equal_pair_gives_both(self):
        assert _minima([3.0, 1.0, 1.0, 3.0]) == [1, 2]

    def test_strict_minimum_is_refined(self):
        ts = np.linspace(0.0, 1.0, 9)

        def curve(t):
            return (t - 0.3) ** 2

        ((i, t_star, s_star),) = local_minima(curve, ts, curve(ts), 1e-10, ())
        assert i == 2
        assert t_star == pytest.approx(0.3, abs=1e-9)
        assert s_star == pytest.approx(0.0, abs=1e-15)

    def test_skip_is_honoured(self):
        vals = [3.0, 1.0, 2.0, 0.5, 2.0]
        assert _minima(vals) == [1, 3]
        assert _minima(vals, skip={3}) == [1]
        assert _minima(vals, skip={1, 3}) == []


class TestLockstepSearches:
    @staticmethod
    def wavy(ts):
        # seven interior minima of different depths on [0, 1]
        return np.cos(14 * np.pi * ts) + 0.3 * ts + 0.05 * np.sin(40 * ts)

    def test_golden_matches_the_scalar_search_bitwise(self):
        ts = np.linspace(0.0, 1.0, 65)
        vals = self.wavy(ts)
        calls = []

        def curve(t):
            calls.append(len(t))
            return self.wavy(t)

        found = local_minima(curve, ts, vals, 1e-10, ())
        assert len(found) >= 5
        assert len(calls) <= 50
        for i, t_star, s_star in found:
            ref = scalar_golden_min(self.wavy, ts[i - 1], ts[i + 1], 1e-10)
            assert (t_star, s_star) == ref

    def test_golden_brackets_of_different_widths(self):
        a = np.array([0.0, 0.1, 0.5])
        b = np.array([0.3, 0.11, 0.9])
        t, vals = _golden_min(self.wavy, a, b, 1e-9)
        for k in range(3):
            assert (t[k], vals[k]) == scalar_golden_min(self.wavy, a[k], b[k],
                                                        1e-9)

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


class TestDifferenceQuotient:
    S = np.array([[2.0, 0.5], [0.5, -1.0]])

    def _path(self):
        js = j_matrix(1) @ self.S
        return (lambda t: sla.expm(t * js)), js

    @pytest.mark.parametrize("side", [0.0, 1.0, -1.0])
    def test_matches_exponential_derivative(self, side):
        f, js = self._path()
        t = 0.4
        d = difference_quotient(f, t, 1e-5, side)
        assert np.linalg.norm(d - js @ f(t)) < 1e-8

    def test_one_sided_stays_on_its_side(self):
        f, js = self._path()
        seen = []

        def g(t):
            seen.append(t)
            return f(t)

        difference_quotient(g, 0.0, 1e-5, 1.0)
        assert min(seen) == 0.0
        seen.clear()
        difference_quotient(g, 1.0, 1e-5, -1.0)
        assert max(seen) == 1.0
