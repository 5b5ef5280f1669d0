"""Search primitives shared by the index routes.

The adaptive winding sampler of the circle maps, the grid-minimum search
that the passage search and the crossing scans run on a vectorised
sigma_min curve (a map from an array of parameters to an array of values),
and the Richardson difference quotient behind generators and crossing forms.
"""

from __future__ import annotations

import numpy as np

from .core import normalize_unit
from .errors import WindingResolutionError

__all__ = ["PHASE_STEP", "winding", "local_minima", "difference_quotient"]

# the sampler refines every interval whose phase step is not below this; the
# passage screen keeps a passage's anchors when the spectrum moves this much
PHASE_STEP = 0.5 * np.pi


def winding(f, max_refine: int = 40, coarse: int = 64, anchor_ts=None):
    """Total unwrapped phase change of a unit-circle map over [0,1], in turns.

    Adaptive bisection until every consecutive phase step is below
    ``PHASE_STEP``; returns (turns, trace, max_depth) where trace is the
    ordered list of (t, cumulative phase in radians).  ``anchor_ts`` adds
    extra initial sample parameters so features invisible to the uniform
    grid (a full sweep between two equal values) still trigger refinement.
    """
    ts = [i / coarse for i in range(coarse + 1)]
    if anchor_ts:
        ts = sorted({round(min(max(float(t), 0.0), 1.0), 12) for t in ts}
                    | {round(min(max(float(t), 0.0), 1.0), 12)
                       for t in anchor_ts})
    zs = [normalize_unit(complex(f(t))) for t in ts]

    trace_t = [0.0]
    trace_phase = [0.0]
    max_depth = 0

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


def _golden_min(curve, a: float, b: float, width: float):
    """Golden-section minimum of ``curve`` on [a, b]: (t, curve at t)."""
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


def local_minima(curve, ts, vals, width: float, skip):
    """Refined interior grid minima of a vectorised curve, in grid order.

    A candidate is an interior sample no larger than either neighbour and
    smaller than at least one, so a flat run yields none; indices in
    ``skip`` are never candidates.  Each candidate i is refined by golden
    section on [ts[i-1], ts[i+1]] to ``width``; yields (i, t*, curve at t*).
    """
    for i in range(1, len(ts) - 1):
        lo, hi = sorted((vals[i - 1], vals[i + 1]))
        if i not in skip and vals[i] <= lo and vals[i] < hi:
            yield (i, *_golden_min(curve, ts[i - 1], ts[i + 1], width))


def difference_quotient(f, t: float, h: float, side: float = 0.0):
    """df/dt at t: second-order differences with one Richardson level.

    Central for ``side`` 0; one-sided toward t + side * h for side +-1.
    """
    def quotient(step):
        if not side:
            return (f(t + step) - f(t - step)) / (2 * step)
        s = side * step
        return (-3.0 * f(t) + 4.0 * f(t + s) - f(t + 2 * s)) / (2 * s)

    return (4.0 * quotient(h / 2) - quotient(h)) / 3.0
