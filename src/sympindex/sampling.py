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


def _unit_samples(f, ts: list[float]) -> list[complex]:
    """The values of the vectorised map ``f`` at ``ts``, on the unit circle."""
    return [normalize_unit(complex(z)) for z in f(np.array(ts))]


def winding(f, max_refine: int = 40, coarse: int = 64, anchor_ts=None):
    """Total unwrapped phase change of a unit-circle map over [0,1], in turns.

    ``f`` is vectorised: it maps an array of parameters to an array of
    values.  Adaptive bisection until every consecutive phase step is below
    ``PHASE_STEP``, breadth first: the coarse grid is one call of ``f``, and
    so is each level of midpoints.  Returns (turns, trace, max_depth) where
    trace is the ordered list of (t, cumulative phase in radians).
    ``anchor_ts`` adds extra initial sample parameters so features invisible
    to the uniform grid (a full sweep between two equal values) still
    trigger refinement.  An interval still unresolved at depth
    ``max_refine`` raises; the leftmost one is named.
    """
    ts = [i / coarse for i in range(coarse + 1)]
    if anchor_ts:
        ts = sorted({round(min(max(float(t), 0.0), 1.0), 12) for t in ts}
                    | {round(min(max(float(t), 0.0), 1.0), 12)
                       for t in anchor_ts})
    zs = _unit_samples(f, ts)
    # intervals (t0, z0, t1, z1) of the current level, in t order
    level = list(zip(ts[:-1], zs[:-1], ts[1:], zs[1:]))
    steps = []                  # (t1, phase step) of every resolved interval
    depth = 0
    while True:
        split = []
        for t0, z0, t1, z1 in level:
            dphi = float(np.angle(z1 / z0))
            if abs(dphi) < PHASE_STEP:
                steps.append((t1, dphi))
            elif depth >= max_refine:
                raise WindingResolutionError(
                    f"phase step {dphi:.3f} at t in [{t0:.6g},{t1:.6g}] "
                    f"not resolved within depth {max_refine}")
            else:
                split.append((t0, z0, t1, z1))
        if not split:
            break
        depth += 1
        mids = [0.5 * (t0 + t1) for t0, _, t1, _ in split]
        level = [half for (t0, z0, t1, z1), tm, zm
                 in zip(split, mids, _unit_samples(f, mids))
                 for half in ((t0, z0, tm, zm), (tm, zm, t1, z1))]

    trace = [(0.0, 0.0)]
    for t1, dphi in sorted(steps):
        trace.append((t1, trace[-1][1] + dphi))
    return trace[-1][1] / (2.0 * np.pi), trace, depth


def _golden_min(curve, a: np.ndarray, b: np.ndarray, width: float):
    """Golden-section minima of ``curve`` on the brackets [a[k], b[k]], in
    lockstep: one curve call per step for every bracket still wider than
    ``width``.  Returns the arrays (t, curve at t)."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = np.split(np.array(curve(np.concatenate([c, d])), dtype=float), 2)
    live = b - a > width
    while live.any():
        # per bracket: keep [a, d] when fc < fd, else [c, b]
        lo = live & (fc < fd)
        hi = live & ~(fc < fd)
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - inv_phi * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + inv_phi * (b[hi] - a[hi])
        vals = curve(np.where(lo, c, d)[live])
        fc[lo] = vals[lo[live]]
        fd[hi] = vals[hi[live]]
        live = b - a > width
    t = 0.5 * (a + b)
    return t, curve(t)


def local_minima(curve, ts, vals, width: float, skip):
    """Refined interior grid minima of a vectorised curve, in grid order.

    A candidate is an interior sample no larger than either neighbour and
    smaller than at least one, so a flat run yields none; indices in
    ``skip`` are never candidates.  Each candidate i is refined by golden
    section on [ts[i-1], ts[i+1]] to ``width``, all candidates in lockstep;
    returns a list of (i, t*, curve at t*).
    """
    found = []
    for i in range(1, len(ts) - 1):
        lo, hi = sorted((vals[i - 1], vals[i + 1]))
        if i not in skip and vals[i] <= lo and vals[i] < hi:
            found.append(i)
    if not found:
        return []
    idx = np.array(found)
    t_star, s_star = _golden_min(curve, np.asarray(ts)[idx - 1],
                                 np.asarray(ts)[idx + 1], width)
    return list(zip(found, t_star.tolist(), s_star.tolist()))


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
