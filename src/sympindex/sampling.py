"""Search primitives shared by the index routes.

The adaptive winding sampler of the circle maps and of the Souriau map, the
bracketed secant search that locates crossings and +-1 passages as sign
changes of a vectorised angle (a map from an array of parameters to an
array of values), and the Richardson difference quotient behind generators
and crossing forms, which takes a vectorised map too.
"""

from __future__ import annotations

import numbers

import numpy as np

from .core import normalize_unit
from .errors import ParameterError, WindingResolutionError

__all__ = ["PHASE_STEP", "winding", "bracketed_roots", "difference_quotient"]

# the sampler refines every interval whose phase step is not below this
PHASE_STEP = 0.5 * np.pi


def _unit_samples(f, ts: np.ndarray) -> np.ndarray:
    """The values of the vectorised map ``f`` at ``ts``, on the unit circle."""
    return normalize_unit(np.asarray(f(ts), dtype=complex))


def winding(f, max_refine: int = 40, coarse: int = 64, anchor_ts=None):
    """Total unwrapped phase change of a unit-circle map over [0,1], in turns.

    ``f`` is vectorised: it maps an array of parameters to an array of
    values.  Adaptive bisection until every consecutive phase step is below
    ``PHASE_STEP``, breadth first: the coarse grid is one call of ``f``, and
    so is each level of midpoints, whose intervals are held as arrays in t
    order; the resolved steps are summed once, in t order.  Returns
    (turns, trace, max_depth) where trace is the ordered list of
    (t, cumulative phase in radians).
    ``anchor_ts`` adds extra initial sample parameters so features invisible
    to the uniform grid (a full sweep between two equal values) still
    trigger refinement.  An interval still unresolved at depth
    ``max_refine`` raises; the leftmost one is named.

    Precondition: the phase turns by less than 3*pi/2 across each initial
    cell.  A turn of 3*pi/2 or more can wrap to a step below ``PHASE_STEP``
    that is summed unrefined, and the count aliases with no error:
    exp(2 pi i (60 t^3 + 3 t)) gives 22 turns for 63 on the default grid,
    exp(12 pi i t) 4 for 6 at ``coarse=4``.
    """
    if not (isinstance(coarse, numbers.Integral) and coarse >= 1):
        raise ParameterError(f"coarse must be a positive integer, got {coarse!r}")
    ts = [i / coarse for i in range(coarse + 1)]
    if anchor_ts:
        ts = sorted({round(min(max(float(t), 0.0), 1.0), 12) for t in ts}
                    | {round(min(max(float(t), 0.0), 1.0), 12)
                       for t in anchor_ts})
    ts = np.array(ts)
    zs = _unit_samples(f, ts)
    # the intervals [t0, t1] of the current level, in t order, with their
    # end values z0, z1
    t0, z0, t1, z1 = ts[:-1], zs[:-1], ts[1:], zs[1:]
    ends, steps = [], []        # t1 and phase step of each resolved interval
    depth = 0
    while True:
        dphi = np.angle(z1 / z0)
        fine = np.abs(dphi) < PHASE_STEP
        ends.append(t1[fine])
        steps.append(dphi[fine])
        if fine.all():
            break
        if depth >= max_refine:
            i = np.argmin(fine)
            raise WindingResolutionError(
                f"phase step {dphi[i]:.3f} at t in [{t0[i]:.6g},{t1[i]:.6g}] "
                f"not resolved within depth {max_refine}")
        depth += 1
        t0, z0, t1, z1 = (a[~fine] for a in (t0, z0, t1, z1))
        tm = 0.5 * (t0 + t1)
        zm = _unit_samples(f, tm)
        # each interval gives way to its two halves, in t order
        t0, t1 = np.stack([t0, tm], 1).ravel(), np.stack([tm, t1], 1).ravel()
        z0, z1 = np.stack([z0, zm], 1).ravel(), np.stack([zm, z1], 1).ravel()

    ends = np.concatenate(ends)
    order = np.argsort(ends)
    phases = np.cumsum(np.concatenate(steps)[order])
    trace = [(0.0, 0.0)] + list(zip(ends[order].tolist(), phases.tolist()))
    return trace[-1][1] / (2.0 * np.pi), trace, depth


def bracketed_roots(f, a, b, fa, fb, tol: float, steps: int):
    """Zeros of a vectorised ``f`` on the brackets [a[k], b[k]], whose end
    values fa, fb differ in sign: secant steps with the Illinois rule, in
    lockstep, until |f| <= tol or ``steps`` calls.  Returns (t, f at t)."""
    a, b, fa, fb = (np.array(x, dtype=float) for x in (a, b, fa, fb))
    t, ft = 0.5 * (a + b), np.full(len(a), np.inf)
    for _ in range(steps):
        k = np.flatnonzero(np.abs(ft) > tol)
        if not len(k):
            break
        t[k] = (a[k] * fb[k] - b[k] * fa[k]) / (fb[k] - fa[k])
        ft[k] = f(t[k])
        # keep [b, t] where the sign flips at t, else [a, t] with f(a) halved
        flip = ft[k] * fb[k] < 0
        a[k] = np.where(flip, b[k], a[k])
        fa[k] = np.where(flip, fb[k], fa[k] / 2)
        b[k], fb[k] = t[k], ft[k]
    return t, ft


def difference_quotient(f, t: float, h: float, side: float = 0.0):
    """df/dt at t: second-order differences with one Richardson level.

    ``f`` is vectorised, and the four points are one call of it.  Central
    for ``side`` 0; one-sided toward t + side * h for side +-1, with h at
    most half the way to the end of [0, 1] on that side.
    """
    # fk is f at k half steps h / 2 from t (toward side), fmk at -k
    if not side:
        f1, fm1, f2, fm2 = f(np.array([t + h / 2, t - h / 2, t + h, t - h]))
        half = (f1 - fm1) / (2 * (h / 2))
        full = (f2 - fm2) / (2 * h)
    else:
        h = min(h, (1.0 - t if side > 0 else t) / 2)
        s1, s2 = side * (h / 2), side * h
        # t + 2 * s1 is t + s2: halving and doubling are exact
        f0, f1, f2, f4 = f(np.array([t, t + s1, t + s2, t + 2 * s2]))
        half = (-3.0 * f0 + 4.0 * f1 - f2) / (2 * s1)
        full = (-3.0 * f0 + 4.0 * f2 - f4) / (2 * s2)
    return (4.0 * half - full) / 3.0
