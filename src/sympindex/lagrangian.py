"""Lagrangian frames, crossing forms and the Maslov index of a path.

A Lagrangian subspace of (R^{2m}, Omega) is held as a 2m x m frame of full
column rank with frame.T @ Omega @ frame = 0.  Along a path of Lagrangians,
a crossing with a reference Lagrangian V carries a quadratic form (the
derivative of the path seen as a graph over a fixed complement), and the
index is the signature sum over crossings with half weight at the endpoints.
It is counted without them by the Souriau map W = U U^T conj(U_V U_V^T),
U = X + iY for an orthonormal frame [X; Y] in a Darboux basis, whose
eigenvalue 1 has multiplicity dim(Lambda & V) (Robbin-Salamon, Topology
1993; Howard-Latushkin-Sukhtayev, J. Dyn. Diff. Eq. 2017); the crossing
forms at the crossings the count locates must sum to it.  Where V is
R^m x 0, the eigenvalue angles of W are 2 arctan of the eigenvalues of the
symmetric S = Y X^-1 of any frame [X; Y]; rows with an angle near pi,
where X is near singular, take the complex eig of U U^T instead.  The
count's sampler and split step also find the +-1 passages of ``cz`` on
the graph frames, which share one layout (``_graph_frames``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import as_array, direct_sum_many, is_symplectic, omega_matrix
from .errors import (ConditioningError, ContractError, DimensionError,
                     InternalConsistencyError, IrregularCrossingError,
                     NoCrossingError, UnsupportedStructureError)
from .halfint import HalfInt
from .sampling import bracketed_roots, difference_quotient, winding
from .tolerances import DEFAULT_TOL, ToleranceProfile

__all__ = [
    "LagrangianFrame",
    "CrossingReport",
    "lagrangian_crossing_form",
    "lagrangian_rs_index",
    "graph_lagrangian",
    "doubled_omega",
    "vertical_frame",
    "horizontal_frame",
]


def doubled_omega(n: int) -> np.ndarray:
    """The form (-Omega0) (+) Omega0 on R^{4n}, in the interleaved layout."""
    return direct_sum_many([-omega_matrix(n), omega_matrix(n)])


@dataclass(frozen=True)
class LagrangianFrame:
    """A 2m x m frame spanning a Lagrangian subspace of (R^{2m}, omega)."""

    frame: np.ndarray
    omega: np.ndarray = None

    def __post_init__(self):
        f = np.array(self.frame, dtype=float)
        if f.ndim != 2 or f.shape[0] != 2 * f.shape[1]:
            raise DimensionError(
                f"a Lagrangian frame must be 2m x m, got {f.shape}")
        m = f.shape[1]
        om = self.omega
        om = omega_matrix(m) if om is None else np.array(om, dtype=float)
        if om.shape != (2 * m, 2 * m):
            raise DimensionError("form shape does not match the frame")
        if not (np.isfinite(f).all() and np.isfinite(om).all()):
            raise ContractError("frame and form must have finite entries")
        scale = 1.0 + np.linalg.norm(f) ** 2
        if np.linalg.norm(f.T @ om @ f) > DEFAULT_TOL.tol_form * scale:
            raise ContractError("frame does not span a Lagrangian subspace")
        if np.linalg.matrix_rank(f, tol=1e-10 * max(1.0, np.linalg.norm(f))) < m:
            raise ContractError("Lagrangian frame is rank deficient")
        f.setflags(write=False)
        om.setflags(write=False)
        object.__setattr__(self, "frame", f)
        object.__setattr__(self, "omega", om)

    @property
    def m(self) -> int:
        return self.frame.shape[1]

    def orthonormal(self) -> np.ndarray:
        q, _ = np.linalg.qr(self.frame)
        return q

    @cached_property
    def _darboux_inverse(self) -> np.ndarray:
        """D^-1 for a Darboux basis D = [Q, P] (D^T omega D = Omega0) whose
        Q is an orthonormal frame of V, which D^-1 takes to R^m x 0: P is
        omega^-1 Q, shifted by Q (P^T omega P) / 2 to make it Lagrangian.
        Made on first use and read-only."""
        if np.linalg.cond(self.omega) > 1e12:
            raise ContractError("the symplectic form is degenerate")
        q = self.orthonormal()
        p = np.linalg.solve(self.omega, q)
        p = p + q @ (0.5 * p.T @ self.omega @ p)
        d_inv = np.linalg.inv(np.hstack([q, p]))
        d_inv.setflags(write=False)
        return d_inv


@dataclass(frozen=True)
class CrossingReport:
    """One crossing: where, what intersects, and the quadratic form on it."""

    t: float
    kernel_dim: int
    kernel_basis: np.ndarray
    gamma: np.ndarray
    signature: int
    regular: bool
    weight: float               # 1, or 1/2 for one side of a crossing


def _signature(gamma: np.ndarray, tol_form: float):
    w = np.linalg.eigvalsh(0.5 * (gamma + gamma.T))
    sig = int(np.sum(w > tol_form) - np.sum(w < -tol_form))
    regular = bool(np.min(np.abs(w)) > tol_form)
    return sig, regular


def _kernel(m: np.ndarray, tol_kernel: float, k=None) -> np.ndarray:
    """Right singular vectors (columns) of m below sqrt(tol_kernel), or the
    k of least singular value."""
    _, s, vt = np.linalg.svd(m)
    k = int(np.sum(s < np.sqrt(tol_kernel))) if k is None else k
    return vt[len(s) - k:].T


def lagrangian_crossing_form(frames, t0: float, v: LagrangianFrame,
                             tol: ToleranceProfile = DEFAULT_TOL,
                             w_frame: np.ndarray | None = None) -> np.ndarray:
    """Quadratic crossing form on Lambda_{t0} & V for a Lagrangian path.

    ``frames`` maps t to a LagrangianFrame (or raw 2m x m array).  The path
    near t0 is written as a graph over a complement W of Lambda_{t0}
    (default W = J Lambda_{t0} = -omega Lambda_{t0}); the form is the t
    derivative of that graph map, computed by a Richardson-extrapolated
    finite difference and restricted to the intersection with V.
    """
    return _crossing_form(_stacked(frames, v.m), t0, v, tol, w_frame)[1]


def _stacked(frames, m: int):
    """The map from an array of parameters to the stack of ``frames``,
    checked to be finite 2m x m frames."""
    def stack(ts: np.ndarray) -> np.ndarray:
        out = [f.frame if isinstance(f, LagrangianFrame) else as_array(f)
               for f in map(frames, ts.tolist())]
        if any(f.shape != (2 * m, m) for f in out):
            raise DimensionError(f"expected {2 * m} x {m} frames")
        out = np.array(out)
        if not np.isfinite(out).all():
            raise ContractError("frames must have finite entries")
        return out

    return stack


def _crossing_form(frame_stack, t0: float, v: LagrangianFrame,
                   tol: ToleranceProfile, w_frame=None, side=None, k=None):
    """``lagrangian_crossing_form`` of the path whose frames at an array of
    parameters are the stack ``frame_stack(ts)``: the graph map of the
    difference quotient takes the stack of its four points.  A side of +-1
    differences toward t0 + side * h only; ``k`` is as in ``_kernel``.
    Returns (basis of Lambda_{t0} & V, the form on it)."""
    om = v.omega
    f0 = frame_stack(np.array([t0]))[0]
    q0, _ = np.linalg.qr(f0)
    if w_frame is None:
        w = -om @ q0
    else:
        w = np.asarray(w_frame, dtype=float)
    basis = np.hstack([q0, w])
    if np.linalg.cond(basis) > 1e8:
        raise ConditioningError(
            "supplementary Lagrangian is numerically not transverse")

    # pairing of the Lambda_{t0} basis against the W basis
    pairing = q0.T @ om @ w
    m = q0.shape[1]

    def graph_map(ts: np.ndarray) -> np.ndarray:
        c = np.linalg.solve(basis, frame_stack(ts))
        return c[:, m:] @ np.linalg.inv(c[:, :m])

    h = 1e-5
    if side is None:
        side = 0.0 if t0 - h >= 0.0 and t0 + h <= 1.0 else \
            1.0 if t0 + 2 * h <= 1.0 else -1.0
    mdot = difference_quotient(graph_map, t0, h, side)

    q_full = pairing @ mdot
    q_full = 0.5 * (q_full + q_full.T)

    # coordinates, in the q0 basis, of Lambda_{t0} & V
    v_q = v.orthonormal()
    coords = _kernel(q0 - v_q @ (v_q.T @ q0), tol.tol_kernel, k)
    if coords.shape[1] == 0:
        raise NoCrossingError(f"Lambda(t0={t0}) meets V trivially")
    return q0 @ coords, coords.T @ q_full @ coords


# rows with an eigenvalue s of Y X^-1 this large, an angle within about
# 2e-3 of pi, take the complex eig: 2 arctan(s) errs on an angle near 0 by
# up to about 8e-16 max|s| (measured on random 3 x 3 frames for max|s| from
# 1e3 to 2e9), below 1e-12 here
CAYLEY_MAX = 1e3


def _souriau_angles(frames: np.ndarray):
    """Eigenvalue angles of W, a row per frame of the stack ``frames`` of
    Lagrangian frames [X; Y] in a Darboux basis where V is R^m x 0.

    S = Y X^-1 is symmetric and does not depend on the frame, and
    W = (I + iS)(I - iS)^-1, so the angles are 2 arctan of the eigenvalues
    of S.  That loses an angle near 0 when W has one near -1 (X near
    singular); those rows, and the whole stack when X is singular, take the
    angles of the eigenvalues of U U^T, U = X + iY for an orthonormal frame.
    """
    m = frames.shape[2]
    try:
        # (Y X^-1)^T = X^-T Y^T
        s = np.linalg.solve(np.swapaxes(frames[:, :m], 1, 2),
                            np.swapaxes(frames[:, m:], 1, 2))
    except np.linalg.LinAlgError:
        fallback = np.ones(len(frames), dtype=bool)
    else:
        s = np.linalg.eigvalsh(0.5 * (s + np.swapaxes(s, 1, 2)))
        # a NaN row fails the comparison too
        fallback = ~(np.abs(s).max(axis=1) < CAYLEY_MAX)
    lam = np.empty((len(frames), m))
    if not fallback.all():
        lam[~fallback] = 2.0 * np.arctan(s[~fallback])
    if fallback.any():
        q = np.linalg.qr(frames[fallback])[0]
        u = q[:, :m] + 1j * q[:, m:]
        lam[fallback] = np.angle(np.linalg.eigvals(u @ np.swapaxes(u, 1, 2)))
    return lam


def _doubled_counts(lam: np.ndarray, on: np.ndarray) -> np.ndarray:
    """Twice the Souriau count of each interval between samples, from a row
    per sample of eigenvalue angles of W in (-pi, pi], when arg det W moves
    by less than pi across each; angles marked ``on`` V weigh 0, the others
    +-1/2 by sign."""
    step = np.diff(lam.sum(axis=1))
    return 2 * np.rint((np.angle(np.exp(1j * step)) - step) / (2 * np.pi)
                       ).astype(int) + np.diff(np.sum(np.sign(lam) * ~on, 1))


def _split(angles_at, a, b, lam_a, lam_b, signed, tol: float):
    """Where to split the cells [a, b] with angle rows lam_a, lam_b: the
    secant root, within ``tol``, of the angle nearest 0 (``angles_at`` maps
    an array of t to rows) where ``signed`` and it changes sign, else the
    midpoint.  Returns (the points, which are roots)."""
    def nearest(lam):
        return lam[np.arange(len(lam)), np.argmin(np.abs(lam), axis=1)]

    ga, gb = nearest(lam_a), nearest(lam_b)
    new, signed = 0.5 * (a + b), signed & (ga * gb < 0)
    if signed.any():
        new[signed] = bracketed_roots(
            lambda t: nearest(angles_at(t)), a[signed], b[signed],
            ga[signed], gb[signed], tol, 16)[0]
    return new, signed


def _souriau_winding(frame_stack, v: LagrangianFrame, max_refine: int,
                     coarse: int = 64, anchor_ts=None):
    """One ``winding`` of det W along the path ``frame_stack(ts)`` against
    V on ``coarse`` cells and ``anchor_ts``: its samples step arg det W by
    less than pi/2, as ``_doubled_counts`` asks, unless a coarse cell steps
    it by 3 pi/2 or more.  Returns (sample, angles, trace): ``sample(ts)``
    is ``_souriau_angles`` at ``ts``, kept by t in the dict ``angles``."""
    d_inv, angles = v._darboux_inverse, {}

    def sample(ts: np.ndarray) -> np.ndarray:
        lam = _souriau_angles(d_inv @ frame_stack(ts))
        angles.update(zip(ts.tolist(), lam))
        return lam

    # det W is the product of the eigenvalues
    _, trace, _ = winding(lambda ts: np.exp(1j * sample(ts).sum(axis=1)),
                          max_refine, coarse, anchor_ts)
    return sample, angles, trace


def _souriau_index(frame_stack, v: LagrangianFrame, tol: ToleranceProfile,
                   form_at, junctions=()):
    """Index of the path of Lagrangians ``frame_stack(ts)`` against V.

    In a Darboux basis where V is R^m x 0, W ~ U U^T, whose eigenvalue
    angles are 2 arctan of those of Y X^-1 (``_souriau_angles``, with the
    complex eig of U U^T near an eigenvalue -1).  The count is one
    ``_souriau_winding``, sampled also at the ``junctions`` (kinks).  An
    interval that the crossings found so far do not explain is ``_split``
    on the angle of the eigenvalue nearest 1; so are the cells beside a
    crossing off a kink whose form is irregular, until it is regular or they
    are no wider than 1e-12, as V may hold on into them (a plateau that ends
    between samples).  ``form_at(t, k, side)`` is a basis of k columns of
    the intersection and the crossing form on it, one-sided toward t + side
    h for a side of +-1.
    Returns (HalfInt, crossing reports, trace (t, unwrapped arg det W)).
    """
    near = 2.0 * np.sqrt(tol.tol_kernel)
    scored = {}
    # the ends of [0, 1] and the junctions, as winding rounds them: a
    # crossing on one is scored per side
    kinks = {0.0, 1.0} | {round(float(j), 12) for j in junctions}

    def score(t: float, k: int, side) -> CrossingReport:
        if (t, side) not in scored:
            kernel, gamma = form_at(t, k, side)
            sig, regular = _signature(gamma, tol.tol_form)
            scored[t, side] = CrossingReport(
                t=float(t), kernel_dim=k, kernel_basis=kernel, gamma=gamma,
                signature=sig, regular=regular,
                weight=1.0 if side is None else 0.5)
        if not scored[t, side].regular:
            raise IrregularCrossingError(
                f"irregular crossing at t={t:.8g} (kernel dimension {k})")
        return scored[t, side]

    sample, angles, trace = _souriau_winding(frame_stack, v, tol.max_refine,
                                             anchor_ts=junctions)
    ts, total = np.array([t for t, _ in trace]), None
    for _ in range(tol.max_refine + 1):
        lam = np.array([angles[t] for t in ts.tolist()])
        # on V within near at t = 0 and 1, which sets the index, and within
        # near / 100 inside, which only picks the interval next to a crossing
        # that counts a half: a sample near a crossing stays off V
        on = np.abs(lam) < np.where(np.isin(ts, (0.0, 1.0)), near,
                                    1e-2 * near)[:, None]
        counts = _doubled_counts(lam, on)
        total = int(counts.sum()) if total is None else total
        ks = on.sum(axis=1)
        both = (ks[:-1] > 0) & (ks[1:] > 0)
        varying = both & (ks[:-1] != ks[1:])
        if varying.any():
            raise UnsupportedStructureError(
                f"crossing plateau near t={ts[np.argmax(varying)]:.4g} "
                "with varying kernel dimension")
        # a run of samples on V joined by count 0 is a plateau, scored at
        # its ends; a crossing on a kink is scored per side
        joined = np.concatenate([[True], both & (counts == 0), [True]])
        share = np.zeros((2, len(ts)), dtype=int)   # doubled, per side
        split = np.zeros(len(ts) - 1, dtype=bool)
        reports = []
        for i in np.flatnonzero(ks).tolist():
            kink = ts[i] in kinks
            whole = not (joined[i] or joined[i + 1] or kink)
            for j, side in [(slice(None), None)] if whole else \
                    [(0, -1.0), (1, 1.0)]:
                if not whole and joined[i + j]:
                    continue
                try:
                    reports.append(score(ts[i], int(ks[i]), side))
                except IrregularCrossingError:
                    # off a kink, V may hold on into the cells on this side
                    # (i - 1, i, or both), where the form is 0: those wider
                    # than 1e-12 are split
                    if kink:
                        raise
                    wide = np.diff(ts[i - 1:i + 2]) > 1e-12
                    if not wide[j].any():
                        raise
                    split[i - 1:i + 1][j] |= wide[j]
                    continue
                share[j, i] = reports[-1].signature
        left = np.flatnonzero(((counts != share[1, :-1] + share[0, 1:]) | split)
                              & (np.diff(ts) > 1e-12))
        if not len(left):
            break
        new, signed = _split(sample, ts[left], ts[left + 1], lam[left],
                             lam[left + 1],
                             (ks[left] == 0) & (ks[left + 1] == 0), 1e-6 * near)
        if not signed.all():
            sample(new[~signed])
        ts = np.union1d(ts, new)

    forms = sum(r.signature * round(2 * r.weight) for r in reports)
    if forms != total:
        raise InternalConsistencyError(
            f"Souriau count {HalfInt(total)} but the crossing forms sum to "
            f"{HalfInt(forms)}")
    return HalfInt(total), reports, trace


def lagrangian_rs_index(frames, v: LagrangianFrame,
                        tol: ToleranceProfile = DEFAULT_TOL):
    """Maslov index of a path of Lagrangians against V: the Souriau count,
    returned only when the crossing forms at the crossings it locates sum
    to it (interior regular crossings their signature, the endpoints half
    of it).

    ``frames`` maps t to a LagrangianFrame (or raw 2m x m array).  Returns
    (HalfInt, crossing reports, trace) where the trace rows are (t,
    unwrapped arg det W in radians), the samples of its winding.
    """
    frame_stack = _stacked(frames, v.m)
    return _souriau_index(
        frame_stack, v, tol, lambda t, k, side: _crossing_form(
            frame_stack, t, v, tol, side=side, k=k))


def _graph_frames(stack: np.ndarray) -> np.ndarray:
    """The graph frames [x; A x] of a stack of matrices A in the layout of
    ``doubled_omega``: rows by (e/f half, summand, index)."""
    n, eye = stack.shape[-1] // 2, np.broadcast_to(np.eye(stack.shape[-1]),
                                                   stack.shape)
    return np.concatenate([eye[:, :n], stack[:, :n], eye[:, n:],
                           stack[:, n:]], axis=1)


def graph_lagrangian(a) -> LagrangianFrame:
    """Graph {(x, Ax)} of a symplectic map, Lagrangian for (-Omega0)(+)Omega0."""
    arr = as_array(a)
    if not is_symplectic(arr):
        raise ContractError("graph_lagrangian requires a symplectic matrix")
    return LagrangianFrame(frame=_graph_frames(arr[None])[0],
                           omega=doubled_omega(arr.shape[0] // 2))


def vertical_frame(n: int) -> LagrangianFrame:
    """The Lagrangian {0} x R^n in (R^{2n}, Omega0)."""
    f = np.zeros((2 * n, n))
    f[n:, :] = np.eye(n)
    return LagrangianFrame(frame=f)


def horizontal_frame(n: int) -> LagrangianFrame:
    """The Lagrangian R^n x {0} in (R^{2n}, Omega0)."""
    f = np.zeros((2 * n, n))
    f[:n, :] = np.eye(n)
    return LagrangianFrame(frame=f)
