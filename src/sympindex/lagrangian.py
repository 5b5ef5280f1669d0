"""Lagrangian frames, crossing forms and the crossing-sum Maslov index.

A Lagrangian subspace of (R^{2m}, Omega) is held as a 2m x m frame of full
column rank with frame.T @ Omega @ frame = 0.  Along a path of Lagrangians,
a crossing with a reference Lagrangian V carries a quadratic form (the
derivative of the path seen as a graph over a fixed complement), and the
index is the signature sum over crossings with half weight at the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import direct_sum_many, omega_matrix
from .errors import (ConditioningError, ContractError, DimensionError,
                     IrregularCrossingError, NoCrossingError,
                     UnsupportedStructureError, WindingResolutionError)
from .halfint import HalfInt
from .sampling import difference_quotient, local_minima
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


@dataclass(frozen=True)
class CrossingReport:
    """One crossing: where, what intersects, and the quadratic form on it."""

    t: float
    kernel_dim: int
    kernel_basis: np.ndarray
    gamma: np.ndarray
    signature: int
    regular: bool
    weight: float               # 1 interior, 1/2 at a global endpoint


def _signature(gamma: np.ndarray, tol_form: float):
    w = np.linalg.eigvalsh(0.5 * (gamma + gamma.T))
    sig = int(np.sum(w > tol_form) - np.sum(w < -tol_form))
    regular = bool(np.min(np.abs(w)) > tol_form)
    return sig, regular


def _as_frame(value) -> np.ndarray:
    if isinstance(value, LagrangianFrame):
        return value.frame
    return np.asarray(value, dtype=float)


def _kernel(m: np.ndarray, tol_kernel: float) -> np.ndarray:
    """Right singular vectors (columns) of m below sqrt(tol_kernel)."""
    _, s, vt = np.linalg.svd(m)
    return vt[len(s) - int(np.sum(s < np.sqrt(tol_kernel))):].T


def _intersection_coords(f0_q: np.ndarray, v_q: np.ndarray, tol_kernel: float):
    """Coordinates (in the f0_q column basis) of span(f0_q) & span(v_q)."""
    return _kernel(f0_q - v_q @ (v_q.T @ f0_q), tol_kernel)


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
    om = v.omega
    f0 = _as_frame(frames(t0))
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

    def graph_map(t: float) -> np.ndarray:
        c = np.linalg.solve(basis, _as_frame(frames(t)))
        x, y = c[: q0.shape[1]], c[q0.shape[1]:]
        return y @ np.linalg.inv(x)

    h = 1e-5
    side = 0.0 if t0 - h >= 0.0 and t0 + h <= 1.0 else \
        1.0 if t0 + 2 * h <= 1.0 else -1.0
    mdot = difference_quotient(graph_map, t0, h, side)

    q_full = pairing @ mdot
    q_full = 0.5 * (q_full + q_full.T)

    coords = _intersection_coords(q0, v.orthonormal(), tol.tol_kernel)
    if coords.shape[1] == 0:
        raise NoCrossingError(f"Lambda(t0={t0}) meets V trivially")
    return coords.T @ q_full @ coords


# sigma_min samples of a crossing scan: SCAN_GRID + 1 points on [0, 1]
SCAN_GRID = 512


def _scan_crossings(smin, kernel_dim_at, tol: ToleranceProfile):
    """Locate the zeros of a vectorised sigma_min curve on [0, 1].

    Every ``local_minima`` candidate of the grid samples is refined by
    golden section; minima that refine to (numerical) zero are crossings.
    Sustained near-zero runs are plateaus: scored 0 when the kernel
    dimension is constant across the run, rejected otherwise.  Returns
    (crossing times, trace rows (t, smin, flag)).
    """
    grid = SCAN_GRID
    ts = np.linspace(0.0, 1.0, grid + 1)
    vals = smin(ts)
    near = np.sqrt(tol.tol_kernel)
    hit = 100.0 * tol.tol_kernel
    flags = vals < near
    trace = [(float(t), float(s), int(f))
             for t, s, f in zip(ts, vals, flags)]

    if flags.all():
        dims = {kernel_dim_at(t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)}
        if len(dims) != 1:
            raise UnsupportedStructureError(
                "kernel dimension varies along a full-length plateau")
        return [], trace

    # grid indices split into runs of equal flag; a flagged run of more
    # than three samples is a plateau
    plateau_idx = set()
    for run in np.split(np.arange(grid + 1), np.flatnonzero(np.diff(flags)) + 1):
        if flags[run[0]] and len(run) > 3:
            dims = {kernel_dim_at(t) for t in ts[run]}
            if len(dims) != 1:
                raise UnsupportedStructureError(
                    f"crossing plateau near t={ts[run[0]]:.4g} "
                    "with varying kernel dimension")
            plateau_idx.update(run.tolist())

    crossings = []
    if vals[0] < hit and 0 not in plateau_idx:
        crossings.append(0.0)
    for _, t_star, s_star in local_minima(smin, ts, vals, 1e-10, plateau_idx):
        if s_star < hit:
            if t_star < ts[1]:
                t_star = 0.0 if vals[0] < hit else t_star
            crossings.append(min(max(t_star, 0.0), 1.0))
        elif s_star < near:
            raise WindingResolutionError(
                f"crossing cluster near t={t_star:.6g} did not resolve "
                f"(sigma_min {s_star:.3e})")
    if vals[grid] < hit and grid not in plateau_idx:
        crossings.append(1.0)

    # merge refinements that landed on the same crossing
    crossings.sort()
    merged = []
    for t in crossings:
        if not merged or t - merged[-1] > 1e-8:
            merged.append(t)
    return merged, trace


def _crossing_sum(smin, kernel_at, form_at, tol: ToleranceProfile):
    """Signature sum over the zeros of ``smin`` on [0, 1].

    ``kernel_at(t)`` is a basis (columns) of the intersection at t and
    ``form_at(t, kernel)`` the crossing form on it.  Interior regular
    crossings contribute their signature, the endpoints half of it.
    Returns (HalfInt, crossing reports, smin trace).
    """
    crossings, trace = _scan_crossings(
        smin, lambda t: kernel_at(t).shape[1], tol)
    doubled = 0
    reports = []
    for t_star in crossings:
        kernel = kernel_at(t_star)
        k = kernel.shape[1]
        if k == 0:
            continue
        gamma = form_at(t_star, kernel)
        sig, regular = _signature(gamma, tol.tol_form)
        if not regular:
            raise IrregularCrossingError(
                f"irregular crossing at t={t_star:.8g} "
                f"(kernel dimension {k})")
        weight = 0.5 if t_star in (0.0, 1.0) else 1.0
        reports.append(CrossingReport(
            t=float(t_star), kernel_dim=k, kernel_basis=kernel, gamma=gamma,
            signature=sig, regular=regular, weight=weight))
        doubled += sig if weight == 0.5 else 2 * sig
    return HalfInt(doubled), reports, trace


def _lagrangian_rs(frame_stack, v: LagrangianFrame, tol: ToleranceProfile):
    """``lagrangian_rs_index`` of the path whose frames at an array of
    parameters are the stack ``frame_stack(ts)`` (len(ts), 2m, m)."""
    v_q = v.orthonormal()

    def frames(t):
        return frame_stack(np.array([t]))[0]

    def kernel_at(t):
        q, _ = np.linalg.qr(frames(t))
        return q @ _intersection_coords(q, v_q, tol.tol_kernel)

    def smin(ts):
        q, _ = np.linalg.qr(frame_stack(ts))
        pairs = np.concatenate([q, np.broadcast_to(v_q, q.shape)], axis=2)
        return np.linalg.svd(pairs, compute_uv=False)[:, -1]

    return _crossing_sum(
        smin, kernel_at,
        lambda t, _: lagrangian_crossing_form(frames, t, v, tol=tol), tol)


def lagrangian_rs_index(frames, v: LagrangianFrame,
                        tol: ToleranceProfile = DEFAULT_TOL):
    """Signature sum over the crossings of a Lagrangian path with V.

    ``frames`` maps t to a LagrangianFrame (or raw 2m x m array).  Interior
    regular crossings contribute their signature, the endpoints half of it.
    Returns (HalfInt, crossing reports, smin trace) where the trace rows are
    (t, smin, near-zero flag).
    """
    return _lagrangian_rs(
        lambda ts: np.array([_as_frame(frames(t)) for t in ts.tolist()]),
        v, tol)


def graph_lagrangian(a) -> LagrangianFrame:
    """Graph {(x, Ax)} of a symplectic map, Lagrangian for (-Omega0)(+)Omega0."""
    from .core import as_array, is_symplectic

    arr = as_array(a)
    if not is_symplectic(arr):
        raise ContractError("graph_lagrangian requires a symplectic matrix")
    n = arr.shape[0] // 2
    frame = np.zeros((4 * n, 2 * n))
    # rows by (e/f half, summand, index): x fills summand 0, A x summand 1
    rows = frame.reshape(2, 2, n, 2 * n)
    rows[:, 0] = np.eye(2 * n).reshape(2, n, 2 * n)
    rows[:, 1] = arr.reshape(2, n, 2 * n)
    return LagrangianFrame(frame=frame, omega=doubled_omega(n))


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
