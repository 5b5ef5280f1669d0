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

from .core import omega_matrix
from .errors import (ConditioningError, ContractError, DimensionError,
                     IrregularCrossingError, NoCrossingError,
                     UnsupportedStructureError, WindingResolutionError)
from .halfint import HalfInt
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
    out = np.zeros((4 * n, 4 * n))
    idx1 = np.concatenate([np.arange(n), np.arange(2 * n, 3 * n)])
    idx2 = np.concatenate([np.arange(n, 2 * n), np.arange(3 * n, 4 * n)])
    out[np.ix_(idx1, idx1)] = -omega_matrix(n)
    out[np.ix_(idx2, idx2)] = omega_matrix(n)
    return out


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


def _intersection_coords(f0_q: np.ndarray, v_q: np.ndarray, tol_kernel: float):
    """Coordinates (in the f0_q column basis) of span(f0_q) & span(v_q)."""
    proj = f0_q - v_q @ (v_q.T @ f0_q)
    u, s, vt = np.linalg.svd(proj)
    k = int(np.sum(s < np.sqrt(tol_kernel)))
    if k == 0:
        return np.zeros((f0_q.shape[1], 0))
    return vt[-k:, :].T


def lagrangian_crossing_form(frames, t0: float, v: LagrangianFrame,
                             h: float = 1e-5,
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

    lo, hi = 0.0, 1.0
    if t0 - h >= lo and t0 + h <= hi:
        def diff(step):
            return (graph_map(t0 + step) - graph_map(t0 - step)) / (2 * step)
    elif t0 + 2 * h <= hi:
        def diff(step):
            return (-3 * graph_map(t0) + 4 * graph_map(t0 + step)
                    - graph_map(t0 + 2 * step)) / (2 * step)
    else:
        def diff(step):
            return (3 * graph_map(t0) - 4 * graph_map(t0 - step)
                    + graph_map(t0 - 2 * step)) / (2 * step)
    mdot = (4.0 * diff(0.5 * h) - diff(h)) / 3.0

    q_full = pairing @ mdot
    q_full = 0.5 * (q_full + q_full.T)

    coords = _intersection_coords(q0, v.orthonormal(), tol.tol_kernel)
    if coords.shape[1] == 0:
        raise NoCrossingError(f"Lambda(t0={t0}) meets V trivially")
    return coords.T @ q_full @ coords


def _stacked_smin(f_t: np.ndarray, v_q: np.ndarray) -> float:
    q, _ = np.linalg.qr(f_t)
    s = np.linalg.svd(np.hstack([q, v_q]), compute_uv=False)
    return float(s[-1])


def _golden_min(f, a: float, b: float, width: float = 1e-10):
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


def _crossing_windows(flags: list[bool], grid: int):
    """Group flagged grid indices into isolated windows or plateaus."""
    runs = []
    i = 0
    while i <= grid:
        if flags[i]:
            j = i
            while j + 1 <= grid and flags[j + 1]:
                j += 1
            runs.append((i, j))
            i = j + 1
        else:
            i += 1
    return runs


def _scan_crossings(smin, kernel_dim_at, tol: ToleranceProfile,
                    grid: int = 512):
    """Locate the zeros of a sampled sigma_min curve on [0, 1].

    Every local minimum of the grid samples is bracketed and refined by
    golden section; minima that refine to (numerical) zero are crossings.
    Sustained near-zero runs are plateaus: scored 0 when the kernel
    dimension is constant across the run, rejected otherwise.  Returns
    (crossing times, trace rows (t, smin, flag), all_plateau flag).
    """
    ts = np.linspace(0.0, 1.0, grid + 1)
    vals = [smin(t) for t in ts]
    near = np.sqrt(tol.tol_kernel)
    hit = 100.0 * tol.tol_kernel
    flags = [s < near for s in vals]
    trace = [(float(t), float(s), int(f))
             for t, s, f in zip(ts, vals, flags)]

    if all(flags):
        dims = {kernel_dim_at(t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)}
        if len(dims) != 1:
            raise UnsupportedStructureError(
                "kernel dimension varies along a full-length plateau")
        return [], trace, True

    plateau_idx = set()
    for i0, i1 in _crossing_windows(flags, grid):
        if i1 - i0 > 2:
            dims = {kernel_dim_at(ts[i]) for i in range(i0, i1 + 1)}
            if len(dims) != 1:
                raise UnsupportedStructureError(
                    f"crossing plateau near t={ts[i0]:.4g} "
                    "with varying kernel dimension")
            plateau_idx.update(range(i0, i1 + 1))

    crossings = []
    if vals[0] < hit and 0 not in plateau_idx:
        crossings.append(0.0)
    for i in range(1, grid):
        if i in plateau_idx:
            continue
        if not (vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]):
            continue
        t_star, s_star = _golden_min(smin, ts[i - 1], ts[i + 1])
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
    return merged, trace, False


def lagrangian_rs_index(frames, v: LagrangianFrame,
                        tol: ToleranceProfile = DEFAULT_TOL,
                        grid: int = 512):
    """Signature sum over the crossings of a Lagrangian path with V.

    Interior regular crossings contribute their signature, the endpoints
    half of it.  Returns (HalfInt, crossing reports, smin trace) where the
    trace rows are (t, smin, kernel_dim estimate).
    """
    v_q = v.orthonormal()

    def smin(t):
        return _stacked_smin(_as_frame(frames(t)), v_q)

    def kdim(t):
        return _kernel_dim(_as_frame(frames(t)), v_q, tol)

    crossings, trace, all_plateau = _scan_crossings(smin, kdim, tol, grid)
    if all_plateau:
        return HalfInt(0), [], trace

    doubled = 0
    reports = []
    for t_star in crossings:
        f_star = _as_frame(frames(t_star))
        q_star, _ = np.linalg.qr(f_star)
        coords = _intersection_coords(q_star, v_q, tol.tol_kernel)
        k = coords.shape[1]
        if k == 0:
            continue
        gamma = lagrangian_crossing_form(frames, t_star, v, tol=tol)
        sig, regular = _signature(gamma, tol.tol_form)
        if not regular:
            raise IrregularCrossingError(
                f"irregular Lagrangian crossing at t={t_star:.8g}")
        weight = 0.5 if t_star in (0.0, 1.0) else 1.0
        reports.append(CrossingReport(
            t=float(t_star), kernel_dim=k, kernel_basis=q_star @ coords,
            gamma=gamma, signature=sig, regular=regular, weight=weight))
        doubled += sig if weight == 0.5 else 2 * sig
    return HalfInt(doubled), reports, trace


def _kernel_dim(f_t: np.ndarray, v_q: np.ndarray, tol: ToleranceProfile) -> int:
    q, _ = np.linalg.qr(f_t)
    proj = q - v_q @ (v_q.T @ q)
    s = np.linalg.svd(proj, compute_uv=False)
    return int(np.sum(s < np.sqrt(tol.tol_kernel)))


def graph_lagrangian(a) -> LagrangianFrame:
    """Graph {(x, Ax)} of a symplectic map, Lagrangian for (-Omega0)(+)Omega0."""
    from .core import as_array, is_symplectic

    arr = as_array(a)
    if not is_symplectic(arr):
        raise ContractError("graph_lagrangian requires a symplectic matrix")
    n = arr.shape[0] // 2
    frame = np.zeros((4 * n, 2 * n))
    idx1 = np.concatenate([np.arange(n), np.arange(2 * n, 3 * n)])
    idx2 = np.concatenate([np.arange(n, 2 * n), np.arange(3 * n, 4 * n)])
    frame[idx1, :] = np.eye(2 * n)
    frame[idx2, :] = arr
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
