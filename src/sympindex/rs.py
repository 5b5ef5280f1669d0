"""Crossing-form (Robbin-Salamon style) index for symplectic paths.

A crossing is a parameter where 1 is an eigenvalue of psi_t; it carries the
quadratic form Gamma = generator restricted to ker(psi_t - Id).  The index
is the signature sum with half weight at the global endpoints.  Exponential
segments with small generators and shears are scored by closed forms;
everything else is the Souriau count of ``lagrangian`` (the graph of psi_t
against the diagonal, or the evolved vertical Lagrangian against the
vertical), returned only when the crossing forms at the crossings it
locates sum to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import InternalConsistencyError
from .halfint import HalfInt
from .lagrangian import (CrossingReport, _graph_frames, _kernel, _signature,
                         _souriau_index, graph_lagrangian, vertical_frame)
# not called here, but bench/tracing.py wraps sympindex.rs.lagrangian_rs_index
from .lagrangian import lagrangian_rs_index  # noqa: F401
from .paths import (ExpPath, PathSpec, ShearPath, evaluate_array,
                    evaluate_stack, generator, junction_parameters)
from .tolerances import DEFAULT_TOL, ToleranceProfile

__all__ = ["RSResult", "rs_index", "rs2_index"]


@dataclass(frozen=True)
class RSResult:
    value: HalfInt
    crossings: tuple          # CrossingReport, in parameter order
    # (t, unwrapped arg det W in radians): the samples of the Souriau
    # winding; empty for a closed form
    trace: tuple


def _closed_form_exp(path: ExpPath, tol: ToleranceProfile):
    """1/2 Sign S when the only crossing of exp(t J0 S) is at t = 0."""
    radius = np.max(np.abs(np.linalg.eigvals(path._js))) * abs(path.duration)
    if radius >= 2.0 * np.pi - 1e-9:
        return None
    gamma = path.s_matrix * path.duration
    sig, regular = _signature(gamma, tol.tol_form)
    report = CrossingReport(
        t=0.0, kernel_dim=2 * path.n, kernel_basis=np.eye(2 * path.n),
        gamma=gamma, signature=sig, regular=regular, weight=0.5)
    return RSResult(value=HalfInt(sig), crossings=(report,), trace=())


def _closed_form_shear(path: ShearPath, tol: ToleranceProfile):
    """1/2 Sign B(0) - 1/2 Sign B(1) for the shear [[Id, B(t)], [0, Id]]."""
    doubled = (_signature(path.b_at(0.0), tol.tol_form)[0]
               - _signature(path.b_at(1.0), tol.tol_form)[0])
    return RSResult(value=HalfInt(doubled), crossings=(), trace=())


def _generator_form(path: PathSpec, t: float, side, kernel: np.ndarray):
    """The crossing form kernel^T S_t kernel, S_t the generator of the path
    at t, or a hair to one side of a junction for a side of +-1, where the
    generator differences away from it, on that side."""
    s_t = generator(path, t + 1e-9 * side if side else t).s_matrix
    gamma = kernel.T @ s_t @ kernel
    return 0.5 * (gamma + gamma.T)


# the diagonal, the graph of Id, and the vertical {0} x R^n: one frame per n
_diagonal = lru_cache(maxsize=None)(lambda n: graph_lagrangian(np.eye(2 * n)))
_vertical = lru_cache(maxsize=None)(vertical_frame)


def _graphs(path: PathSpec, ts: np.ndarray) -> np.ndarray:
    """The stack of the frames ``graph_lagrangian`` of psi_t at ``ts``."""
    return _graph_frames(evaluate_stack(path, ts))


def _starts_at_identity(path: PathSpec, tol: ToleranceProfile) -> bool:
    return bool(np.linalg.norm(evaluate_array(path, 0.0) - np.eye(2 * path.n))
                <= 1e3 * tol.tol_symp)


def _det_gap(a_end: np.ndarray) -> float:
    """det(A - Id), +-inf where it overflows the float range."""
    with np.errstate(over="ignore"):
        return float(np.linalg.det(a_end - np.eye(a_end.shape[0])))


def _check_parity(n: int, value: HalfInt, det_gap: float, name: str):
    """(-1)^(n - index) = sign det(Id - psi_1) = sign ``det_gap`` on a path
    from Id to a nondegenerate end; one lost or extra crossing breaks it."""
    if (2 * n - value.doubled) % 4 != 2 * (det_gap < 0):
        raise InternalConsistencyError(
            f"index {value} breaks the parity rule (-1)^(n - {name}) = sign "
            f"det(Id - psi_1) at n = {n}, det(psi_1 - Id) = {det_gap:.3e}")


def _generic_rs(path: PathSpec, tol: ToleranceProfile) -> RSResult:
    """The graphs of psi_t against the diagonal, Lagrangian for
    (-Omega0) (+) Omega0; ker(psi_t - Id) is their intersection."""
    def form_at(t: float, k: int, side):
        kernel = _kernel(evaluate_array(path, t) - np.eye(2 * path.n),
                         tol.tol_kernel, k)
        return kernel, _generator_form(path, t, side, kernel)

    value, reports, trace = _souriau_index(
        partial(_graphs, path), _diagonal(path.n), tol, form_at,
        junction_parameters(path))
    det_gap = _det_gap(evaluate_array(path, 1.0))
    if abs(det_gap) > tol.tol_kernel and _starts_at_identity(path, tol):
        _check_parity(path.n, value, det_gap, "RS")
    return RSResult(value=value, crossings=tuple(reports), trace=tuple(trace))


def rs_index(path: PathSpec, tol: ToleranceProfile = DEFAULT_TOL) -> RSResult:
    """Crossing-form index of a symplectic path against the identity."""
    if isinstance(path, ExpPath):
        closed = _closed_form_exp(path, tol)
        if closed is not None:
            return closed
    if isinstance(path, ShearPath):
        return _closed_form_shear(path, tol)
    return _generic_rs(path, tol)


def _rs2(path: PathSpec, tol: ToleranceProfile = DEFAULT_TOL) -> RSResult:
    """Crossings of the evolved vertical Lagrangian t -> psi_t ({0} x R^n).

    Its intersection with the vertical is the frame psi_t [0; Id] on the
    kernel of the frame's top half, and the crossing form the generator's
    on it, as for ``rs_index``."""
    v = _vertical(path.n)

    def form_at(t: float, k: int, side):
        frame = evaluate_array(path, t) @ v.frame
        kernel = np.linalg.qr(
            frame @ _kernel(frame[:path.n], tol.tol_kernel, k))[0]
        return kernel, _generator_form(path, t, side, kernel)

    value, reports, trace = _souriau_index(
        lambda ts: evaluate_stack(path, ts) @ v.frame, v, tol, form_at,
        junction_parameters(path))
    return RSResult(value=value, crossings=tuple(reports), trace=tuple(trace))


def rs2_index(path: PathSpec, tol: ToleranceProfile = DEFAULT_TOL) -> HalfInt:
    """Index of the evolved vertical Lagrangian t -> psi_t ({0} x R^n)."""
    return _rs2(path, tol).value
