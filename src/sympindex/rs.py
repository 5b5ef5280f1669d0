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
from functools import lru_cache

import numpy as np

from .core import omega_matrix
from .halfint import HalfInt
from .lagrangian import (CrossingReport, LagrangianFrame, _kernel,
                         _souriau_index, vertical_frame)
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


def _sign_count(w: np.ndarray, tol_form: float) -> int:
    return int(np.sum(w > tol_form) - np.sum(w < -tol_form))


def _closed_form_exp(path: ExpPath, tol: ToleranceProfile):
    """1/2 Sign S when the only crossing of exp(t J0 S) is at t = 0."""
    radius = np.max(np.abs(np.linalg.eigvals(path._js))) * abs(path.duration)
    if radius >= 2.0 * np.pi - 1e-9:
        return None
    w = np.linalg.eigvalsh(path.s_matrix * path.duration)
    sig = _sign_count(w, tol.tol_form)
    kernel = np.eye(2 * path.n)
    report = CrossingReport(
        t=0.0, kernel_dim=2 * path.n, kernel_basis=kernel,
        gamma=path.s_matrix * path.duration, signature=sig,
        regular=bool(np.min(np.abs(w)) > tol.tol_form), weight=0.5)
    return RSResult(value=HalfInt(sig), crossings=(report,), trace=())


def _closed_form_shear(path: ShearPath, tol: ToleranceProfile):
    """1/2 Sign B(0) - 1/2 Sign B(1) for the shear [[Id, B(t)], [0, Id]]."""
    w0 = np.linalg.eigvalsh(path.b_at(0.0))
    w1 = np.linalg.eigvalsh(path.b_at(1.0))
    doubled = _sign_count(w0, tol.tol_form) - _sign_count(w1, tol.tol_form)
    return RSResult(value=HalfInt(doubled), crossings=(), trace=())


def _generator_form(path: PathSpec, t: float, side, kernel: np.ndarray):
    """The crossing form kernel^T S_t kernel, S_t the generator of the path
    at t, or a hair to one side of a junction for a side of +-1, where the
    generator differences away from it, on that side."""
    s_t = generator(path, t + 1e-9 * side if side else t).s_matrix
    gamma = kernel.T @ s_t @ kernel
    return 0.5 * (gamma + gamma.T)


@lru_cache(maxsize=None)
def _diagonal(n: int) -> LagrangianFrame:
    """The diagonal [Id; Id] of R^{2n} x R^{2n}, Lagrangian for
    (-Omega0) (+) Omega0 in this block layout: one frame per n."""
    eye = np.eye(2 * n)
    return LagrangianFrame(np.vstack([eye, eye]),
                           np.kron(np.diag([-1.0, 1.0]), omega_matrix(n)))


# the vertical {0} x R^n: one frame per n, as for the diagonal
_vertical = lru_cache(maxsize=None)(vertical_frame)


def _generic_rs(path: PathSpec, tol: ToleranceProfile) -> RSResult:
    """The graphs [Id; psi_t] of the path against the diagonal, Lagrangian
    for (-Omega0) (+) Omega0; ker(psi_t - Id) is their intersection."""
    eye = np.eye(2 * path.n)

    def form_at(t: float, k: int, side):
        kernel = _kernel(evaluate_array(path, t) - eye, tol.tol_kernel, k)
        return kernel, _generator_form(path, t, side, kernel)

    value, reports, trace = _souriau_index(
        lambda ts: np.concatenate(
            [np.broadcast_to(eye, (len(ts),) + eye.shape),
             evaluate_stack(path, ts)], axis=1),
        _diagonal(path.n), tol, form_at, junction_parameters(path))
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
