"""Crossing-form (Robbin-Salamon style) index for symplectic paths.

A crossing is a parameter where 1 is an eigenvalue of psi_t; it carries the
quadratic form Gamma = generator restricted to ker(psi_t - Id).  The index
is the signature sum with half weight at the global endpoints.  Exponential
segments with small generators and shears are scored by closed forms;
catenations are scored additively; everything else goes through a sigma_min
crossing scan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .halfint import HalfInt
from .lagrangian import (CrossingReport, _crossing_sum, _kernel,
                         _lagrangian_rs, vertical_frame)
# not called here, but bench/tracing.py wraps sympindex.rs.lagrangian_rs_index
from .lagrangian import lagrangian_rs_index  # noqa: F401
from .paths import (CatPath, ExpPath, PathSpec, ShearPath, evaluate_array,
                    evaluate_stack, generator)
from .tolerances import DEFAULT_TOL, ToleranceProfile

__all__ = ["RSResult", "rs_index", "rs2_index"]


@dataclass(frozen=True)
class RSResult:
    value: HalfInt
    crossings: tuple          # CrossingReport, in parameter order
    trace: tuple              # (t, sigma_min of the scan, near-zero flag)


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


def _generic_rs(path: PathSpec, tol: ToleranceProfile) -> RSResult:
    eye = np.eye(2 * path.n)

    def smin(ts):
        return np.linalg.svd(evaluate_stack(path, ts) - eye,
                             compute_uv=False)[:, -1]

    def kernel_at(t: float) -> np.ndarray:
        return _kernel(evaluate_array(path, t) - eye, tol.tol_kernel)

    def form_at(t: float, kernel: np.ndarray) -> np.ndarray:
        gamma = kernel.T @ generator(path, t).s_matrix @ kernel
        return 0.5 * (gamma + gamma.T)

    value, reports, trace = _crossing_sum(smin, kernel_at, form_at, tol)
    return RSResult(value=value, crossings=tuple(reports), trace=tuple(trace))


def _catenated(index, path: CatPath, tol: ToleranceProfile) -> RSResult:
    """``index`` part by part, so a crossing on a junction gets one-sided
    forms; the crossings are moved onto [0, 1]."""
    parts = [index(p, tol) for p in path.parts]
    k = len(parts)
    return RSResult(
        value=sum((r.value for r in parts), HalfInt(0)),
        crossings=tuple(replace(c, t=(i + c.t) / k)
                        for i, r in enumerate(parts) for c in r.crossings),
        trace=())


def rs_index(path: PathSpec, tol: ToleranceProfile = DEFAULT_TOL) -> RSResult:
    """Crossing-form index of a symplectic path against the identity."""
    if isinstance(path, CatPath):
        return _catenated(rs_index, path, tol)
    if isinstance(path, ExpPath):
        closed = _closed_form_exp(path, tol)
        if closed is not None:
            return closed
    if isinstance(path, ShearPath):
        return _closed_form_shear(path, tol)
    return _generic_rs(path, tol)


def _rs2(path: PathSpec, tol: ToleranceProfile = DEFAULT_TOL) -> RSResult:
    """Crossings of the evolved vertical Lagrangian t -> psi_t ({0} x R^n)."""
    if isinstance(path, CatPath):
        return _catenated(_rs2, path, tol)
    v = vertical_frame(path.n)
    value, reports, trace = _lagrangian_rs(
        lambda ts: evaluate_stack(path, ts) @ v.frame, v, tol)
    return RSResult(value=value, crossings=tuple(reports), trace=tuple(trace))


def rs2_index(path: PathSpec, tol: ToleranceProfile = DEFAULT_TOL) -> HalfInt:
    """Index of the evolved vertical Lagrangian t -> psi_t ({0} x R^n)."""
    return _rs2(path, tol).value
