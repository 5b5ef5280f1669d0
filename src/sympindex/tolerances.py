"""Numerical tolerance profile shared by all modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ParameterError


@dataclass(frozen=True)
class ToleranceProfile:
    """Thresholds for the floating-point decisions made by the library.

    tol_symp    symplecticity residual (relative, Frobenius)
    tol_eig     eigenvalue clustering radius
    tol_kernel  singular-value threshold for kernel dimensions
    tol_form    nondegeneracy threshold for quadratic/crossing forms
    tol_nf      acceptable normal-form reconstruction residual
    max_refine  winding bisection depth cap
    """

    tol_symp: float = 1e-9
    tol_eig: float = 1e-7
    tol_kernel: float = 1e-8
    tol_form: float = 1e-8
    tol_nf: float = 1e-6
    max_refine: int = 40

    def __post_init__(self):
        # NaN fails every comparison, so test for the good case
        for name in ("tol_symp", "tol_eig", "tol_kernel", "tol_form",
                     "tol_nf", "max_refine"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ParameterError(
                    f"{name} must be finite and strictly positive, got {value}")

    def with_overrides(self, **kwargs) -> "ToleranceProfile":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs)


DEFAULT_TOL = ToleranceProfile()
