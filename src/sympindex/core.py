"""Standard symplectic structures and determinant-based circle maps.

Conventions (fixed once for the whole package): the basis is ordered
``{e_1..e_n, f_1..f_n}`` so that::

    Omega0 = [[0,  Id],
              [-Id, 0]]          J0 = [[0, -Id],
                                       [Id,  0]]

A real 2n x 2n matrix is symplectic when ``A.T @ Omega0 @ A == Omega0``,
and C-linear (commutes with J0) exactly when it has the block shape
``[[B, -C], [C, B]]``; its complex determinant is ``det(B + iC)``.

``polar_decompose`` is SVD-based, but ``rho_polar`` is not: for symplectic
A = U P the C-linear part C_A = (A - J0 A J0)/2 is U C_P, with C_P Hermitian
positive definite, so det_C(C_A) = det_C(U) det_C(C_P) and the phase of
det_C(C_A) is det_C(U).  On Sp(2n) the two determinant circle maps
``rho_polar`` and ``rho_hat`` are thus one map, computed by one routine.

The symplectic check, the polar factors, the complex determinant, the two
determinant circle maps and the direct sum also take a stack (k, 2n, 2n) of
matrices, which a path evaluates at an array of parameters; they then check
the whole stack at once and return one value per matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, ParameterError
from .tolerances import DEFAULT_TOL, ToleranceProfile

__all__ = [
    "omega_matrix",
    "j_matrix",
    "is_symplectic",
    "SympMatrix",
    "as_array",
    "polar_decompose",
    "complex_det",
    "rho_polar",
    "rho_hat",
    "direct_sum",
    "direct_sum_many",
    "random_symplectic",
    "normalize_unit",
]

_OMEGA_CACHE: dict[int, np.ndarray] = {}
_J_CACHE: dict[int, np.ndarray] = {}


def omega_matrix(n: int) -> np.ndarray:
    """The standard symplectic form Omega0 on R^{2n} (read-only view)."""
    if n not in _OMEGA_CACHE:
        om = np.zeros((2 * n, 2 * n))
        om[:n, n:] = np.eye(n)
        om[n:, :n] = -np.eye(n)
        om.setflags(write=False)
        _OMEGA_CACHE[n] = om
    return _OMEGA_CACHE[n]


def j_matrix(n: int) -> np.ndarray:
    """The standard compatible complex structure J0 = -Omega0 (read-only)."""
    if n not in _J_CACHE:
        jm = -omega_matrix(n)
        jm.setflags(write=False)
        _J_CACHE[n] = jm
    return _J_CACHE[n]


def _check_even_square(M: np.ndarray, stacked: bool = False) -> int:
    """Half the size of an even square matrix, or with ``stacked`` also of
    the matrices of a stack (k, 2n, 2n)."""
    M = np.asarray(M)
    if M.ndim not in ((2, 3) if stacked else (2,)) or M.shape[-1] != M.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[-1] % 2 != 0:
        raise DimensionError(f"matrix dimension {M.shape[-1]} is odd")
    return M.shape[-1] // 2


def finite_matrix(A, stacked: bool = False) -> np.ndarray:
    """``as_array(A)``, checked to be an even square matrix (or a stack of
    them, with ``stacked``) of finite entries before a LAPACK routine (or
    arithmetic that warns) sees it."""
    a = as_array(A)
    _check_even_square(a, stacked)
    if not np.isfinite(a).all():
        raise ContractError("matrix has non-finite entries")
    return a


def _fro(M: np.ndarray):
    """Frobenius norm of each matrix of a stack (of one matrix: a scalar)."""
    return np.sqrt((M * M).sum(axis=(-2, -1)))


def _symplectic_residuals(M: np.ndarray):
    """Relative Frobenius residual of the symplectic identity of each matrix
    of a stack (of one matrix: a scalar); infinite for a matrix with
    non-finite entries."""
    n = _check_even_square(M, stacked=True)
    finite = np.isfinite(M).all(axis=(-2, -1))
    if not finite.all():
        M = np.where(finite[..., None, None], M, 0.0)
    # the squares of the products overflow from entries of about 1e77: divide
    # each matrix by a power of two s above its largest entry, and both sides
    # of the ratio by s^2; a power of two scales every rounding exactly
    # (short of subnormals), so the residual keeps the bits of the unscaled
    # formula wherever that is finite
    _, e = np.frexp(np.abs(M).max(axis=(-2, -1)))
    s = np.ldexp(1.0, -np.maximum(e, 0))
    M = M * s[..., None, None]
    om = omega_matrix(n)
    s2 = s * s
    res = (_fro(np.swapaxes(M, -1, -2) @ om @ M - om * s2[..., None, None])
           / (s2 + _fro(M) ** 2))
    return np.where(finite, res, np.inf)


def symplectic_residual(M: np.ndarray) -> float:
    """Relative Frobenius residual of the symplectic identity; infinite for
    a matrix with non-finite entries.  Of a stack, the largest residual."""
    return float(np.max(_symplectic_residuals(M)))


def is_symplectic(M: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """True iff ``M.T @ Omega0 @ M = Omega0`` within ``tol.tol_symp``
    (relative); for a stack, iff it holds for every matrix."""
    return symplectic_residual(np.asarray(M, dtype=float)) <= tol.tol_symp


@dataclass(frozen=True)
class SympMatrix:
    """A real 2n x 2n matrix certified symplectic at construction."""

    entries: np.ndarray
    n: int

    def __init__(self, entries, tol: ToleranceProfile = DEFAULT_TOL):
        a = np.array(as_array(entries))
        n = _check_even_square(a)
        if not is_symplectic(a, tol):
            raise ContractError(
                f"matrix is not symplectic (residual {symplectic_residual(a):.3e})"
            )
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "n", n)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)

    @property
    def dim(self) -> int:
        return 2 * self.n


def as_array(A) -> np.ndarray:
    """Accept SympMatrix or ndarray-like; return a float ndarray.  Input
    that is not an array of numbers raises ``ContractError``."""
    if isinstance(A, SympMatrix):
        return np.asarray(A.entries)
    try:
        return np.asarray(A, dtype=float)
    except (TypeError, ValueError):
        raise ContractError(
            f"expected an array of numbers, got {type(A).__name__}") from None


def polar_decompose(A, tol: ToleranceProfile = DEFAULT_TOL):
    """Unique polar factors ``A = O @ P`` of a symplectic matrix, or of each
    matrix of a stack.

    O is orthogonal symplectic (hence unitary), P is symmetric positive
    definite symplectic with ``P @ P = A.T @ A``.  Computed from the
    singular value decomposition, which keeps the error of O proportional
    to cond(A) rather than cond(A)^2.
    """
    a = as_array(A)
    if not is_symplectic(a, tol):
        raise ContractError("polar_decompose requires a symplectic matrix")
    u, s, vt = np.linalg.svd(a)
    if np.min(s) <= 0:
        raise ContractError("A is singular")
    O = u @ vt
    P = np.swapaxes(vt, -1, -2) @ (s[..., :, None] * vt)
    return O, P


def _complex_blocks(O: np.ndarray) -> np.ndarray:
    """B + iC of the blocks B = O[:n, :n], C = O[n:, :n] of each matrix."""
    n = O.shape[-1] // 2
    return O[..., :n, :n] + 1j * O[..., n:, :n]


def complex_det(O, tol: ToleranceProfile = DEFAULT_TOL):
    """det(B + iC) for a C-linear matrix O = [[B,-C],[C,B]]; of a stack,
    the array of them."""
    o = finite_matrix(O, stacked=True)
    jm = j_matrix(o.shape[-1] // 2)
    comm = np.max(_fro(o @ jm - jm @ o) / (1.0 + _fro(o)))
    if comm > max(tol.tol_symp, 1e-8):
        raise ContractError(f"matrix does not commute with J0 (residual {comm:.3e})")
    return np.linalg.det(_complex_blocks(o))


def normalize_unit(z):
    """Project a nonzero finite complex number, or each entry of an array
    of them, onto the unit circle."""
    m = np.abs(z)
    # a NaN modulus fails both comparisons
    if not (m.min() > 0.0 and m.max() < np.inf):
        raise ContractError(
            "cannot normalize zero or a non-finite value to the unit circle")
    return z / m


def _clinear_phase(A, tol: ToleranceProfile, name: str):
    """det_C(C_A) / |det_C(C_A)| of the C-linear part C_A = (A - J0 A J0)/2
    of a symplectic A, or of each matrix of a stack; the errors name the
    circle map ``name``.

    The phase comes from ``slogdet``, which never forms |det_C(C_A)|, so it
    does not overflow however large the entries.  |det_C(C_A)| >= 1 on
    Sp(2n), so a zero phase (a singular C_A) shows rounding past repair.
    """
    a = as_array(A)
    _check_even_square(a, stacked=True)
    if not np.isfinite(a).all():
        raise ContractError(f"{name} requires a matrix of finite entries")
    if not is_symplectic(a, tol):
        raise ContractError(f"{name} requires a symplectic matrix")
    jm = j_matrix(a.shape[-1] // 2)
    phase, _ = np.linalg.slogdet(_complex_blocks(0.5 * (a - jm @ a @ jm)))
    if not (np.abs(phase) > 0.5).all():     # a zero (or NaN) phase
        raise ContractError(f"{name}: the C-linear part has zero determinant")
    return phase


def rho_polar(A, tol: ToleranceProfile = DEFAULT_TOL):
    """Circle map det_C of the unitary polar factor of A; of a stack, the
    array of them.  Taken, with no SVD, as the phase of det_C of the
    C-linear part (see the module docstring), so on Sp(2n) it is the map
    ``rho_hat``."""
    return _clinear_phase(A, tol, "rho_polar")


def rho_hat(A, tol: ToleranceProfile = DEFAULT_TOL):
    """Normalized complex determinant of the C-linear part of A; of a stack,
    the array of them.

    C_g = (g - J0 g J0)/2 is the C-linear part of g and is invertible for
    every symplectic g; rho_hat(g) = det_C(C_g) / |det_C(C_g)|.
    """
    return _clinear_phase(A, tol, "rho_hat")


def direct_sum_many(mats: list[np.ndarray]) -> np.ndarray:
    """Symplectic direct sum with the interleaved {e',e'',f',f''} layout; of
    stacks (k, 2m, 2m) of equal length, matrix by matrix."""
    arrs = [as_array(m) for m in mats]
    if not arrs:
        raise DimensionError("direct sum of no matrices")
    sizes = [_check_even_square(a, stacked=True) for a in arrs]
    lead = arrs[0].shape[:-2]
    if any(a.shape[:-2] != lead for a in arrs):
        raise DimensionError("direct sum of stacks of different lengths")
    total = sum(sizes)
    out = np.zeros(lead + (2 * total, 2 * total))
    # (e/f half, index within it) on both axes: summands sit on the diagonal
    quad = out.reshape(lead + (2, total, 2, total))
    for a, m, o in zip(arrs, sizes, np.cumsum([0] + sizes)):
        quad[..., :, o:o + m, :, o:o + m] = a.reshape(lead + (2, m, 2, m))
    return out


def direct_sum(A, B) -> np.ndarray:
    """Symplectic direct sum of two symplectic matrices."""
    return direct_sum_many([A, B])


def random_symplectic(n: int, seed: int, scale: float = 0.5,
                      max_cond: float | None = None) -> np.ndarray:
    """Deterministic random symplectic matrix: product of 3-6 exp(J0 S_i).

    With ``max_cond`` set, redraws until the condition number is below it
    (used to produce well-conditioned conjugators for normal-form tests).
    The only function of this module that imports scipy.
    """
    import scipy.linalg as sla

    if n < 1:
        raise DimensionError("n must be >= 1")
    if not (isinstance(scale, numbers.Real) and 0 <= scale < math.inf):
        raise ParameterError(f"scale must be a finite number >= 0, got {scale!r}")
    rng = np.random.default_rng(seed)
    jm = j_matrix(n)
    for _ in range(64):
        k = int(rng.integers(3, 7))
        A = np.eye(2 * n)
        for _ in range(k):
            S = rng.uniform(-scale, scale, size=(2 * n, 2 * n))
            S = 0.5 * (S + S.T)
            A = A @ sla.expm(jm @ S)
        if max_cond is None or np.linalg.cond(A) < max_cond:
            return A
    raise ContractError("could not draw a symplectic matrix under the condition cap")
