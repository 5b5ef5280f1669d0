"""Eigenvalue quadruples, Krein signatures, and the rotation map rho.

Eigenvalues of a symplectic matrix come in quadruples {lam, 1/lam,
conj(lam), 1/conj(lam)}.  For a unit-modulus non-real eigenvalue the
(generalized) eigenspace E_lam carries the nondegenerate Krein form
``Q(z, z') = Im Omega0(z, conj(z'))``; its signature decides which of
e^{±i phi} is "of the first kind".  The rotation map is

    rho(A) = (-1)^{m_minus/2} * prod_{unit non-real lam} lam^{m_plus(lam)/2}

which equals the product of the phases of the n first-kind eigenvalues.
Both routes are read off one spectral summary and required to agree.

``rho`` and ``eigen_quadruples`` also take a stack (k, 2n, 2n) of matrices.
One ``eig``, one symplectic check and one clustering pass serve the whole
stack, and both routes run in array arithmetic; only a cluster of
multiplicity >= 2 (its Krein form) or of defective clouds (its merge) is
handled matrix by matrix.  A stack raises the first check that any of its
matrices fails, and the error's ``row`` is the first matrix that fails it;
that matrix raises the same error on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (_check_even_square, _symplectic_residuals, as_array,
                   finite_matrix, normalize_unit, omega_matrix)
from .errors import (
    ContractError,
    IllConditionedSpectrumError,
    KreinDegenerateError,
    NotAnEigenvalueError,
    SympindexError,
)
from .tolerances import DEFAULT_TOL, ToleranceProfile

__all__ = [
    "EigenQuadruple",
    "KreinData",
    "eigen_quadruples",
    "generalized_eigenspace",
    "krein_form",
    "first_kind_eigenvalues",
    "rho",
]

# regimes of a quadruple, indexed by their codes
_REGIMES = ("PlusOne", "MinusOne", "RealPositive", "RealNegative",
            "UnitNonReal", "OffCircleComplex")
_PLUS_ONE, _MINUS_ONE, _REAL_POSITIVE, _REAL_NEGATIVE, _UNIT, _OFF_CIRCLE = range(6)
# distinct members {lam, 1/lam, conj(lam), 1/conj(lam)} per regime code
_MEMBER_COUNT = np.array([1, 1, 2, 2, 2, 4])


def _regime_codes(reps: np.ndarray) -> np.ndarray:
    """Regime code of each representative (on or outside the circle, Im >= 0)."""
    re, im = reps.real, reps.imag
    return np.select(
        [reps == 1.0, reps == -1.0, (im == 0.0) & (re > 0.0), im == 0.0,
         np.abs(np.hypot(re, im) - 1.0) < 1e-12],
        [_PLUS_ONE, _MINUS_ONE, _REAL_POSITIVE, _REAL_NEGATIVE, _UNIT],
        _OFF_CIRCLE)


@dataclass(frozen=True)
class EigenQuadruple:
    """A conjugation/inversion-closed group of eigenvalue clusters.

    ``representative`` lies on or outside the unit circle with Im >= 0;
    ``members`` are the distinct values of {lam, 1/lam, conj(lam),
    1/conj(lam)} derived from it, each of algebraic multiplicity
    ``multiplicity``.  ``regime`` is classified from the representative
    once, at construction.
    """

    representative: complex
    multiplicity: int
    regime: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "regime", _REGIMES[
            int(_regime_codes(np.array(self.representative)))])

    @classmethod
    def _classified(cls, representative: complex, multiplicity: int,
                    regime: str) -> EigenQuadruple:
        """A quadruple whose regime ``_quadruples`` has already classified."""
        q = object.__new__(cls)
        object.__setattr__(q, "representative", representative)
        object.__setattr__(q, "multiplicity", multiplicity)
        object.__setattr__(q, "regime", regime)
        return q

    @property
    def members(self) -> tuple[complex, ...]:
        rep, regime = self.representative, self.regime
        if regime in ("PlusOne", "MinusOne"):
            return (rep,)
        if regime == "UnitNonReal":
            return (rep, rep.conjugate())
        if regime == "OffCircleComplex":
            inv = 1.0 / rep
            return (rep, rep.conjugate(), inv, inv.conjugate())
        # real arithmetic: the partner of a real eigenvalue has Im +0.0
        return (rep, complex(1.0 / rep.real))

    @property
    def total_multiplicity(self) -> int:
        return self.multiplicity * len(self.members)


@dataclass(frozen=True)
class KreinData:
    """Krein form of a unit non-real eigenvalue on a basis of E_lam."""

    lam: complex
    q_matrix: np.ndarray       # Hermitian matrix of the form on the basis
    signature: tuple[int, int]  # (m_plus, m_minus), summing to dim_C E_lam


def _fail(exc: SympindexError, row) -> SympindexError:
    """``exc``, naming in its ``row`` the failing matrix of a stack."""
    exc.row = int(row)
    return exc


def _check(bad: np.ndarray, error) -> None:
    """Raise ``error(row)`` for the first matrix of a stack that ``bad`` flags."""
    if bad.any():
        row = int(np.argmax(bad))
        raise _fail(error(row), row)


def _pairwise(values: np.ndarray) -> np.ndarray:
    """The distances |values[..., i] - values[..., j]| within each row."""
    return np.abs(values[..., :, None] - values[..., None, :])


def _cluster(values: np.ndarray, valid: np.ndarray, radius: float):
    """Connected components of the graph joining the valid values of each
    row that lie at most ``radius`` apart.

    Min-label propagation: every value takes the smallest label among its
    neighbours until the labels are stable, so each component is labelled by
    its smallest index.  Returns each component's mean and size at the
    column of that index, and size 0 at every other column.  Only the rows
    with an edge are relabelled.
    """
    m = values.shape[1]
    adjacent = (_pairwise(values) <= radius) & valid[:, :, None] & valid[:, None, :]
    means, sizes = values.copy(), valid.astype(int)
    linked = np.count_nonzero(adjacent, axis=(1, 2)) > sizes.sum(axis=1)
    if not linked.any():
        return means, sizes
    index = np.arange(m)
    # an invalid value keeps its own label
    adjacent = adjacent[linked] | np.eye(m, dtype=bool)
    labels = np.broadcast_to(index, (len(adjacent), m))
    while True:
        spread = np.where(adjacent, labels[:, None, :], m).min(axis=2)
        if (spread == labels).all():
            break
        labels = spread
    members = (labels[:, None, :] == index[:, None]) & valid[linked][:, None, :]
    size = np.count_nonzero(members, axis=2)
    means[linked] = (members @ values[linked][..., None])[..., 0] / np.maximum(size, 1)
    sizes[linked] = size
    return means, sizes


def _snap(reps: np.ndarray, tol: float) -> np.ndarray:
    """Project cluster representatives onto the exact regime structure."""
    re = reps.real
    im = np.where(np.abs(reps.imag) <= tol * np.maximum(1.0, np.abs(reps)),
                  0.0, reps.imag)
    size = np.hypot(re, im)
    # divide the parts: a complex array divided by a real one is multiplied
    # by the reciprocal, which rounds differently from a complex / float
    scale = np.where(np.abs(size - 1.0) <= tol, size, 1.0)
    z = re / scale + 1j * (im / scale)
    z[np.abs(z - 1.0) <= tol] = 1.0
    z[np.abs(z + 1.0) <= tol] = -1.0
    return z


def _merge_clouds(snapped: np.ndarray, mults: np.ndarray, tol: float):
    """Merge snapped clusters that lie within ``tol`` (relative) of each other."""
    merged: list[list] = []
    for rep, mult in zip(snapped.tolist(), mults.tolist()):
        for entry in merged:
            if abs(entry[0] - rep) <= tol * max(1.0, abs(rep)):
                total = entry[1] + mult
                entry[0] = (entry[0] * entry[1] + rep * mult) / total
                entry[1] = total
                break
        else:
            merged.append([rep, mult])
    return (np.array([complex(r) for r, _ in merged]),
            np.array([int(m) for _, m in merged]))


def eigen_quadruples(A, tol: ToleranceProfile = DEFAULT_TOL, *,
                     eigenvalues: np.ndarray | None = None):
    """Cluster the spectrum of a symplectic matrix into quadruples.

    Only the eigenvalues on or outside the unit circle (within the snapping
    radius 10*tol_eig) are clustered; each cluster with Im >= 0 stands for
    its quadruple, whose partners inside the disk are derived from it.  A
    computed eigenvalue inside the disk carries a relative error of about
    cond(A)*eps, so matching it would reject well-determined spectra.

    ``eigenvalues``, when given, are those of a decomposition of A that the
    caller already made; otherwise they are computed here.

    Of a stack (k, 2n, 2n), with ``eigenvalues`` of shape (k, 2n), the
    quadruples come as three (k, 2n) arrays, the representatives, the
    multiplicities and the regime codes: each column of nonzero
    multiplicity holds a quadruple, in the order of the list for one
    matrix.  The stack is checked and clustered at once and fails as
    ``rho`` does.
    """
    a = as_array(A)
    _check_even_square(a, stacked=True)
    stack = a if a.ndim == 3 else a[None]
    given = (None if eigenvalues is None
             else np.reshape(eigenvalues, stack.shape[:2]))
    reps, mults, codes = _quadruples(stack, given, tol)
    if a.ndim == 3:
        return reps, mults, codes
    return [EigenQuadruple._classified(rep, mult, _REGIMES[code])
            for rep, mult, code
            in zip(reps[0].tolist(), mults[0].tolist(), codes[0].tolist())
            if mult]


def _quadruples(stack: np.ndarray, evals: np.ndarray | None,
                tol: ToleranceProfile):
    """``eigen_quadruples`` of a stack with its regime codes, raising the
    first check that a matrix fails, for the first matrix that fails it."""
    n = stack.shape[-1] // 2
    tol_eig = tol.tol_eig
    _check(~(_symplectic_residuals(stack) <= tol.tol_symp),
           lambda r: ContractError("eigen_quadruples requires a symplectic matrix"))
    if evals is None:
        evals = np.linalg.eigvals(stack)
    # a symplectic matrix has no zero eigenvalue: precision was lost
    _check(~evals.all(axis=1),
           lambda r: IllConditionedSpectrumError("an eigenvalue rounds to zero"))
    # the outer eigenvalues first, in their order; the rest is padding
    outer = np.abs(evals) >= 1.0 - 10 * tol_eig
    values = np.take_along_axis(
        evals, np.argsort(~outer, axis=1, kind="stable"), axis=1)
    valid = np.arange(2 * n) < np.count_nonzero(outer, axis=1)[:, None]
    means, mults = _cluster(values, valid, tol_eig)
    roots = mults > 0
    snapped = _snap(means, 10 * tol_eig)

    # Ambiguity guard: two clusters closer than 10*tol_eig but neither merged
    # nor identified by snapping onto the same structural value.
    pairs = roots[:, :, None] & roots[:, None, :]
    gaps = _pairwise(means)
    apart = _pairwise(snapped)
    band = pairs & (gaps > tol_eig) & (gaps <= 10 * tol_eig) & (apart > tol_eig)

    def ambiguous(r):
        # symmetric with an empty diagonal: the first hit in row order has i < j
        i, j = np.argwhere(band[r])[0]
        return IllConditionedSpectrumError(
            f"cluster gap {gaps[r, i, j]:.3e} inside the ambiguity band "
            f"({tol_eig:.1e}, {10 * tol_eig:.1e})")

    _check(band.any(axis=(1, 2)), ambiguous)

    # Defective eigenvalues split into small clouds whose members may land in
    # separate clusters yet snap to the same value; merge those.  Unless two
    # snapped values are that close (in either order), the merge is a no-op.
    within = pairs & (apart <= tol_eig * np.maximum(1.0, np.abs(snapped))[:, None, :])
    for r in np.flatnonzero(np.count_nonzero(within, axis=(1, 2)) > roots.sum(axis=1)):
        cols = np.flatnonzero(roots[r])
        merged, sizes = _merge_clouds(snapped[r, cols], mults[r, cols], tol_eig)
        mults[r, cols] = 0
        snapped[r, cols[:len(merged)]] = merged
        mults[r, cols[:len(merged)]] = sizes
    mults[snapped.imag < 0.0] = 0

    # the inside half is not clustered: its count shows only here
    codes = _regime_codes(snapped)
    total = (mults * _MEMBER_COUNT[codes]).sum(axis=1)
    _check(total != 2 * n, lambda r: IllConditionedSpectrumError(
        f"quadruple multiplicities sum to {total[r]}, expected {2 * n}"))
    return snapped, mults, codes


def _nullspace(M: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of M.

    Singular values up to rtol * max(1, largest) count as zero; a wide M
    adds its column excess.
    """
    if M.shape[0] == 0:
        return np.eye(M.shape[1], dtype=M.dtype)
    _, s, vh = np.linalg.svd(M)
    scale = s[0] if len(s) and s[0] > 0 else 1.0
    k = int(np.sum(s <= rtol * max(1.0, scale))) + max(M.shape[1] - M.shape[0], 0)
    if k == 0:
        return np.zeros((M.shape[1], 0), dtype=M.dtype)
    return vh[-k:].conj().T


def _finite_power(power, lam: complex) -> np.ndarray:
    """``power()``, a power of A - lam, checked finite: LAPACK's SVD of a
    matrix with infinite entries need not return."""
    with np.errstate(over="ignore", invalid="ignore"):
        P = power()
    if not np.isfinite(P).all():
        raise IllConditionedSpectrumError(f"a power of A - {lam:.6g} overflows")
    return P


def generalized_eigenspace(A, lam: complex, tol: ToleranceProfile = DEFAULT_TOL,
                           multiplicity: int | None = None) -> np.ndarray:
    """Orthonormal basis of E_lam = union_j Ker(A - lam)^j, real for a real lam.

    Without ``multiplicity``, kernels of increasing powers are computed by
    SVD until the dimension stabilizes.  With the algebraic multiplicity
    supplied, the basis is taken directly as the singular subspace of
    (A - lam)^multiplicity belonging to its ``multiplicity`` smallest
    singular values, which must be invariant under A.
    """
    if not np.isfinite(lam):
        raise ContractError(f"eigenvalue {lam} is not finite")
    a = finite_matrix(A).astype(np.result_type(lam, float))
    dim = a.shape[0]
    M = a - lam * np.eye(dim)
    thresh = max(tol.tol_kernel, tol.tol_eig)

    if multiplicity is not None:
        # The invariant subspace belonging to the smallest singular values of
        # (A - lam)^multiplicity; robust for defective clusters of any norm,
        # where rank decisions on low powers are blurred by roundoff.
        P = _finite_power(lambda: np.linalg.matrix_power(M, multiplicity), lam)
        _, _, vh = np.linalg.svd(P)
        basis = vh[-multiplicity:].conj().T
        coeff = basis.conj().T @ (M @ basis)
        res = np.linalg.norm(M @ basis - basis @ coeff)
        if res > 1e-6 * (1.0 + np.linalg.norm(M)):
            raise IllConditionedSpectrumError(
                f"generalized eigenspace of {lam:.6g} is not invariant "
                f"(residual {res:.3e})")
        return basis

    basis = _nullspace(M, thresh)
    if basis.shape[1] == 0:
        raise NotAnEigenvalueError(f"{lam:.6g} is not an eigenvalue within tolerance")
    prev = basis.shape[1]
    P = M.copy()
    for _ in range(1, dim):
        P = _finite_power(lambda: P @ M, lam)
        nb = _nullspace(P, thresh)
        if nb.shape[1] <= prev:
            break
        basis, prev = nb, nb.shape[1]
    return basis


def _krein_matrix(basis: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Hermitian matrix H = -i B^T Omega conj(B) of the Krein form on basis B.

    Its diagonal is Im(b^T Omega conj(b)) per column; off the diagonal both
    parts count, and only the whole of H has a signature that does not
    depend on the basis.
    """
    h = -1j * (basis.T @ omega @ basis.conj())
    return 0.5 * (h + h.conj().T)


def _unit_eigenvalue(lam: complex, tol: ToleranceProfile) -> complex:
    """``lam`` projected onto the circle, if it is a unit non-real eigenvalue."""
    if abs(abs(lam) - 1.0) > 10 * tol.tol_eig or abs(lam.imag) <= 10 * tol.tol_eig:
        raise ContractError(f"{lam:.6g} is not a unit non-real eigenvalue")
    return lam / abs(lam)


def _krein_degenerate(lam: complex, smallest: float) -> KreinDegenerateError:
    return KreinDegenerateError(
        f"Krein form at {lam:.6g} has eigenvalue {smallest:.3e} "
        "below tol_form (eigenvalue drifting off the circle?)")


def krein_form(A, lam: complex, tol: ToleranceProfile = DEFAULT_TOL,
               multiplicity: int | None = None) -> KreinData:
    """Krein form and signature at a unit-modulus, non-real eigenvalue."""
    a = as_array(A)
    lam = _unit_eigenvalue(lam, tol)
    basis = generalized_eigenspace(a, lam, tol, multiplicity)
    q = _krein_matrix(basis, omega_matrix(a.shape[0] // 2))
    w = np.linalg.eigvalsh(q).tolist()
    smallest = min(abs(x) for x in w)
    if smallest <= tol.tol_form:
        raise _krein_degenerate(lam, smallest)
    return KreinData(lam=lam, q_matrix=q,
                     signature=(sum(x > 0 for x in w), sum(x < 0 for x in w)))


class _Summary(NamedTuple):
    """Quadruples and Krein signatures of a stack, as (k, 2n) arrays: each
    column of nonzero ``mults`` holds a quadruple (``eigen_quadruples``)."""

    reps: np.ndarray
    mults: np.ndarray
    codes: np.ndarray   # regime codes
    plus: np.ndarray    # Krein signature (m_plus, m_minus) of the unit pairs
    minus: np.ndarray
    forms: np.ndarray   # Krein form of each simple unit pair, else 0


def _spectral_summary(stack: np.ndarray, tol: ToleranceProfile) -> _Summary:
    """Quadruples plus Krein signatures for every unit non-real pair of each
    matrix of a stack.

    A simple unit eigenvalue (multiplicity 1, and the only eigenvalue within
    10*tol_eig) spans E_lam with its eigenvector, so one product over the
    unit-length eigenvectors gives the Krein forms of all of them.
    Larger clusters take ``krein_form`` on their generalized eigenspace.
    """
    _check(~np.isfinite(stack).all(axis=(1, 2)),
           lambda r: ContractError("matrix has non-finite entries"))
    # one decomposition serves the clustering and the Krein forms; eig of the
    # real matrix costs about half of the complex one and still returns
    # conjugate eigenvector pairs
    evals, evecs = np.linalg.eig(stack)
    reps, mults, codes = eigen_quadruples(stack, tol, eigenvalues=evals)
    plus, minus = np.zeros_like(mults), np.zeros_like(mults)
    forms = np.zeros(mults.shape)
    # the unit pairs in the order they meet their checks (Im lam > 0)
    rows, cols = np.nonzero((mults > 0) & (codes == _UNIT))
    lams = reps[rows, cols]
    near = np.abs(evals[rows] - lams[:, None]) <= 10 * tol.tol_eig
    simple = (near.sum(axis=1) == 1) & (mults[rows, cols] == 1)
    # the form of a unit-length eigenvector v is Im(v^T Omega conj(v))
    vecs = evecs[rows[simple], :, np.nonzero(near[simple])[1]]
    form = np.zeros(len(rows))
    form[simple] = np.einsum("ki,ij,kj->k", vecs, omega_matrix(stack.shape[-1] // 2),
                             vecs.conj()).imag
    # the pairs before the first degenerate simple one meet their checks
    # first: each larger cluster takes krein_form, which may raise instead
    degenerate = simple & (np.abs(form) <= tol.tol_form)
    stop = int(np.argmax(degenerate)) if degenerate.any() else len(rows)
    for i in np.flatnonzero(~simple[:stop]):
        r, j = rows[i], cols[i]
        try:
            kd = krein_form(stack[r], complex(lams[i]), tol, multiplicity=int(mults[r, j]))
        except SympindexError as exc:
            raise _fail(exc, r)
        plus[r, j], minus[r, j] = kd.signature
    if stop < len(rows):
        lam = _unit_eigenvalue(complex(lams[stop]), tol)
        raise _fail(_krein_degenerate(lam, abs(form[stop])), rows[stop])
    rows, cols, form = rows[simple], cols[simple], form[simple]
    plus[rows, cols], minus[rows, cols], forms[rows, cols] = form > 0, form < 0, form
    return _Summary(reps, mults, codes, plus, minus, forms)


def _first_kind(s: _Summary, n: int):
    """The first-kind eigenvalues of each matrix of a summarised stack.

    Each quadruple's column holds up to two values with their counts: the
    partner inside the disk of a real pair (m times), both partners inside
    the disk of an off-circle quadruple (m times each), +-1 (m/2 times), and
    lam and conj(lam) of a unit pair (m_plus and m_minus times).  Returns
    values and counts of shape (k, 2n, 2).
    """
    quad = s.mults > 0
    plus_minus_one = quad & (s.codes <= _MINUS_ONE)
    odd = plus_minus_one & (s.mults % 2 != 0)

    def odd_multiplicity(r):
        j = np.argmax(odd[r])
        return IllConditionedSpectrumError(
            f"eigenvalue {complex(s.reps[r, j])} has odd multiplicity {s.mults[r, j]}")

    _check(odd.any(axis=1), odd_multiplicity)
    unit = quad & (s.codes == _UNIT)
    inside = quad & ~plus_minus_one & ~unit
    # the reciprocal rounds as 1/lam in complex arithmetic, and a real
    # pair's partner has Im +0.0 as in real arithmetic
    inverse = np.reciprocal(np.where(inside, s.reps, 1.0))
    inverse.imag[inside & (s.reps.imag == 0.0)] = 0.0
    first = np.where(inside, inverse, np.where(quad, s.reps, 1.0))
    values = np.stack([first, first.conj()], axis=-1)
    counts = np.stack(
        [np.select([inside, plus_minus_one, unit], [s.mults, s.mults // 2, s.plus]),
         np.select([s.codes == _OFF_CIRCLE, unit], [s.mults, s.minus])], axis=-1)
    total = counts.sum(axis=(1, 2))
    _check(total != n, lambda r: IllConditionedSpectrumError(
        f"selected {total[r]} first-kind eigenvalues, expected {n}"))
    return values, counts


def first_kind_eigenvalues(A, tol: ToleranceProfile = DEFAULT_TOL) -> list[complex]:
    """The n eigenvalues of the first kind, with multiplicity."""
    a = as_array(A)
    n = _check_even_square(a)
    values, counts = _first_kind(_spectral_summary(a[None], tol), n)
    return np.repeat(values[0].ravel(), counts[0].ravel()).tolist()


def _unit_product(s: _Summary, negative: np.ndarray) -> np.ndarray:
    """Route 1: the product of lam^m_plus conj(lam)^m_minus over the unit
    pairs in column order, negated where ``negative``, on the unit circle.

    The complex products and the final division by the modulus are spelled
    out in real arithmetic, one rounding per operation, so a value does not
    depend on the loop numpy picks for a complex array; the zero terms keep
    the sign of a zero part as complex arithmetic does (-1 stays -1+0j).
    """
    unit = (s.mults > 0) & (s.codes == _UNIT)
    factor = np.where(s.plus > 0, s.reps, s.reps.conj())  # a simple pair
    for r, j in zip(*np.nonzero(unit & (s.plus + s.minus > 1))):
        lam = complex(s.reps[r, j])
        factor[r, j] = lam ** int(s.plus[r, j]) * np.conj(lam) ** int(s.minus[r, j])
    re, im = np.ones(len(unit)), np.zeros(len(unit))
    for j in np.flatnonzero(unit.any(axis=0)):
        on, fr, fi = unit[:, j], factor[:, j].real, factor[:, j].imag
        re, im = (np.where(on, re * fr - im * fi, re),
                  np.where(on, re * fi + im * fr, im))
    sign = np.where(negative, -1.0, 1.0)
    re, im = re * sign - im * 0.0, re * 0.0 + im * sign
    size = np.hypot(re, im)
    out = np.empty(len(unit), dtype=complex)
    out.real, out.imag = (re + im * 0.0) / size, (im - re * 0.0) / size
    return out


def _rho_routes(stack: np.ndarray, tol: ToleranceProfile):
    """rho of each matrix of a stack by both routes, which must agree, with
    the values and counts of the first-kind eigenvalues of route 2."""
    s = _spectral_summary(stack, tol)
    # Route 1: the closed formula over negative-real and unit eigenvalues.
    m_minus = (s.mults * np.select([s.codes == _REAL_NEGATIVE, s.codes == _MINUS_ONE],
                                   [2, 1])).sum(axis=1)
    _check(m_minus % 2 != 0, lambda r: IllConditionedSpectrumError(
        "negative-real multiplicity is odd"))
    value = _unit_product(s, m_minus // 2 % 2 == 1)

    # Route 2: product of first-kind phases.
    values, counts = _first_kind(s, stack.shape[-1] // 2)
    prod = normalize_unit(np.prod(normalize_unit(values) ** counts, axis=(1, 2)))

    _check(np.abs(value - prod) > 1e-9, lambda r: IllConditionedSpectrumError(
        f"rho routes disagree: {complex(value[r]):.12g} vs {complex(prod[r]):.12g}"))
    return value, values, counts


def rho(A, tol: ToleranceProfile = DEFAULT_TOL, *, first_kind: bool = False):
    """The canonical rotation map, computed by two routes that must agree.

    Of a stack (k, 2n, 2n), the array of the values of its matrices, from
    one spectral summary of the whole stack.  A stack raises the first
    check that any of its matrices fails; the error's ``row`` is the index
    of the first matrix that fails that check, and that matrix raises the
    same error on its own.  The matrices before it passed the checks up to
    that one, and may fail a later one.

    With ``first_kind``, a pair: the value and the first-kind eigenvalues
    of route 2 with multiplicity, as ``first_kind_eigenvalues`` lists them
    (of a stack, one list per matrix), from the same summary.
    """
    a = as_array(A)
    _check_even_square(a, stacked=True)
    stack = a if a.ndim == 3 else a[None]
    values, first, counts = _rho_routes(stack, tol)
    if not first_kind:
        return values if a.ndim == 3 else complex(values[0])
    listed = [np.repeat(v.ravel(), c.ravel()).tolist()
              for v, c in zip(first, counts)]
    return (values, listed) if a.ndim == 3 else (complex(values[0]), listed[0])
