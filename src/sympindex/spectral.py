"""Eigenvalue quadruples, Krein signatures, and the rotation map rho.

Eigenvalues of a symplectic matrix come in quadruples {lam, 1/lam,
conj(lam), 1/conj(lam)}.  For a unit-modulus non-real eigenvalue the
(generalized) eigenspace E_lam carries the nondegenerate Krein form
``Q(z, z') = Im Omega0(z, conj(z'))``; its signature decides which of
e^{±i phi} is "of the first kind".  The rotation map is

    rho(A) = (-1)^{m_minus/2} * prod_{unit non-real lam} lam^{m_plus(lam)/2}

which equals the product of the phases of the n first-kind eigenvalues.
Both routes are read off one spectral summary and required to agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_array, is_symplectic, normalize_unit, omega_matrix
from .errors import (
    ContractError,
    IllConditionedSpectrumError,
    KreinDegenerateError,
    NotAnEigenvalueError,
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


@dataclass(frozen=True)
class EigenQuadruple:
    """A conjugation/inversion-closed group of eigenvalue clusters.

    ``members`` holds the actually distinct values of
    {lam, 1/lam, conj(lam), 1/conj(lam)}; every member has the same
    algebraic multiplicity ``multiplicity``.
    """

    representative: complex
    members: tuple[complex, ...]
    regime: str
    multiplicity: int

    @property
    def total_multiplicity(self) -> int:
        return self.multiplicity * len(self.members)


@dataclass(frozen=True)
class KreinData:
    """Krein form of a unit non-real eigenvalue on a basis of E_lam."""

    lam: complex
    q_matrix: np.ndarray       # Hermitian matrix of the form on the basis
    signature: tuple[int, int]  # (m_plus, m_minus), summing to dim_C E_lam


def _pairwise(values: np.ndarray) -> np.ndarray:
    """Matrix of the distances |values[i] - values[j]|."""
    return np.abs(values[:, None] - values[None, :])


def _cluster(values: np.ndarray, radius: float):
    """Connected components of the graph joining values at most ``radius`` apart.

    Min-label propagation: every value takes the smallest label among its
    neighbours until the labels are stable, so each component is labelled by
    its smallest index and the components come out in that order.  Returns
    the component means and sizes.
    """
    m = len(values)
    adjacent = _pairwise(values) <= radius
    if np.count_nonzero(adjacent) == m:
        # no edges: every value is a component of its own
        return values, np.ones(m, dtype=int)
    index = np.arange(m)
    labels = index
    while True:
        spread = np.where(adjacent, labels, m).min(axis=1)
        if (spread == labels).all():
            break
        labels = spread
    members = labels == index[labels == index, None]
    sizes = np.count_nonzero(members, axis=1)
    return members @ values / sizes, sizes


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


def _regime(rep: complex) -> str:
    if rep == 1.0:
        return "PlusOne"
    if rep == -1.0:
        return "MinusOne"
    if rep.imag == 0.0:
        return "RealPositive" if rep.real > 0 else "RealNegative"
    if abs(abs(rep) - 1.0) < 1e-12:
        return "UnitNonReal"
    return "OffCircleComplex"


def eigen_quadruples(A, tol: ToleranceProfile = DEFAULT_TOL, *,
                     eigenvalues: np.ndarray | None = None) -> list[EigenQuadruple]:
    """Cluster the spectrum of a symplectic matrix into quadruples.

    ``eigenvalues``, when given, are those of a decomposition of A that the
    caller already made; otherwise they are computed here.
    """
    a = as_array(A)
    if not is_symplectic(a, tol):
        raise ContractError("eigen_quadruples requires a symplectic matrix")
    n = a.shape[0] // 2
    tol_eig = tol.tol_eig
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvals(a)
    means, mults = _cluster(eigenvalues, tol_eig)
    snapped = _snap(means, 10 * tol_eig)

    # Ambiguity guard: two clusters closer than 10*tol_eig but neither merged
    # nor identified by snapping onto the same structural value.
    gaps = _pairwise(means)
    apart = _pairwise(snapped)
    band = (gaps > tol_eig) & (gaps <= 10 * tol_eig) & (apart > tol_eig)
    if np.count_nonzero(band):
        # symmetric with an empty diagonal: the first hit in row order has i < j
        i, j = np.argwhere(band)[0]
        raise IllConditionedSpectrumError(
            f"cluster gap {gaps[i, j]:.3e} inside the ambiguity band "
            f"({tol_eig:.1e}, {10 * tol_eig:.1e})"
        )

    # Defective eigenvalues split into small clouds whose members may land in
    # separate clusters yet snap to the same value; merge those.  Unless two
    # snapped values are that close (in either order), the merge is a no-op.
    within = apart <= tol_eig * np.maximum(1.0, np.abs(snapped))
    if np.count_nonzero(within) > len(snapped):
        snapped, mults = _merge_clouds(snapped, mults, tol_eig)

    match_tol = 10 * tol_eig
    values, counts = snapped.tolist(), mults.tolist()
    claimed = [False] * len(values)
    quadruples: list[EigenQuadruple] = []
    for i, (rep, mult) in enumerate(zip(values, counts)):
        if claimed[i]:
            continue
        claimed[i] = True
        if rep == 0:
            # a symplectic matrix has no zero eigenvalue: precision was lost
            raise IllConditionedSpectrumError("an eigenvalue rounds to zero")
        # the partners farther than their reach from rep and from each other;
        # the conjugate inverse is rounded by numpy's complex division, whose
        # real part orders the two inverses among the members
        targets = []
        for t in (rep.conjugate(), 1.0 / rep, complex(1.0 / np.conj(rep))):
            reach = match_tol * max(1.0, abs(t))
            if abs(t - rep) > reach and all(abs(t - s) > reach for s, _ in targets):
                targets.append((t, reach))
        members = [rep]
        for t, reach in sorted(targets, key=lambda tr: (tr[0].real, tr[0].imag)):
            j = next((j for j, z in enumerate(values)
                      if not claimed[j] and abs(z - t) <= reach), None)
            if j is None:
                raise IllConditionedSpectrumError(
                    f"missing quadruple partner {t:.6g} of eigenvalue {rep:.6g}"
                )
            claimed[j] = True
            if counts[j] != mult:
                raise IllConditionedSpectrumError(
                    f"multiplicity mismatch within quadruple of {rep:.6g}"
                )
            members.append(values[j])

        regime = _regime(rep)
        canonical = rep
        if regime in ("UnitNonReal", "OffCircleComplex"):
            cands = [z for z in members if z.imag > 0]
            if regime == "OffCircleComplex":
                cands = [z for z in cands if abs(z) > 1]
            canonical = cands[0]
        elif regime in ("RealPositive", "RealNegative"):
            canonical = max(members, key=abs)
        quadruples.append(EigenQuadruple(
            representative=canonical,
            members=tuple(members),
            regime=regime,
            multiplicity=mult,
        ))

    total = sum(q.total_multiplicity for q in quadruples)
    if total != 2 * n:
        raise IllConditionedSpectrumError(
            f"quadruple multiplicities sum to {total}, expected {2 * n}"
        )
    return quadruples


def _nullspace(M: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of M.

    Singular values up to rtol * max(1, largest) count as zero; a wide M
    keeps at least its column excess.
    """
    if M.shape[0] == 0:
        return np.eye(M.shape[1], dtype=M.dtype)
    _, s, vh = np.linalg.svd(M)
    scale = s[0] if len(s) and s[0] > 0 else 1.0
    k = int(np.sum(s <= rtol * max(1.0, scale)))
    k = max(k, M.shape[1] - M.shape[0])
    if k == 0:
        return np.zeros((M.shape[1], 0), dtype=M.dtype)
    return vh[-k:].conj().T


def generalized_eigenspace(A, lam: complex, tol: ToleranceProfile = DEFAULT_TOL,
                           multiplicity: int | None = None) -> np.ndarray:
    """Orthonormal complex basis of E_lam = union_j Ker(A - lam)^j.

    Kernels of increasing powers are computed by SVD until the dimension
    stabilizes.  If the algebraic multiplicity is supplied and the staircase
    stalls below it (heavily defective case), the basis is taken instead as
    the singular subspace of (A - lam)^multiplicity belonging to its
    smallest singular values.
    """
    a = as_array(A).astype(complex)
    dim = a.shape[0]
    M = a - lam * np.eye(dim)
    thresh = max(tol.tol_kernel, tol.tol_eig)

    if multiplicity is not None:
        # The invariant subspace belonging to the smallest singular values of
        # (A - lam)^multiplicity; robust for defective clusters of any norm,
        # where rank decisions on low powers are blurred by roundoff.
        P = np.linalg.matrix_power(M, multiplicity)
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
        P = P @ M
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


def _krein_data(lam: complex, q: np.ndarray, w: list[float],
                tol: ToleranceProfile) -> KreinData:
    """Signature of the Krein matrix ``q`` with eigenvalues ``w``."""
    smallest = min(abs(x) for x in w)
    if smallest <= tol.tol_form:
        raise KreinDegenerateError(
            f"Krein form at {lam:.6g} has eigenvalue {smallest:.3e} "
            "below tol_form (eigenvalue drifting off the circle?)"
        )
    return KreinData(lam=lam, q_matrix=q,
                     signature=(sum(x > 0 for x in w), sum(x < 0 for x in w)))


def krein_form(A, lam: complex, tol: ToleranceProfile = DEFAULT_TOL,
               multiplicity: int | None = None) -> KreinData:
    """Krein form and signature at a unit-modulus, non-real eigenvalue."""
    a = as_array(A)
    lam = _unit_eigenvalue(lam, tol)
    basis = generalized_eigenspace(a, lam, tol, multiplicity)
    q = _krein_matrix(basis, omega_matrix(a.shape[0] // 2))
    return _krein_data(lam, q, np.linalg.eigvalsh(q).tolist(), tol)


def _spectral_summary(A, tol: ToleranceProfile):
    """Quadruples plus Krein signatures for every unit non-real pair.

    A simple unit eigenvalue (multiplicity 1, and the only eigenvalue within
    10*tol_eig) spans E_lam with its eigenvector, so one product over the
    unit-normalised eigenvectors gives the Krein forms of all of them.
    Larger clusters take ``krein_form`` on their generalized eigenspace.
    """
    a = as_array(A)
    # one decomposition serves the clustering and the Krein forms; eig of the
    # real matrix costs about half of the complex one and still returns
    # conjugate eigenvector pairs
    evals, evecs = np.linalg.eig(a)
    quads = eigen_quadruples(a, tol, eigenvalues=evals)
    units = [q for q in quads if q.regime == "UnitNonReal"]
    krein: dict[complex, KreinData] = {}
    if not units:
        return quads, krein
    lams = np.array([q.representative for q in units])  # Im > 0 by canonicalization
    near = np.abs(evals - lams[:, None]) <= 10 * tol.tol_eig
    simple = (near.sum(axis=1) == 1) & (np.array([q.multiplicity for q in units]) == 1)
    # eig returns unit-length eigenvectors
    vecs = evecs[:, near[simple].argmax(axis=1)]
    h = _krein_matrix(vecs, omega_matrix(a.shape[0] // 2))
    forms = iter(np.diag(h).real.tolist())
    for q, one in zip(units, simple):
        lam = q.representative
        if one:
            form = next(forms)
            krein[lam] = _krein_data(_unit_eigenvalue(lam, tol), np.array([[form]]),
                                     [form], tol)
        else:
            krein[lam] = krein_form(a, lam, tol, multiplicity=q.multiplicity)
    return quads, krein


def _first_kind(quads, krein, n: int) -> list[complex]:
    """The n first-kind eigenvalues, read off a spectral summary."""
    out: list[complex] = []
    for q in quads:
        m = q.multiplicity
        if q.regime in ("OffCircleComplex", "RealPositive", "RealNegative"):
            for z in q.members:
                if abs(z) < 1:
                    out.extend([z] * m)
        elif q.regime in ("PlusOne", "MinusOne"):
            if m % 2 != 0:
                raise IllConditionedSpectrumError(
                    f"eigenvalue {q.representative} has odd multiplicity {m}"
                )
            out.extend([q.representative] * (m // 2))
        else:  # UnitNonReal
            lam = q.representative
            r, s = krein[lam].signature
            out.extend([lam] * r)
            out.extend([np.conj(lam)] * s)
    if len(out) != n:
        raise IllConditionedSpectrumError(
            f"selected {len(out)} first-kind eigenvalues, expected {n}"
        )
    return out


def first_kind_eigenvalues(A, tol: ToleranceProfile = DEFAULT_TOL) -> list[complex]:
    """The n eigenvalues of the first kind, with multiplicity."""
    a = as_array(A)
    return _first_kind(*_spectral_summary(a, tol), a.shape[0] // 2)


def rho(A, tol: ToleranceProfile = DEFAULT_TOL) -> complex:
    """The canonical rotation map, computed by two routes that must agree."""
    a = as_array(A)
    quads, krein = _spectral_summary(a, tol)

    # Route 1: the closed formula over negative-real and unit eigenvalues.
    m_minus = 0
    value = 1.0 + 0.0j
    for q in quads:
        if q.regime == "RealNegative":
            m_minus += q.multiplicity * len(q.members)
        elif q.regime == "MinusOne":
            m_minus += q.multiplicity
        elif q.regime == "UnitNonReal":
            lam = q.representative
            r, s = krein[lam].signature
            value *= lam ** r * np.conj(lam) ** s
    if m_minus % 2 != 0:
        raise IllConditionedSpectrumError("negative-real multiplicity is odd")
    value *= (-1.0) ** (m_minus // 2)
    value = normalize_unit(complex(value))

    # Route 2: product of first-kind phases.
    prod = 1.0 + 0.0j
    for z in _first_kind(quads, krein, a.shape[0] // 2):
        prod *= normalize_unit(complex(z))
    prod = normalize_unit(prod)

    if abs(value - prod) > 1e-9:
        raise IllConditionedSpectrumError(
            f"rho routes disagree: {value:.12g} vs {prod:.12g}"
        )
    return value
