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
    q_matrix: np.ndarray       # real symmetric matrix of the Hermitian form
    signature: tuple[int, int]  # (m_plus, m_minus), summing to dim_C E_lam


def _cluster(values: np.ndarray, radius: float):
    """Greedy union-find clustering of complex values at the given radius."""
    m = len(values)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(values[i] - values[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for idx in groups.values():
        vals = values[idx]
        clusters.append((complex(np.mean(vals)), len(idx), idx))
    return clusters


def _snap(rep: complex, tol: float) -> complex:
    """Project a cluster representative onto the exact regime structure."""
    if abs(rep.imag) <= tol * max(1.0, abs(rep)):
        rep = complex(rep.real, 0.0)
    if abs(abs(rep) - 1.0) <= tol:
        rep = rep / abs(rep)
    if abs(rep - 1.0) <= tol:
        rep = 1.0 + 0.0j
    elif abs(rep + 1.0) <= tol:
        rep = -1.0 + 0.0j
    return rep


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


def eigen_quadruples(A, tol: ToleranceProfile = DEFAULT_TOL) -> list[EigenQuadruple]:
    """Cluster the spectrum of a symplectic matrix into quadruples."""
    a = as_array(A)
    if not is_symplectic(a, tol):
        raise ContractError("eigen_quadruples requires a symplectic matrix")
    n = a.shape[0] // 2
    evals = np.linalg.eigvals(a)
    clusters = _cluster(evals, tol.tol_eig)

    snap_tol = 10 * tol.tol_eig
    raw_snapped = [(_snap(rep, snap_tol), mult) for rep, mult, _ in clusters]

    # Ambiguity guard: two clusters closer than 10*tol_eig but neither merged
    # nor identified by snapping onto the same structural value.
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            d = abs(clusters[i][0] - clusters[j][0])
            if tol.tol_eig < d <= 10 * tol.tol_eig and \
                    abs(raw_snapped[i][0] - raw_snapped[j][0]) > tol.tol_eig:
                raise IllConditionedSpectrumError(
                    f"cluster gap {d:.3e} inside the ambiguity band "
                    f"({tol.tol_eig:.1e}, {10 * tol.tol_eig:.1e})"
                )

    # Defective eigenvalues split into small clouds whose members may land in
    # separate clusters yet snap to the same value; merge those.
    merged: list[list] = []
    for rep, mult in raw_snapped:
        for entry in merged:
            if abs(entry[0] - rep) <= tol.tol_eig * max(1.0, abs(rep)):
                total = entry[1] + mult
                entry[0] = (entry[0] * entry[1] + rep * mult) / total
                entry[1] = total
                break
        else:
            merged.append([rep, mult])
    snapped = [(complex(r), int(m)) for r, m in merged]

    match_tol = 10 * tol.tol_eig
    claimed = [False] * len(snapped)
    quadruples: list[EigenQuadruple] = []

    def _find(target: complex):
        for k, (rep, _) in enumerate(snapped):
            if not claimed[k] and abs(rep - target) <= match_tol * max(1.0, abs(target)):
                return k
        return None

    for i, (rep, mult) in enumerate(snapped):
        if claimed[i]:
            continue
        claimed[i] = True
        if rep == 0:
            # a symplectic matrix has no zero eigenvalue: precision was lost
            raise IllConditionedSpectrumError("an eigenvalue rounds to zero")
        targets = {rep}
        for t in (np.conj(rep), 1.0 / rep, 1.0 / np.conj(rep)):
            t = complex(t)
            if all(abs(t - s) > match_tol * max(1.0, abs(t)) for s in targets):
                targets.add(t)
        members = [rep]
        for t in sorted(targets - {rep}, key=lambda z: (z.real, z.imag)):
            k = _find(t)
            if k is None:
                raise IllConditionedSpectrumError(
                    f"missing quadruple partner {t:.6g} of eigenvalue {rep:.6g}"
                )
            claimed[k] = True
            if snapped[k][1] != mult:
                raise IllConditionedSpectrumError(
                    f"multiplicity mismatch within quadruple of {rep:.6g}"
                )
            members.append(snapped[k][0])

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


def _kernel_basis_complex(M: np.ndarray, thresh: float) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of M."""
    _, s, vh = np.linalg.svd(M)
    scale = s[0] if len(s) and s[0] > 0 else 1.0
    k = int(np.sum(s <= thresh * max(1.0, scale)))
    if k == 0:
        return np.zeros((M.shape[1], 0), dtype=complex)
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

    basis = _kernel_basis_complex(M, thresh)
    if basis.shape[1] == 0:
        raise NotAnEigenvalueError(f"{lam:.6g} is not an eigenvalue within tolerance")
    prev = basis.shape[1]
    P = M.copy()
    for _ in range(1, dim):
        P = P @ M
        nb = _kernel_basis_complex(P, thresh)
        if nb.shape[1] <= prev:
            break
        basis, prev = nb, nb.shape[1]
    return basis


def _krein_matrix(basis: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Real symmetric matrix of the Krein Hermitian form on the given basis."""
    k1 = basis.T @ omega @ basis.conj()
    q = np.imag(k1)
    return 0.5 * (q + q.T)


def krein_form(A, lam: complex, tol: ToleranceProfile = DEFAULT_TOL,
               basis: np.ndarray | None = None,
               multiplicity: int | None = None) -> KreinData:
    """Krein form and signature at a unit-modulus, non-real eigenvalue."""
    a = as_array(A)
    if abs(abs(lam) - 1.0) > 10 * tol.tol_eig or abs(lam.imag) <= 10 * tol.tol_eig:
        raise ContractError(f"{lam:.6g} is not a unit non-real eigenvalue")
    lam = lam / abs(lam)
    if basis is None:
        basis = generalized_eigenspace(a, lam, tol, multiplicity)
    om = omega_matrix(a.shape[0] // 2)
    q = _krein_matrix(basis, om)
    w = np.linalg.eigvalsh(q)
    if np.min(np.abs(w)) <= tol.tol_form:
        raise KreinDegenerateError(
            f"Krein form at {lam:.6g} has eigenvalue {np.min(np.abs(w)):.3e} "
            "below tol_form (eigenvalue drifting off the circle?)"
        )
    m_plus = int(np.sum(w > 0))
    m_minus = int(np.sum(w < 0))
    return KreinData(lam=lam, q_matrix=q, signature=(m_plus, m_minus))


def _unit_basis_fast(a: np.ndarray, lam: complex, mult: int,
                     evals: np.ndarray, evecs: np.ndarray,
                     tol: ToleranceProfile) -> np.ndarray:
    """Basis of E_lam from plain eigenvectors when the cluster is semisimple."""
    sel = np.abs(evals - lam) <= 10 * tol.tol_eig
    if int(np.sum(sel)) != mult:
        return generalized_eigenspace(a, lam, tol, multiplicity=mult)
    V = evecs[:, sel]
    s = np.linalg.svd(V, compute_uv=False)
    if s[-1] < 1e-6 * s[0]:
        # nearly parallel eigenvectors: defective, use the robust route
        return generalized_eigenspace(a, lam, tol, multiplicity=mult)
    q, _ = np.linalg.qr(V)
    return q


def _spectral_summary(A, tol: ToleranceProfile):
    """Quadruples plus Krein signatures for every unit non-real pair."""
    a = as_array(A)
    quads = eigen_quadruples(a, tol)
    need_vectors = any(q.regime == "UnitNonReal" for q in quads)
    evals = evecs = None
    if need_vectors:
        evals, evecs = np.linalg.eig(a.astype(complex))
    krein: dict[complex, KreinData] = {}
    for q in quads:
        if q.regime != "UnitNonReal":
            continue
        lam = q.representative  # Im > 0 by canonicalization
        basis = _unit_basis_fast(a, lam, q.multiplicity, evals, evecs, tol)
        krein[lam] = krein_form(a, lam, tol, basis=basis)
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
