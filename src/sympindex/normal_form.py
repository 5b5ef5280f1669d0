"""Constructive symplectic normal forms.

Every symplectic matrix is symplectically conjugate to a direct sum of
canonical blocks, one family per eigenvalue quadruple:

* eigenvalues off the unit circle pair a Jordan block ``J(lam, m)`` with its
  inverse-transpose (real lam) or the real rotation-Jordan block ``J_R`` with
  its inverse-transpose (complex quadruples);
* eigenvalues +-1 give blocks ``[[J(lam,r), C(r,d,lam)], [0, J(lam,r)^-T]]``
  with a sign invariant d in {-1, 0, +1} (d = 0 forces r odd);
* unit non-real eigenvalues give even- or odd-sized rotation blocks whose
  coupling rows are not canonical; for those the realized coupling matrix is
  kept as an opaque payload so the reconstruction residual is meaningful,
  while the invariants are (case, s, phi) only.

One eigendecomposition of A serves the clustering into quadruples and
every simple quadruple whose eigenvalue is isolated (no other eigenvalue of
A within ``ISOLATION_GAP``): its order-1 block reads its basis from
eigenvectors, of A and, off the circle, of A^-1.  Every other quadruple
(+-1, a repeated, defective or clustered eigenvalue) takes the chain
construction, a per-quadruple recursion: pick a vector of
``spectral.generalized_eigenspace`` maximizing the relevant pairing, build
one block's symplectic basis from its Jordan chain, and recurse on the
symplectic orthogonal complement.
``semisimple_perturb`` builds none: one small Cayley factor of A parts its
eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (SympMatrix, direct_sum_many, finite_matrix, j_matrix,
                   omega_matrix, symplectic_residual)
from .errors import (IllConditionedSpectrumError, NormalFormError,
                     ParameterError, PerturbationFailureError)
from .spectral import _nullspace, eigen_quadruples, generalized_eigenspace
from .tolerances import DEFAULT_TOL, ToleranceProfile

__all__ = [
    "NormalFormBlock",
    "NormalFormReport",
    "normal_form",
    "assemble",
    "invariants_of",
    "semisimple_perturb",
]


@dataclass(frozen=True)
class NormalFormBlock:
    case: str
    size: int
    lambda_param: tuple  # (lam,) / (r, phi) / (lam,) for +-1 / (phi,)
    jordan_order: int    # p+1, r_j or s_j of the respective case
    d: int | None = None
    payload: np.ndarray | None = field(default=None, compare=False)

    def matrix(self) -> np.ndarray:
        return _block_matrix(self)


@dataclass(frozen=True)
class NormalFormReport:
    blocks: tuple[NormalFormBlock, ...]
    basis: np.ndarray     # symplectic K with K^-1 A K = assembled blocks
    residual: float

    def normal_matrix(self) -> np.ndarray:
        return direct_sum_many([b.matrix() for b in self.blocks])


# ---------------------------------------------------------------------------
# canonical block matrices


def _jordan(lam: float, m: int) -> np.ndarray:
    J = lam * np.eye(m)
    for i in range(m - 1):
        J[i, i + 1] = 1.0
    return J


def _rot(phi) -> np.ndarray:
    """Rotation by phi; of an array of angles, a stack of rotations."""
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def _jordan_rot(r: float, phi: float, two_m: int) -> np.ndarray:
    m = two_m // 2
    J = np.zeros((two_m, two_m))
    R = r * _rot(phi)
    for i in range(m):
        J[2 * i:2 * i + 2, 2 * i:2 * i + 2] = R
        if i + 1 < m:
            J[2 * i:2 * i + 2, 2 * i + 2:2 * i + 4] = np.eye(2)
    return J


def _coupling(k: int, d: int, lam: float) -> np.ndarray:
    D = np.zeros((k, k))
    D[k - 1, k - 1] = d
    return D @ np.linalg.inv(_jordan(lam, k)).T


def _block_matrix(block: NormalFormBlock) -> np.ndarray:
    case, order = block.case, block.jordan_order
    if case in ("UnitNonRealEven", "UnitNonRealOdd"):
        (phi,) = block.lambda_param
        if np.sin(phi) == 0.0:
            raise ParameterError("unit non-real blocks require sin(phi) != 0")
        if case == "UnitNonRealOdd" and order == 1:
            return _rot(phi)
        if block.payload is None:
            raise ParameterError(
                f"{case} of order {order} has free coupling rows; "
                "a realized payload matrix is required"
            )
        return np.asarray(block.payload)
    if case == "OffCircleComplex":
        r, phi = block.lambda_param
        if r <= 0 or r == 1.0:
            raise ParameterError("OffCircleComplex requires r in (0,1) or (1,inf)")
        J = _jordan_rot(r, phi, 2 * order)
    elif case == "OffCircleReal":
        (lam,) = block.lambda_param
        if abs(lam) in (0.0, 1.0):
            raise ParameterError("OffCircleReal requires |lam| not in {0, 1}")
        J = _jordan(lam, order)
    elif case == "PlusMinusOne":
        (lam,) = block.lambda_param
        if lam not in (1.0, -1.0):
            raise ParameterError("PlusMinusOne requires lam in {1, -1}")
        if block.d not in (-1, 0, 1):
            raise ParameterError("d must be in {-1, 0, +1}")
        if block.d == 0 and order % 2 == 0:
            raise ParameterError("d = 0 requires odd jordan order")
        J = _jordan(lam, order)
    else:
        raise ParameterError(f"unknown block case {case!r}")
    Z = np.zeros_like(J)
    C = _coupling(order, block.d, lam) if case == "PlusMinusOne" else Z
    return np.block([[J, C], [Z, np.linalg.inv(J).T]])


def assemble(blocks) -> np.ndarray:
    """Symplectic matrix realizing a block list via the interleaved sum."""
    mats = [_block_matrix(b) for b in blocks]
    out = direct_sum_many(mats)
    if symplectic_residual(out) > 1e-8:
        raise ParameterError("assembled blocks are not symplectic")
    return out


def invariants_of(report: NormalFormReport, decimals: int = 4):
    """Canonical multiset of block invariants (free coupling rows dropped)."""
    items = []
    for b in report.blocks:
        params = tuple(round(float(x), decimals) for x in b.lambda_param)
        items.append((b.case, b.size, b.jordan_order, params, b.d))
    return tuple(sorted(items, key=lambda it: (it[0], it[1], it[2], it[3], str(it[4]))))


# ---------------------------------------------------------------------------
# construction helpers


def _pair(om: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Bilinear symplectic pairing, extended complex-bilinearly."""
    return x @ om @ y


def _nilpotency(N: np.ndarray, Vb: np.ndarray, scale: float):
    """Largest p with (A - lam)^p nonzero on span(Vb), and (A - lam)^p Vb."""
    p, NpV = 0, Vb
    for _ in range(Vb.shape[1]):
        M = N @ NpV
        if np.linalg.norm(M) <= 1e-6 * scale:
            break
        p, NpV = p + 1, M
    return p, NpV


def _chain(N: np.ndarray, v: np.ndarray, p: int) -> list[np.ndarray]:
    """[N^p v, N^{p-1} v, ..., v] (the e_1..e_{p+1} ordering)."""
    out = [v]
    for _ in range(p):
        out.append(N @ out[-1])
    return out[::-1]


def _dual_basis(om, e_cols: list[np.ndarray], g_cols: list[np.ndarray]):
    """f_j = sum_m g_m * (G^-1)_{mj} with G_{im} = Omega(e_i, g_m)."""
    G = np.array([[_pair(om, e, g) for g in g_cols] for e in e_cols])
    if np.linalg.cond(G) > 1e10:
        raise NormalFormError("degenerate chain pairing (cond(G) too large)")
    M = np.linalg.inv(G)
    return [sum(g_cols[m] * M[m, j] for m in range(len(g_cols)))
            for j in range(len(e_cols))]


def _realify_pairs(u_list, f_list):
    """Real (x, y) columns from conjugate chain pairs and their duals."""
    s2 = np.sqrt(2.0)
    xs, ys = [], []
    for u, f in zip(u_list, f_list):
        xs.append(s2 * u.real)
        xs.append(-s2 * u.imag)
        ys.append(s2 * f.real)
        ys.append(s2 * f.imag)
    return xs, ys


def _complement(om, Vb, span, name):
    """The part of span(Vb) symplectically orthogonal to the columns of span."""
    rest = Vb @ _nullspace(span.T @ om @ Vb)
    if rest.shape[1] >= Vb.shape[1]:
        raise NormalFormError(f"{name} recursion failed to shrink")
    return rest


# ---------------------------------------------------------------------------
# case 1: eigenvalues off the unit circle (real or complex quadruples)


def _case_off_circle(a, om, lam, mult, is_real, tol):
    """(block, E, F) per block of an off-circle quadruple, with real E, F.

    E_{1/lam} of A is E_lam of A^-1 = Omega^T A^T Omega, where lam lies
    outside the disk: that eigenspace is separated from the rest of the
    spectrum by about |lam|, against gaps of about 1/|lam| inside the disk.
    """
    if is_real:
        lam = lam.real
    Vb = generalized_eigenspace(a, lam, tol, multiplicity=mult)
    Wb = generalized_eigenspace(om.T @ a.T @ om, lam, tol, multiplicity=mult)
    N = a - lam * np.eye(a.shape[0])
    Nw = a - (1.0 / lam) * np.eye(a.shape[0])
    while Vb.shape[1] > 0:
        p, NpV = _nilpotency(N, Vb, np.linalg.norm(Vb))
        M = NpV.T @ om @ Wb
        i, j = np.unravel_index(np.argmax(np.abs(M)), M.shape)
        if abs(M[i, j]) < tol.tol_form:
            raise NormalFormError("degenerate off-circle pairing")
        e_cols = _chain(N, Vb[:, i], p)
        g_cols = _chain(Nw, Wb[:, j] / M[i, j], p)[::-1]  # (A - 1/lam)^{j-1} w
        f_cols = _dual_basis(om, e_cols, g_cols)
        if is_real:
            yield (NormalFormBlock(case="OffCircleReal", size=2 * (p + 1),
                                   lambda_param=(float(lam),), jordan_order=p + 1),
                   np.column_stack(e_cols), np.column_stack(f_cols))
        else:
            xs, ys = _realify_pairs(e_cols, f_cols)
            r, phi = float(abs(lam)), float(np.angle(lam))
            yield (NormalFormBlock(case="OffCircleComplex", size=4 * (p + 1),
                                   lambda_param=(r, phi), jordan_order=p + 1),
                   np.column_stack(xs), np.column_stack(ys))
        Wb = _complement(om, Wb, np.column_stack(e_cols), "off-circle")
        Vb = _complement(om, Vb, np.column_stack(f_cols), "off-circle")


# ---------------------------------------------------------------------------
# case 2: eigenvalues +-1


def _clean(om, N, x, p, sums, y=None):
    """x plus multiples of N^{p-s} y so that Omega(N^s x, x) = 0 for each s
    of sums in turn; y defaults to x itself, as it is updated."""
    for s in sums:
        Ns = np.linalg.matrix_power(N, s)
        delta = _pair(om, Ns @ x, x)
        if abs(delta) <= 1e-13:
            continue
        Ny = np.linalg.matrix_power(N, p - s) @ (x if y is None else y)
        bracket = _pair(om, Ns @ Ny, x) + _pair(om, Ns @ x, Ny)
        if abs(bracket) < 1e-12:
            if abs(delta) < 1e-9:
                continue
            raise NormalFormError("cleaning step unsolvable (zero bracket)")
        x = x + (-delta / bracket) * Ny
    return x


def _case_plus_minus_one(a, om, lam, mult, tol):
    lam = float(lam.real)
    Vb = generalized_eigenspace(a, lam, tol, multiplicity=mult)
    N = a - lam * np.eye(a.shape[0])
    while Vb.shape[1] > 0:
        p, NpV = _nilpotency(N, Vb, np.linalg.norm(Vb))
        M = NpV.T @ om @ Vb
        if p % 2 == 1:
            # symmetric top form: block [[J(lam,k), C(k,d,lam)], [0, J^-T]]
            k = (p + 1) // 2
            w_eig, U = np.linalg.eigh(0.5 * (M + M.T))
            imax = int(np.argmax(np.abs(w_eig)))
            if abs(w_eig[imax]) < tol.tol_form:
                raise NormalFormError("degenerate symmetric pairing at +-1")
            v = Vb @ U[:, imax]
            v = v / np.sqrt(abs(_pair(om, np.linalg.matrix_power(N, p) @ v, v)))
            # kill Omega(N^i v, N^j v) for i, j <= k-1: even sums vanish by
            # antisymmetry, odd sums are cleaned in descending order
            chain = _chain(N, _clean(om, N, v, p, range(p - 2, 0, -2)), p)
            e_cols, f_cols = chain[:k], _dual_basis(om, chain[:k], chain[k:])
            # the sign invariant is read off the realized coupling row
            B_real = _block_payload(
                a, om, np.column_stack(e_cols), np.column_stack(f_cols))
            D = B_real[:k, k:] @ _jordan(lam, k).T
            d = int(round(D[k - 1, k - 1]))
            if d not in (-1, 1) or \
                    np.linalg.norm(D - _coupling(k, d, lam) @ _jordan(lam, k).T) > 1e-6:
                raise NormalFormError("unexpected coupling at +-1 (sign readoff)")
        else:
            # antisymmetric top form: block [[J(lam,p+1), 0], [0, J^-T]], d = 0
            k, d = p + 1, 0
            Ma = 0.5 * (M - M.T)
            i, j = np.unravel_index(np.argmax(np.abs(Ma)), Ma.shape)
            if abs(Ma[i, j]) < tol.tol_form:
                raise NormalFormError("degenerate antisymmetric pairing at +-1")
            v, w = Vb[:, i], Vb[:, j]
            w = w / _pair(om, np.linalg.matrix_power(N, p) @ v, w)
            v = _clean(om, N, v, p, range(p - 1, -1, -1), w)
            w = w / _pair(om, np.linalg.matrix_power(N, p) @ v, w)
            w = _clean(om, N, w, p, range(p - 1, -1, -1), v)
            e_cols = _chain(N, v, p)
            f_cols = _dual_basis(om, e_cols, _chain(N, w, p))
        E, F = np.column_stack(e_cols), np.column_stack(f_cols)
        yield (NormalFormBlock(case="PlusMinusOne", size=2 * k, lambda_param=(lam,),
                               jordan_order=k, d=d), E, F)
        Vb = _complement(om, Vb, np.column_stack([E, F]), "plus-minus-one")


# ---------------------------------------------------------------------------
# case 3: unit non-real eigenvalues


def _hermitian_top_form(om, NpV, Vb):
    """Hermitian matrix H with Q_hat(v, v) proportional to c^H H c.

    The sesquilinear top pairing Q_hat(x, y) = Omega(N^p x, conj(y)) on the
    unit eigenspace is Hermitian only up to a global unit-modulus phase; the
    phase is removed using the largest entry so that a real eigensolver can
    pick the extremal vector.
    """
    Q = NpV.T @ om @ Vb.conj()        # Q[a, b] = Q_hat(v_a, v_b)
    H = Q.T                           # value of Q_hat(Vc, Vc) is c^H H c
    a, b = np.unravel_index(np.argmax(np.abs(H)), H.shape)
    if abs(H[a, b]) < 1e-14 or abs(H[b, a]) < 0.5 * abs(H[a, b]):
        return np.zeros_like(H)
    theta = 0.5 * np.angle(H[a, b] / np.conj(H[b, a]))
    Hh = np.exp(-1j * theta) * H
    return 0.5 * (Hh + Hh.conj().T)


def _isotropic(om, W, u_lo):
    """W plus conj(U B), U = [u_lo], with B such that the columns F of the
    result have Omega(F_i, conj(F_j)) = 0."""
    U = np.column_stack(u_lo)
    B = np.linalg.solve(W.T @ om @ U, -0.5 * (W.T @ om @ W.conj()))
    return W + (U @ B).conj()


def _block_payload(a, om_full, E, F):
    """Matrix of A on the symplectic block basis [E | F], with checks."""
    Kb = np.column_stack([E, F])
    sblk = Kb.shape[1] // 2
    om_blk = omega_matrix(sblk)
    gram = Kb.T @ om_full @ Kb
    if np.linalg.norm(gram - om_blk) > 1e-6 * max(1.0, np.linalg.norm(Kb) ** 2):
        raise NormalFormError("unit block basis is not symplectic")
    B = -om_blk @ (Kb.T @ om_full @ (a @ Kb))
    if np.linalg.norm(a @ Kb - Kb @ B) > 1e-6 * max(1.0, np.linalg.norm(a @ Kb)):
        raise NormalFormError("unit block span is not invariant")
    return B


def _case_unit(a, om, lam, mult, tol):
    eye = np.eye(a.shape[0])
    Vb = generalized_eigenspace(a, lam, tol, multiplicity=mult)
    while Vb.shape[1] > 0:
        lam_cur = lam
        N = a - lam_cur * eye
        p, NpV = _nilpotency(N, Vb, np.linalg.norm(Vb))
        w_eig, U = np.linalg.eigh(_hermitian_top_form(om, NpV, Vb))
        imax = int(np.argmax(np.abs(w_eig)))
        if abs(w_eig[imax]) < tol.tol_form:
            raise NormalFormError("degenerate Krein-type pairing on unit eigenspace")
        v = Vb @ U[:, imax]
        odd = p % 2 == 0               # an odd block has a middle vector u_{k+1}
        k = (p + 1) // 2               # u_1..u_k pair with u_{p+2-k}..u_{p+1}
        u_chain = _chain(N, v, p)
        if odd:
            u_mid = u_chain[k]
            c0 = _pair(om, u_mid.conj(), u_mid)        # purely imaginary
            if abs(c0) < tol.tol_form:
                raise NormalFormError("degenerate middle pairing on unit eigenspace")
            v = v * (1.0 / np.sqrt(abs(c0)))
            if (c0 / abs(c0)).imag > 0:
                # swap lam and conj(lam) so the middle pairing is -i
                lam_cur = np.conj(lam_cur)
                v = v.conj()
                N = a - lam_cur * eye
            u_chain = _chain(N, v, p)
            u_mid = u_chain[k]
        u_lo, Fv = u_chain[:k], []
        if k > 0:
            u_hi = u_chain[p + 1 - k:]
            W = np.column_stack(_dual_basis(om, u_lo, [u.conj() for u in u_hi]))
            if odd:
                # Omega(u_mid, W_i) = 0 through the middle pairing -i
                W = W + np.outer(u_mid.conj(), 1j * (u_mid @ om @ W))
            Fv = _isotropic(om, W, u_lo).T
        xs, ys = _realify_pairs(u_lo, Fv)
        if odd:
            xs.append(np.sqrt(2.0) * u_mid.real)
            ys.append(-np.sqrt(2.0) * u_mid.imag)
        E, F = np.column_stack(xs), np.column_stack(ys)
        phi = float(np.angle(lam_cur))
        yield (NormalFormBlock(
            case="UnitNonRealOdd" if odd else "UnitNonRealEven", size=2 * (p + 1),
            lambda_param=(phi if odd else abs(phi),), jordan_order=p + 1,
            payload=None if p == 0 else _block_payload(a, om, E, F)), E, F)
        # complement within E_lam: symplectically orthogonal to the block span
        Vb = _complement(om, Vb, np.column_stack([E, F]).astype(complex),
                         "unit-eigenspace")


# ---------------------------------------------------------------------------
# simple isolated eigenvalues: blocks from eigenvectors

# An eigenvalue is isolated when no other eigenvalue of A lies within this
# gap of it, relative to max(1, |lam|).  An eigenvector's error grows as the
# inverse of that gap, and the eigenvalues semisimple_perturb splits off a
# repeated one (about eps^(1/m) apart, eps <= 1e-6) lie closer: their
# blocks keep the chain construction on a joint eigenspace.
ISOLATION_GAP = 1e-3


def _isolated(evals: np.ndarray, lam: complex) -> bool:
    gap = ISOLATION_GAP * max(1.0, abs(lam))
    return np.count_nonzero(np.abs(evals - lam) <= gap) == 1


def _eigenvector(a, evals, vecs, lam):
    """The eigenvector of the eigenvalue of A nearest lam, checked as
    ``generalized_eigenspace`` checks its basis."""
    v = vecs[:, np.argmin(np.abs(evals - lam))]
    res = np.linalg.norm(a @ v - lam * v)
    if res > 1e-6 * (1.0 + np.linalg.norm(a - lam * np.eye(a.shape[0]))):
        raise IllConditionedSpectrumError(
            f"eigenvector of {lam:.6g} is not invariant (residual {res:.3e})")
    return v


def _simple_unit(om, lam, v, tol):
    """(block, E, F) of a simple unit eigenvalue: v scaled so that
    Omega(conj v, v) = -i, conjugated (with lam) where the Krein sign asks."""
    c0 = _pair(om, v.conj(), v)                   # purely imaginary
    if abs(c0) < tol.tol_form:
        raise NormalFormError("degenerate Krein-type pairing on unit eigenspace")
    v = v / np.sqrt(abs(c0))
    if c0.imag > 0:
        lam, v = np.conj(lam), v.conj()
    s2 = np.sqrt(2.0)
    return (NormalFormBlock(case="UnitNonRealOdd", size=2,
                            lambda_param=(float(np.angle(lam)),), jordan_order=1),
            s2 * v.real[:, None], -s2 * v.imag[:, None])


def _simple_off_circle(om, lam, v, w, is_real, tol):
    """(block, E, F) of a simple off-circle quadruple: v of A and w of A^-1
    for lam, f = w / Omega(v, w)."""
    if is_real:
        lam, v, w = lam.real, v.real, w.real
    m = _pair(om, v, w)
    if abs(m) < tol.tol_form:
        raise NormalFormError("degenerate off-circle pairing")
    f = w / m
    if is_real:
        return (NormalFormBlock(case="OffCircleReal", size=2,
                                lambda_param=(float(lam),), jordan_order=1),
                v[:, None], f[:, None])
    xs, ys = _realify_pairs([v], [f])
    return (NormalFormBlock(case="OffCircleComplex", size=4,
                            lambda_param=(float(abs(lam)), float(np.angle(lam))),
                            jordan_order=1),
            np.column_stack(xs), np.column_stack(ys))


# ---------------------------------------------------------------------------
# top level


def normal_form(A, tol: ToleranceProfile = DEFAULT_TOL) -> NormalFormReport:
    """Blocks, symplectic basis K and residual of the normal form of A.

    Floating-point Jordan structure is inherently ill-conditioned: this is
    reliable for matrices built from known forms with well-conditioned
    conjugators, not for adversarial inputs.
    """
    a = finite_matrix(A)
    om = omega_matrix(a.shape[0] // 2)
    evals, vecs = np.linalg.eig(a)
    inverse = None   # A^-1 with its eigendecomposition, made once if needed
    parts = []
    for q in eigen_quadruples(a, tol, eigenvalues=evals):
        lam, mult, regime = q.representative, q.multiplicity, q.regime
        if regime in ("PlusOne", "MinusOne"):
            parts.extend(_case_plus_minus_one(a, om, lam, mult, tol))
        elif mult == 1 and _isolated(evals, lam):
            v = _eigenvector(a, evals, vecs, lam)
            if regime == "UnitNonReal":
                parts.append(_simple_unit(om, lam, v, tol))
            else:
                if inverse is None:
                    a_inv = om.T @ a.T @ om
                    inverse = (a_inv, *np.linalg.eig(a_inv))
                parts.append(_simple_off_circle(
                    om, lam, v, _eigenvector(*inverse, lam),
                    regime != "OffCircleComplex", tol))
        elif regime == "UnitNonReal":
            parts.extend(_case_unit(a, om, lam, mult, tol))
        else:
            parts.extend(_case_off_circle(a, om, lam, mult,
                                          regime != "OffCircleComplex", tol))
    blocks = [b for b, _, _ in parts]
    K = np.column_stack([E for _, E, _ in parts] + [F for _, _, F in parts])
    N = direct_sum_many([b.matrix() for b in blocks])
    try:
        residual = float(np.linalg.norm(np.linalg.solve(K, a @ K) - N))
    except np.linalg.LinAlgError as exc:
        raise NormalFormError(f"singular change of basis: {exc}") from exc
    report = NormalFormReport(blocks=tuple(blocks), basis=K, residual=residual)
    if residual > tol.tol_nf * max(1.0, np.linalg.norm(a)):
        raise NormalFormError(
            f"normal-form residual {residual:.3e} above tolerance", report=report)
    if symplectic_residual(K) > 1e-7:
        raise NormalFormError("change of basis is not symplectic", report=report)
    return report


# ---------------------------------------------------------------------------
# density of semisimple elements


def _separated(evals: np.ndarray, eps: float) -> bool:
    """Whether the eigenvalues on or outside the unit circle are pairwise at
    least 0.05 eps apart: the separation ``semisimple_perturb`` asks of its
    output at that eps (the partners inside follow)."""
    evals = evals[np.abs(evals) >= 1.0 - 10.0 * eps]
    gaps = np.abs(evals[:, None] - evals[None, :]) + np.eye(len(evals))
    return bool(np.min(gaps, initial=np.inf) >= 0.05 * eps)


def semisimple_perturb(A, eps: float = 1e-6, seed: int = 0) -> np.ndarray:
    """A nearby symplectic matrix with 2n distinct eigenvalues, which are
    dense: A' = A (I - X/2)^-1 (I + X/2) for the Hamiltonian X = eps J0 H,
    H the symmetric part of a seeded standard-normal matrix, which splits an
    order-m Jordan chain by about eps^(1/m).  Of 8 draws, the first whose
    eigenvalues are ``_separated`` and whose det(A' - Id) keeps its sign.
    """
    a = SympMatrix(A).entries
    eye = np.eye(a.shape[0])
    jm = j_matrix(a.shape[0] // 2)
    rng = np.random.default_rng(seed)
    det_sign = np.sign(np.linalg.det(a - eye))

    for _ in range(8):
        g = rng.standard_normal(a.shape)
        half = 0.25 * eps * (jm @ (g + g.T))  # X / 2
        ap = a @ np.linalg.solve(eye - half, eye + half)
        if not _separated(np.linalg.eigvals(ap), eps):
            continue
        if abs(det_sign) > 0.5 and \
                np.sign(np.linalg.det(ap - eye)) != det_sign:
            continue
        return ap
    raise PerturbationFailureError(
        "could not separate eigenvalues after 8 retries")
