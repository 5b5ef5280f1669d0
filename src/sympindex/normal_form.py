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

The construction is a per-quadruple recursion: pick a vector maximizing the
relevant pairing, build one block's symplectic basis from its Jordan chain,
and recurse on the symplectic orthogonal complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import as_array, direct_sum_many, omega_matrix, symplectic_residual
from .errors import NormalFormError, ParameterError, PerturbationFailureError
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
    case = block.case
    if case == "OffCircleReal":
        (lam,) = block.lambda_param
        if abs(lam) in (0.0, 1.0):
            raise ParameterError("OffCircleReal requires |lam| not in {0, 1}")
        J = _jordan(lam, block.jordan_order)
        Z = np.zeros_like(J)
        Jt = np.linalg.inv(J).T
        return np.block([[J, Z], [Z, Jt]])
    if case == "OffCircleComplex":
        r, phi = block.lambda_param
        if r <= 0 or r == 1.0:
            raise ParameterError("OffCircleComplex requires r in (0,1) or (1,inf)")
        J = _jordan_rot(r, phi, 2 * block.jordan_order)
        Z = np.zeros_like(J)
        Jt = np.linalg.inv(J).T
        return np.block([[J, Z], [Z, Jt]])
    if case == "PlusMinusOne":
        (lam,) = block.lambda_param
        if lam not in (1.0, -1.0):
            raise ParameterError("PlusMinusOne requires lam in {1, -1}")
        if block.d not in (-1, 0, 1):
            raise ParameterError("d must be in {-1, 0, +1}")
        if block.d == 0 and block.jordan_order % 2 == 0:
            raise ParameterError("d = 0 requires odd jordan order")
        r = block.jordan_order
        J = _jordan(lam, r)
        C = _coupling(r, block.d, lam)
        Jt = np.linalg.inv(J).T
        return np.block([[J, C], [np.zeros_like(J), Jt]])
    if case in ("UnitNonRealEven", "UnitNonRealOdd"):
        (phi,) = block.lambda_param
        if np.sin(phi) == 0.0:
            raise ParameterError("unit non-real blocks require sin(phi) != 0")
        if case == "UnitNonRealOdd" and block.jordan_order == 1:
            return _rot(phi)
        if block.payload is None:
            raise ParameterError(
                f"{case} of order {block.jordan_order} has free coupling rows; "
                "a realized payload matrix is required"
            )
        return np.asarray(block.payload)
    raise ParameterError(f"unknown block case {case!r}")


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


def _omega_of(dim2n: int) -> np.ndarray:
    return omega_matrix(dim2n // 2)


def _pair(om: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Bilinear symplectic pairing, extended complex-bilinearly."""
    return x @ om @ y


def _real_gen_eigenspace(a: np.ndarray, lam: float, mult: int) -> np.ndarray:
    """Real orthonormal basis of the generalized eigenspace of a real lam."""
    M = np.linalg.matrix_power(a - lam * np.eye(a.shape[0]), mult)
    _, _, vh = np.linalg.svd(M)
    return vh[-mult:].T


def _nilpotency(N: np.ndarray, Vb: np.ndarray, scale: float) -> int:
    """Largest p with (A - lam)^p nonzero on span(Vb)."""
    p = 0
    M = Vb.copy()
    for j in range(1, Vb.shape[1] + 1):
        M = N @ M
        if np.linalg.norm(M) > 1e-6 * scale:
            p = j
        else:
            break
    return p


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


# ---------------------------------------------------------------------------
# case 1: eigenvalues off the unit circle (real or complex quadruples)


def _case_off_circle(a, om, lam, mult, is_real, tol):
    """Blocks and real (E, F) basis columns for an off-circle quadruple.

    E_{1/lam} of A is E_lam of A^-1 = Omega^T A^T Omega, where lam lies
    outside the disk: that eigenspace is separated from the rest of the
    spectrum by about |lam|, against gaps of about 1/|lam| inside the disk.
    """
    a_inv = om.T @ a.T @ om
    if is_real:
        Vb = _real_gen_eigenspace(a, lam.real, mult).astype(float)
        Wb = _real_gen_eigenspace(a_inv, lam.real, mult).astype(float)
        N = a - lam.real * np.eye(a.shape[0])
        Nw = a - (1.0 / lam.real) * np.eye(a.shape[0])
    else:
        Vb = generalized_eigenspace(a, lam, tol, multiplicity=mult)
        Wb = generalized_eigenspace(a_inv, lam, tol, multiplicity=mult)
        N = a.astype(complex) - lam * np.eye(a.shape[0])
        Nw = a.astype(complex) - (1.0 / lam) * np.eye(a.shape[0])

    blocks, e_parts, f_parts = [], [], []
    while Vb.shape[1] > 0:
        p = _nilpotency(N, Vb, np.linalg.norm(Vb))
        NpV = np.linalg.matrix_power(N, p) @ Vb
        M = NpV.T @ om @ Wb
        i, j = np.unravel_index(np.argmax(np.abs(M)), M.shape)
        if abs(M[i, j]) < tol.tol_form:
            raise NormalFormError("degenerate off-circle pairing")
        v = Vb[:, i]
        w = Wb[:, j] / M[i, j]

        e_cols = _chain(N, v, p)
        g_cols = _chain(Nw, w, p)[::-1]  # (A - 1/lam)^{j-1} w, j = 1..p+1
        f_cols = _dual_basis(om, e_cols, g_cols)

        if is_real:
            E = np.column_stack(e_cols).real
            F = np.column_stack(f_cols).real
            blocks.append(NormalFormBlock(
                case="OffCircleReal", size=2 * (p + 1),
                lambda_param=(float(lam.real),), jordan_order=p + 1, d=None))
        else:
            xs, ys = _realify_pairs(e_cols, f_cols)
            E = np.column_stack(xs)
            F = np.column_stack(ys)
            r, phi = abs(lam), float(np.angle(lam))
            blocks.append(NormalFormBlock(
                case="OffCircleComplex", size=4 * (p + 1),
                lambda_param=(float(r), phi), jordan_order=p + 1, d=None))
        e_parts.append(E)
        f_parts.append(F)

        Fm = np.column_stack(f_cols)
        Em = np.column_stack(e_cols)
        prev_dim = Vb.shape[1]
        Vb = Vb @ _nullspace(Fm.T @ om @ Vb)
        Wb = Wb @ _nullspace(Em.T @ om @ Wb)
        if Vb.shape[1] >= prev_dim:
            raise NormalFormError("off-circle recursion failed to shrink")
    return blocks, e_parts, f_parts


# ---------------------------------------------------------------------------
# case 2: eigenvalues +-1


def _clean_update(om, N, x, y, s, p, delta):
    """Solve x' = x + c N^{p-s} y so that Omega(N^s x', x') = 0."""
    Ny = np.linalg.matrix_power(N, p - s) @ y
    bracket = _pair(om, np.linalg.matrix_power(N, s) @ Ny, x) \
        + _pair(om, np.linalg.matrix_power(N, s) @ x, Ny)
    if abs(bracket) < 1e-12:
        if abs(delta) < 1e-9:
            return x
        raise NormalFormError("cleaning step unsolvable (zero bracket)")
    return x + (-delta / bracket) * Ny


def _case_plus_minus_one(a, om, lam, mult, tol):
    lam = float(lam.real)
    Vb = _real_gen_eigenspace(a, lam, mult)
    N = a - lam * np.eye(a.shape[0])

    blocks, e_parts, f_parts = [], [], []
    while Vb.shape[1] > 0:
        p = _nilpotency(N, Vb, np.linalg.norm(Vb))
        NpV = np.linalg.matrix_power(N, p) @ Vb
        M = NpV.T @ om @ Vb

        if p % 2 == 1:
            # symmetric top form: block [[J(lam,k), C(k,d,lam)], [0, J^-T]]
            k = (p + 1) // 2
            Ms = 0.5 * (M + M.T)
            w_eig, U = np.linalg.eigh(Ms)
            imax = int(np.argmax(np.abs(w_eig)))
            if abs(w_eig[imax]) < tol.tol_form:
                raise NormalFormError("degenerate symmetric pairing at +-1")
            v = Vb @ U[:, imax]
            val = _pair(om, np.linalg.matrix_power(N, p) @ v, v)
            v = v / np.sqrt(abs(val))

            # kill Omega(N^i v, N^j v) for i, j <= k-1: even sums vanish by
            # antisymmetry, odd sums are cleaned in descending order
            for r in range(1, k):
                s_sum = 2 * (k - r) - 1
                alpha = _pair(om, np.linalg.matrix_power(N, s_sum) @ v, v)
                v = _clean_update(om, N, v, v, s_sum, p, alpha)

            chain = _chain(N, v, p)           # e_1 .. e_{2k}
            e_cols = chain[:k]
            g_cols = chain[k:]
            f_cols = _dual_basis(om, e_cols, g_cols)
            # the sign invariant is read off the realized coupling row
            B_real = _block_payload(
                a, om, np.column_stack(e_cols), np.column_stack(f_cols))
            D = B_real[:k, k:] @ _jordan(lam, k).T
            d = int(round(D[k - 1, k - 1]))
            if d not in (-1, 1) or \
                    np.linalg.norm(D - _coupling(k, d, lam) @ _jordan(lam, k).T) > 1e-6:
                raise NormalFormError("unexpected coupling at +-1 (sign readoff)")
            blocks.append(NormalFormBlock(
                case="PlusMinusOne", size=2 * k, lambda_param=(lam,),
                jordan_order=k, d=d))
        else:
            # antisymmetric top form: block [[J(lam,p+1), 0], [0, J^-T]], d = 0
            Ma = 0.5 * (M - M.T)
            i, j = np.unravel_index(np.argmax(np.abs(Ma)), Ma.shape)
            if abs(Ma[i, j]) < tol.tol_form:
                raise NormalFormError("degenerate antisymmetric pairing at +-1")
            v = Vb[:, i]
            w = Vb[:, j]
            w = w / _pair(om, np.linalg.matrix_power(N, p) @ v, w)
            for s_sum in range(p - 1, -1, -1):
                delta = _pair(om, np.linalg.matrix_power(N, s_sum) @ v, v)
                if abs(delta) > 1e-13:
                    v = _clean_update(om, N, v, w, s_sum, p, delta)
            w = w / _pair(om, np.linalg.matrix_power(N, p) @ v, w)
            for s_sum in range(p - 1, -1, -1):
                delta = _pair(om, np.linalg.matrix_power(N, s_sum) @ w, w)
                if abs(delta) > 1e-13:
                    w = _clean_update(om, N, w, v, s_sum, p, delta)

            e_cols = _chain(N, v, p)
            g_cols = _chain(N, w, p)
            f_cols = _dual_basis(om, e_cols, g_cols)
            blocks.append(NormalFormBlock(
                case="PlusMinusOne", size=2 * (p + 1), lambda_param=(lam,),
                jordan_order=p + 1, d=0))

        E = np.column_stack(e_cols)
        F = np.column_stack(f_cols)
        e_parts.append(E)
        f_parts.append(F)
        span = np.column_stack([E, F])
        prev_dim = Vb.shape[1]
        Vb = Vb @ _nullspace(span.T @ om @ Vb)
        if Vb.shape[1] >= prev_dim:
            raise NormalFormError("plus-minus-one recursion failed to shrink")
    return blocks, e_parts, f_parts


# ---------------------------------------------------------------------------
# case 3: unit non-real eigenvalues


def _hermitian_top_form(om, N, Vb, p):
    """Hermitian matrix H with Q_hat(v, v) proportional to c^H H c.

    The sesquilinear top pairing Q_hat(x, y) = Omega(N^p x, conj(y)) on the
    unit eigenspace is Hermitian only up to a global unit-modulus phase; the
    phase is removed using the largest entry so that a real eigensolver can
    pick the extremal vector.
    """
    NpV = np.linalg.matrix_power(N, p) @ Vb
    Q = NpV.T @ om @ Vb.conj()        # Q[a, b] = Q_hat(v_a, v_b)
    H = Q.T                           # value of Q_hat(Vc, Vc) is c^H H c
    a, b = np.unravel_index(np.argmax(np.abs(H)), H.shape)
    if abs(H[a, b]) < 1e-14 or abs(H[b, a]) < 0.5 * abs(H[a, b]):
        return np.zeros_like(H)
    theta = 0.5 * np.angle(H[a, b] / np.conj(H[b, a]))
    Hh = np.exp(-1j * theta) * H
    return 0.5 * (Hh + Hh.conj().T)


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
    ac = a.astype(complex)
    dim = a.shape[0]
    Vb = generalized_eigenspace(a, lam, tol, multiplicity=mult)

    blocks, e_parts, f_parts = [], [], []
    while Vb.shape[1] > 0:
        lam_cur = lam
        N = ac - lam_cur * np.eye(dim)
        p = _nilpotency(N, Vb, np.linalg.norm(Vb))
        H = _hermitian_top_form(om, N, Vb, p)
        w_eig, U = np.linalg.eigh(H)
        imax = int(np.argmax(np.abs(w_eig)))
        if abs(w_eig[imax]) < tol.tol_form:
            raise NormalFormError("degenerate Krein-type pairing on unit eigenspace")
        v = Vb @ U[:, imax]

        if p % 2 == 1:
            k = (p + 1) // 2
            u_chain = _chain(N, v, p)               # u_1 .. u_{2k}
            u_lo, u_hi = u_chain[:k], u_chain[k:]
            v_lo = [u.conj() for u in u_lo]
            v_hi = [u.conj() for u in u_hi]

            A1 = np.array([[_pair(om, um, vc) for vc in v_hi] for um in u_lo])
            alpha = np.linalg.inv(A1)               # columns a_i
            Vhi = np.column_stack(v_hi)
            Uhi = np.column_stack(u_hi)
            Ulo = np.column_stack(u_lo)
            Vlo = np.column_stack(v_lo)
            Kmat = Vhi.T @ om @ Uhi
            Rmat = Vhi.T @ om @ Ulo
            G = alpha.T @ Kmat @ alpha.conj()
            X = -0.5 * G
            Bbar = np.linalg.solve(Rmat, np.linalg.solve(alpha.T, X))
            Bcoef = Bbar.conj()
            Fv = [Vhi @ alpha[:, i] + Vlo @ Bcoef[:, i] for i in range(k)]

            xs, ys = _realify_pairs(u_lo, Fv)
            E = np.column_stack(xs)
            F = np.column_stack(ys)
            phi = abs(float(np.angle(lam_cur)))
            payload = _block_payload(a, om, E, F)
            blocks.append(NormalFormBlock(
                case="UnitNonRealEven", size=2 * (p + 1), lambda_param=(phi,),
                jordan_order=p + 1, d=None, payload=payload))
        else:
            k = p // 2
            u_chain = _chain(N, v, p)               # u_1 .. u_{2k+1}
            u_mid = u_chain[k] if p > 0 else u_chain[0]
            v_mid = u_mid.conj()
            c0 = _pair(om, v_mid, u_mid)            # purely imaginary
            if abs(c0) < tol.tol_form:
                raise NormalFormError("degenerate middle pairing on unit eigenspace")
            scale = 1.0 / np.sqrt(abs(c0))
            v = v * scale
            if (c0 / abs(c0)).imag > 0:
                # swap lam and conj(lam) so the middle pairing is -i
                lam_cur = np.conj(lam_cur)
                v = v.conj()
                N = ac - lam_cur * np.eye(dim)
            u_chain = _chain(N, v, p)
            u_lo = u_chain[:k]
            u_mid = u_chain[k]
            u_hi = u_chain[k + 1:]
            v_lo = [u.conj() for u in u_lo]
            v_mid = u_mid.conj()
            v_hi = [u.conj() for u in u_hi]

            Fv = []
            if k > 0:
                A1 = np.array([[_pair(om, um, vc) for vc in v_hi] for um in u_lo])
                alpha = np.linalg.inv(A1)
                Vhi = np.column_stack(v_hi)
                Vlo = np.column_stack(v_lo)
                row_mid = np.array([_pair(om, u_mid, vc) for vc in v_hi])
                c_coef = 1j * (row_mid @ alpha)     # coefficients of v_mid
                W = Vhi @ alpha + np.outer(v_mid, c_coef)
                Rt = np.array([[_pair(om, W[:, i], u_lo[m]) for m in range(k)]
                               for i in range(k)])
                G = np.array([[_pair(om, W[:, i], W[:, i2].conj()) for i2 in range(k)]
                              for i in range(k)])
                Bbar = np.linalg.solve(Rt, -0.5 * G)
                Bcoef = Bbar.conj()
                Fv = [W[:, i] + Vlo @ Bcoef[:, i] for i in range(k)]

            xs, ys = _realify_pairs(u_lo, Fv)
            s2 = np.sqrt(2.0)
            xs.append(s2 * v_mid.real)
            ys.append(s2 * v_mid.imag)
            E = np.column_stack(xs)
            F = np.column_stack(ys)
            phi = float(np.angle(lam_cur))
            if p == 0:
                payload = None
            else:
                payload = _block_payload(a, om, E, F)
            blocks.append(NormalFormBlock(
                case="UnitNonRealOdd", size=2 * (p + 1), lambda_param=(phi,),
                jordan_order=p + 1, d=None, payload=payload))

        e_parts.append(E)
        f_parts.append(F)
        # complement within E_lam: symplectically orthogonal to the block span
        prev_dim = Vb.shape[1]
        span = np.column_stack([E, F]).astype(complex)
        Vb = Vb @ _nullspace(span.T @ om @ Vb)
        if Vb.shape[1] >= prev_dim:
            raise NormalFormError("unit-eigenspace recursion failed to shrink")
    return blocks, e_parts, f_parts


# ---------------------------------------------------------------------------
# top level


def normal_form(A, tol: ToleranceProfile = DEFAULT_TOL) -> NormalFormReport:
    """Blocks, symplectic basis K and residual of the normal form of A.

    Floating-point Jordan structure is inherently ill-conditioned: this is
    reliable for matrices built from known forms with well-conditioned
    conjugators, not for adversarial inputs.
    """
    a = as_array(A)
    om = _omega_of(a.shape[0])
    quads = eigen_quadruples(a, tol)

    blocks: list[NormalFormBlock] = []
    e_parts: list[np.ndarray] = []
    f_parts: list[np.ndarray] = []
    for q in quads:
        lam = q.representative
        if q.regime in ("RealPositive", "RealNegative"):
            bl, ep, fp = _case_off_circle(a, om, lam, q.multiplicity, True, tol)
        elif q.regime == "OffCircleComplex":
            bl, ep, fp = _case_off_circle(a, om, lam, q.multiplicity, False, tol)
        elif q.regime in ("PlusOne", "MinusOne"):
            bl, ep, fp = _case_plus_minus_one(a, om, lam, q.multiplicity, tol)
        else:
            bl, ep, fp = _case_unit(a, om, lam, q.multiplicity, tol)
        blocks.extend(bl)
        e_parts.extend(ep)
        f_parts.extend(fp)

    K = np.column_stack(e_parts + f_parts)
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


def _stretch_block(block: NormalFormBlock, eps_draws) -> np.ndarray:
    """Blockwise symplectic factor with eigenvalue-separating stretches."""
    s = block.size // 2
    if block.case == "OffCircleReal" or block.case == "PlusMinusOne":
        d = 1.0 + np.array([next(eps_draws) for _ in range(s)])
        return np.diag(np.concatenate([d, 1.0 / d]))
    if block.case in ("OffCircleComplex", "UnitNonRealEven"):
        d = 1.0 + np.repeat([next(eps_draws) for _ in range(s // 2)], 2)
        return np.diag(np.concatenate([d, 1.0 / d]))
    # UnitNonRealOdd: stretch the chain pairs, rotate the middle plane
    k = (block.jordan_order - 1) // 2
    d = np.ones(s)
    if k > 0:
        d[:2 * k] = 1.0 + np.repeat([next(eps_draws) for _ in range(k)], 2)
    S = np.diag(np.concatenate([d, 1.0 / d]))
    eps0 = next(eps_draws)
    c, sn = np.cos(eps0), np.sin(eps0)
    i_e, i_f = s - 1, 2 * s - 1
    S[i_e, i_e] = c
    S[i_e, i_f] = -sn
    S[i_f, i_e] = sn
    S[i_f, i_f] = c
    return S


def _separated(evals: np.ndarray, eps: float) -> bool:
    """Whether the eigenvalues are pairwise at least 0.05 eps apart: the
    separation ``semisimple_perturb`` asks of its output at that eps."""
    gaps = np.abs(evals[:, None] - evals[None, :]) + np.eye(len(evals))
    return bool(np.min(gaps) >= 0.05 * eps)


def semisimple_perturb(A, eps: float = 1e-6, seed: int = 0,
                       tol: ToleranceProfile = DEFAULT_TOL,
                       report: NormalFormReport | None = None) -> np.ndarray:
    """A nearby symplectic matrix with 2n distinct eigenvalues.

    Multiplies A by a blockwise stretch built in its normal-form basis; the
    stretch separates every Jordan chain into distinct eigenvalue quadruples
    while moving A by O(eps).
    """
    a = as_array(A)
    n2 = a.shape[0]
    if report is None:
        report = normal_form(a, tol)
    K = report.basis
    Kinv = np.linalg.inv(K)
    rng = np.random.default_rng(seed)
    det_sign = np.sign(np.linalg.det(a - np.eye(n2)))

    for _ in range(8):
        draws = iter(eps * rng.uniform(0.5, 1.5, size=4 * n2)
                     * np.linspace(1.0, 2.0, 4 * n2))
        S = direct_sum_many([_stretch_block(b, draws) for b in report.blocks])
        ap = a @ (K @ S @ Kinv)
        if not _separated(np.linalg.eigvals(ap), eps):
            continue
        if abs(det_sign) > 0.5 and \
                np.sign(np.linalg.det(ap - np.eye(n2))) != det_sign:
            continue
        return ap
    raise PerturbationFailureError(
        "could not separate eigenvalues after 8 retries")
