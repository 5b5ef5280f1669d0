"""Degree-based Conley-Zehnder index.

The index of an admissible path (psi(0) = Id, 1 not an eigenvalue of psi(1))
is the winding number of the squared rotation map along the path extended to
one of the two component representatives

    W+ = -Id          W- = diag(2, -1, ..., -1, 1/2, -1, ..., -1).

The winding over [0, 1] is sampled adaptively, for all three circle maps at
the same +-1 passage anchors.  The extension's contribution is computed three
ways and cross-checked:

* for the spectral rotation map, analytically from the spectrum of a nearby
  semisimple matrix (each Krein-kappa unit eigenvalue pair at angle phi in
  (0, pi) contributes kappa*(pi - phi)/pi; other regimes contribute 0), plus
  a sampled bridge to the perturbed endpoint;
* for the polar and C-linear-part maps, whose values are not functions of the
  spectrum alone, by sampling an explicitly materialized extension: the
  bridge, a blockwise eigenvalue deformation in the normal-form basis, and a
  final unwinding of the conjugation.

The extension's matrices are built once and sampled with plain arithmetic:
the bridge is the Cayley path A (I - uC)^-1 (I + uC) of the Hamiltonian
C = (B - I)(B + I)^-1, B = A^-1 A', and the unwinding K(t) carries its
inverse from the decompositions that build it.  No scipy routine is used.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import direct_sum_many, finite_matrix, rho_hat, rho_polar
from .errors import (AdmissibilityError, ContractError,
                     IllConditionedSpectrumError, InternalConsistencyError,
                     KreinDegenerateError, ParameterError)
from .halfint import HalfInt
from .normal_form import _rot, normal_form, semisimple_perturb
from .paths import ExpPath, PathSpec, evaluate_array, evaluate_stack
from .sampling import PHASE_STEP, local_minima, winding
from .spectral import rho
from .tolerances import DEFAULT_TOL, ToleranceProfile

__all__ = [
    "IndexResult",
    "winding",
    "extension_winding",
    "conley_zehnder",
    "cz_dim2_closed_form",
    "maslov_loop",
]


@dataclass(frozen=True)
class IndexResult:
    value: HalfInt
    winding_trace: tuple          # (t, unwrapped phase of rho^2) over [0, 1]
    extension_winding: float      # turns of rho^2 along the extension
    endpoint: str                 # "W+" or "W-"
    diagnostics: dict


# ---------------------------------------------------------------------------
# circle-map sampling


def _rho_robust(a: np.ndarray, tol: ToleranceProfile, events: Counter) -> complex:
    """rho with a tolerance cascade for continuously splitting clusters.

    rho is continuous in the matrix, so when a cluster gap lands inside the
    clustering ambiguity band the value is insensitive to how the cluster is
    resolved; rescaling tol_eig moves the band off the gap.  Every tolerance
    that fails is counted in ``events["rho_fallbacks"]``.
    """
    last = None
    for factor in (1.0, 0.05, 20.0, 0.0025, 400.0):
        try:
            return rho(a, tol if factor == 1.0 else
                       tol.with_overrides(tol_eig=factor * tol.tol_eig))
        except IllConditionedSpectrumError as exc:
            events["rho_fallbacks"] += 1
            last = exc
    raise last


def _rho_map(stack_at, tol: ToleranceProfile, events: Counter, power: int,
             eps=1e-9):
    """ts -> rho(psi_t) ** power for the stack ``stack_at(ts)``, sample by
    sample with the tolerance cascade.

    A sample on an isolated Krein degeneracy is stepped over: its value is
    taken at t + eps (t - eps for t >= 1/2), and the step is counted in
    ``events["krein_nudges"]``.
    """
    def value(a):
        return _rho_robust(a, tol, events) ** power

    def f(ts):
        out = []
        for t, a in zip(ts.tolist(), stack_at(ts)):
            try:
                out.append(value(a))
            except KreinDegenerateError:
                events["krein_nudges"] += 1
                s = t + eps if t < 0.5 else t - eps
                out.append(value(stack_at(np.array([s]))[0]))
        return np.array(out)

    return f


# ---------------------------------------------------------------------------
# canonical extension of an endpoint to W+/-


# sigma_min(psi_t -+ Id) samples of the passage search: PASSAGE_GRID + 1
PASSAGE_GRID = 256
_PASSAGE_TS = np.linspace(0.0, 1.0, PASSAGE_GRID + 1)
# a passage refines to a window boundary where the map is back at +-1;
# geometric offsets on both sides guarantee a sample inside the window
# (mid-sweep) whatever its width, down to ~1e-9
_ANCHOR_OFFSETS = [0.0] + [sign * 2.0 ** -k / PASSAGE_GRID
                           for sign in (1, -1) for k in range(30)]


def _screened_anchors(candidates, angles_at, events: Counter) -> list[float]:
    """Anchors of the passage candidates whose spectrum moves.

    ``candidates`` yields (grid index i, t*); ``angles_at(times)`` gives the
    (len(times), 2n) eigenvalue angles of psi at sorted times.  Each
    candidate is screened on its grid bracket [ts[i-1], ts[i+1]] plus its
    anchors.  Candidates are counted in ``events["passages"]``, the ones
    that keep anchors in ``events["anchored_passages"]``.
    """
    out = []
    for i, t_star in candidates:
        events["passages"] += 1
        anchors = [min(max(t_star + d, 0.0), 1.0) for d in _ANCHOR_OFFSETS]
        times = np.sort([_PASSAGE_TS[i - 1], _PASSAGE_TS[i + 1]] + anchors)
        if _spectrum_moves(angles_at(times)):
            events["anchored_passages"] += 1
            out.extend(anchors)
    return out


def _unit_passage_times(path: PathSpec, events: Counter) -> list[float]:
    """Parameters where an eigenvalue of the path passes +-1.

    The sampled route, for every path but an ``ExpPath``.  The spectral
    rotation map is locally constant on hyperbolic stretches, so a full
    circle sweep between two passages is invisible to a uniform grid; the
    refined passage parameters anchor the winding sampler there.  A passage
    candidate is a ``local_minima`` candidate of sigma_min(psi_t -+ Id) on
    the grid, so a flat run (a constant path) yields none.  A candidate
    keeps its anchors only when ``_spectrum_moves`` says, from the
    eigenvalues of psi sampled at the screen times, that a turn could hide
    between them.
    """
    eye = np.eye(2 * path.n)

    def smin(ts):
        stack = evaluate_stack(path, ts)
        return np.minimum(np.linalg.svd(stack - eye, compute_uv=False)[:, -1],
                          np.linalg.svd(stack + eye, compute_uv=False)[:, -1])

    def angles_at(times):
        return np.angle(np.linalg.eigvals(evaluate_stack(path, times)))

    candidates = ((i, t_star) for i, t_star, _ in local_minima(
        smin, _PASSAGE_TS, smin(_PASSAGE_TS), 1e-8, ()))
    return _screened_anchors(candidates, angles_at, events)


def _exp_passage_times(path: ExpPath, events: Counter) -> list[float]:
    """``_unit_passage_times`` of psi_t = exp(t M) in closed form.

    The eigenvalues of psi_t are e^{t mu} for the eigenvalues mu of M, also
    for a defective M, so an eigenvalue can meet +-1 only at t = k pi / Im mu
    and the angles of the spectrum are wrap(t Im mu): no sample of the path
    is needed.  Every mu with Im mu > 0 gives candidates, a complex
    quadruple too; a candidate costs a screen only.  One candidate per grid
    index is kept, the earliest, as the sampled route finds at most one.
    """
    mu = np.linalg.eigvals(path.duration * path._js)
    ts = []
    for freq in mu.imag[mu.imag > 0]:
        # k pi / freq for k = 1 and for the first k past each half-integer
        # grid point: the earliest candidate of every grid index, at most
        # PASSAGE_GRID of them however fast the rotation
        k = np.ceil(np.arange(0.5, PASSAGE_GRID) / PASSAGE_GRID * freq / np.pi)
        ts.append(np.unique(np.maximum(k, 1.0)) * np.pi / freq)
    t = np.sort(np.concatenate([np.empty(0)] + ts))
    t = t[t < 1.0]
    cells, first = np.unique(
        np.clip(np.rint(PASSAGE_GRID * t), 1, PASSAGE_GRID - 1).astype(int),
        return_index=True)

    def angles_at(times):
        return np.angle(np.exp(1j * np.outer(times, mu.imag)))

    return _screened_anchors(zip(cells.tolist(), t[first].tolist()),
                             angles_at, events)


def _spectrum_moves(angles: np.ndarray) -> bool:
    """Whether rho^2 can move by ``PHASE_STEP`` across the screen times.

    ``angles`` holds one row of eigenvalue angles of psi per screen time,
    the rows in time order; both passage routes screen through here.  arg
    rho is a signed sum of the angles of the first-kind unit eigenvalues
    plus pi per negative real pair, and every unit pair appears twice among
    the |arg| of the eigenvalues.  So the total variation, along the sorted
    times, of the sorted |arg| profile bounds how far rho^2 moves there.
    """
    profile = np.sort(np.abs(angles), axis=1)
    return float(np.abs(np.diff(profile, axis=0)).sum()) >= PHASE_STEP


def _pair_block(t, lam, target):
    m = (1 - t) * lam + t * target
    return np.diag([m, 1.0 / m])


def _quad_block(r, th):
    """4x4 block diag(r R(th), r^-1 R(th)) in the {e1,e2,f1,f2} layout."""
    out = np.zeros((4, 4))
    out[:2, :2] = r * _rot(th)
    out[2:, 2:] = _rot(th) / r
    return out


def _positive_pairs_block(t, lam1, lam2):
    """Two positive real pairs to a quadruple at -1: lam2 slides to lam1,
    then the double pair turns by pi as its modulus goes to 1."""
    if t <= 0.5:
        return direct_sum_many([np.diag([lam1, 1 / lam1]),
                                _pair_block(2 * t, lam2, lam1)])
    s = 2 * t - 1
    return _quad_block(1 + (lam1 - 1) * (1 - s), np.pi * s)


class _Extension(PathSpec):
    """Materialized deformation of a semisimple endpoint to W+/-."""

    def __init__(self, a_end: np.ndarray, tol: ToleranceProfile, seed: int):
        a_end = finite_matrix(a_end)
        dim = a_end.shape[0]
        det_gap = float(np.linalg.det(a_end - np.eye(dim)))
        if abs(det_gap) <= tol.tol_kernel:
            raise AdmissibilityError(
                f"|det(A - Id)| = {abs(det_gap):.3e} is below tol_kernel")
        self.endpoint = "W+" if det_gap > 0 else "W-"
        self.det_gap = det_gap

        eps = min(1e-6, 0.01 * abs(det_gap) ** (1.0 / dim))
        nf_tol = tol.with_overrides(tol_eig=max(1e-12, 2.5e-3 * eps))
        self.tol = nf_tol
        base_report = normal_form(a_end, tol)
        aprime = semisimple_perturb(a_end, eps=eps, seed=seed, tol=tol,
                                    report=base_report)
        report = normal_form(aprime, nf_tol)

        # classify the (all order-1) blocks of the perturbed endpoint
        unit, pos, neg, quad = [], [], [], []
        for i, b in enumerate(report.blocks):
            if b.case == "UnitNonRealOdd" and b.jordan_order == 1:
                unit.append(i)
            elif b.case == "OffCircleReal":
                (pos if b.lambda_param[0] > 0 else neg).append(i)
            elif b.case == "OffCircleComplex":
                quad.append(i)
            else:
                raise InternalConsistencyError(
                    f"perturbed endpoint has a non-semisimple block {b.case}")
        want_odd = self.endpoint == "W-"
        if (len(pos) % 2 == 1) != want_odd:
            raise InternalConsistencyError(
                "sign of det(A - Id) contradicts the positive-pair parity")

        # a unit pair at angle phi, Krein sign kappa = sign(phi), turns rho^2
        # by kappa (pi - |phi|) / pi on its way to -1; other blocks by 0
        lam = [b.lambda_param for b in report.blocks]
        self.unit_turns = float(sum(np.sign(lam[i][0]) * (np.pi - abs(lam[i][0]))
                                    / np.pi for i in unit))

        # order the blocks: a surviving positive pair first (for W-), then
        # positive pairs two by two, then everything else; the parity check
        # leaves an even number of positive pairs to pair up
        survivor = [pos.pop()] if want_odd else []
        order = survivor + pos + neg + quad + unit

        sizes = [b.size // 2 for b in report.blocks]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        # basis columns by (e/f half, index): each block keeps both halves
        halves = report.basis.reshape(dim, 2, dim // 2)
        self.k_perm = np.concatenate([halves[:, :, offsets[i]:offsets[i + 1]]
                                      for i in order], axis=2).reshape(dim, dim)
        self.k_perm_inv = np.linalg.inv(self.k_perm)

        # blockwise deformers on [0, 1], in the same order
        deformers = []
        for i in survivor:
            deformers.append(partial(_pair_block, lam=lam[i][0], target=2.0))
        for i, j in zip(pos[0::2], pos[1::2]):
            deformers.append(partial(_positive_pairs_block,
                                     lam1=lam[i][0], lam2=lam[j][0]))
        for i in neg:
            deformers.append(partial(_pair_block, lam=lam[i][0], target=-1.0))
        for i in quad:
            deformers.append(
                lambda t, r0=lam[i][0], th0=lam[i][1]: _quad_block(
                    1 + (r0 - 1) * (1 - t), th0 + (np.pi - th0) * t))
        for i in unit:                   # e^{i phi} -> -1, same Krein sign
            deformers.append(
                lambda t, phi=lam[i][0]: _rot(
                    (1 - t) * phi + t * (np.pi if phi > 0 else -np.pi)))
        self._deformers = deformers

        # Cayley bridge to the perturbed endpoint and final unwinding of the
        # conjugation
        self.a_end = a_end
        eye = np.eye(dim)
        b = np.linalg.solve(a_end, aprime)
        self._cayley = np.linalg.solve(b + eye, b - eye)
        self._w_matrix = self._deform(1.0)
        self._unwind = self._build_unwind(self.k_perm)

    def _deform(self, t: float) -> np.ndarray:
        return direct_sum_many([fn(t) for fn in self._deformers])

    @staticmethod
    def _build_unwind(k: np.ndarray):
        """Path K(t) from K to Id through the symplectic polar coordinates,
        with its inverse: K(t) = O^(1-t) P^(1-t) for K = O P with
        P = (K^T K)^(1/2), and K(t)^-1 = P^-(1-t) O^(1-t)^T.

        O and P come from the SVD K = X diag(s) V^T as X V^T and
        V diag(s) V^T, so O is orthogonal to rounding whatever cond(K).  The
        eigenbasis of its unitary block u is orthonormalised (u is normal):
        eig returns a skewed basis for a cluster such as u = -Id, whose
        angles may land on both branches +-pi, and only an orthonormal
        basis keeps O^(1-t) orthogonal with O^(1-t)^T its inverse."""
        n = k.shape[0] // 2
        x, s, vt = np.linalg.svd(k)
        o = x @ vt
        u = o[:n, :n] + 1j * o[n:, :n]
        wu, vu = np.linalg.eig(u)
        theta = np.angle(wu)
        vu, _ = np.linalg.qr(vu)
        vu_inv = vu.conj().T

        def k_at(t: float) -> tuple[np.ndarray, np.ndarray]:
            ut = (vu * np.exp(1j * (1 - t) * theta)) @ vu_inv
            ot = np.block([[ut.real, -ut.imag], [ut.imag, ut.real]])
            return (ot @ ((vt.T * s ** (1 - t)) @ vt),
                    (vt.T * s ** (t - 1)) @ vt @ ot.T)

        return k_at

    def rho_winding(self, events: Counter) -> float:
        """Turns of rho^2 along the extension.

        The winding over the bridge to the nearby semisimple matrix, sampled
        on the extension's first third, plus the analytic unit-spectrum sum.
        """
        bridge = _rho_map(lambda ts: evaluate_stack(self, ts / 3.0), self.tol,
                          events, 2)
        turns, _, _ = winding(bridge, self.tol.max_refine, coarse=16)
        return turns + self.unit_turns

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        """The full materialized extension on [0, 1]: the bridge in one
        stacked solve, the other two thirds sample by sample."""
        out = np.empty((len(ts),) + self.a_end.shape)
        bridge = ts <= 1.0 / 3.0
        uc = (3.0 * ts[bridge])[:, None, None] * self._cayley
        eye = np.eye(self.a_end.shape[0])
        out[bridge] = self.a_end @ np.linalg.solve(eye - uc, eye + uc)
        for i in np.flatnonzero(~bridge):
            t = float(ts[i])
            if t <= 2.0 / 3.0:
                nt = self._deform(3.0 * t - 1.0)
                out[i] = self.k_perm @ nt @ self.k_perm_inv
            else:
                kt, kt_inv = self._unwind(3.0 * t - 2.0)
                out[i] = kt @ self._w_matrix @ kt_inv
        return out


def extension_winding(A, tol: ToleranceProfile = DEFAULT_TOL, seed: int = 0):
    """Turns of rho^2 along the canonical extension of A to W+ or W-.

    Returns (turns, endpoint).  The value is the sampled bridge winding to a
    nearby semisimple matrix plus the analytic unit-spectrum sum.
    """
    ext = _Extension(A, tol, seed)
    return ext.rho_winding(Counter()), ext.endpoint


# ---------------------------------------------------------------------------
# the index


def _passage_anchors(path: PathSpec, events: Counter) -> list[float]:
    """Winding anchors at the path's +-1 passages, shared by every circle map."""
    if isinstance(path, ExpPath):
        return _exp_passage_times(path, events)
    return _unit_passage_times(path, events)


def _rounded(name: str, turns: float) -> int:
    """The integer a winding must be, within 0.1."""
    r = int(round(turns))
    if abs(turns - r) > 0.1:
        raise InternalConsistencyError(
            f"{name} winding {turns:.6f} is not within 0.1 of an integer")
    return r


def _check_starts_at_identity(path: PathSpec, tol: ToleranceProfile):
    p0 = evaluate_array(path, 0.0)
    if np.linalg.norm(p0 - np.eye(p0.shape[0])) > 1e3 * tol.tol_symp:
        raise AdmissibilityError("path does not start at the identity")


def conley_zehnder(path: PathSpec, tol: ToleranceProfile = DEFAULT_TOL,
                   seed: int = 0) -> IndexResult:
    """Winding number of the squared rotation map along the extended path.

    Computed with the spectral rotation map, the polar-factor map and the
    C-linear-part map; the three integers must agree.
    """
    _check_starts_at_identity(path, tol)
    a_end = evaluate_array(path, 1.0)
    ext = _Extension(a_end, tol, seed)

    # each circle map winds along the path, at the same +-1 passage
    # anchors, and along the extension
    events = Counter()
    anchors = _passage_anchors(path, events)
    w_rho, trace, depth = winding(
        _rho_map(partial(evaluate_stack, path), tol, events, 2),
        tol.max_refine, anchor_ts=anchors)
    e_rho = ext.rho_winding(events)
    totals = {"spectral": w_rho + e_rho}
    for name, circle_map in (("polar", rho_polar), ("clinear", rho_hat)):
        def squared(node, circle_map=circle_map):
            return lambda ts: circle_map(evaluate_stack(node, ts), tol) ** 2

        w, _, _ = winding(squared(path), tol.max_refine, anchor_ts=anchors)
        e, _, _ = winding(squared(ext), tol.max_refine, coarse=96)
        totals[name] = w + e

    rounded = {name: _rounded(name, val) for name, val in totals.items()}
    if len(set(rounded.values())) != 1:
        raise InternalConsistencyError(
            f"circle maps disagree on the index: {rounded}")

    value = rounded["spectral"]
    smin_end = float(np.linalg.svd(a_end - np.eye(a_end.shape[0]),
                                   compute_uv=False)[-1])
    return IndexResult(
        value=HalfInt.from_int(value),
        winding_trace=tuple(trace),
        extension_winding=float(e_rho),
        endpoint=ext.endpoint,
        diagnostics={
            "refinement_depth": depth,
            "det_gap": ext.det_gap,
            "smin_end": smin_end,
            "windings": totals,
            "rho_fallbacks": events["rho_fallbacks"],
            "krein_nudges": events["krein_nudges"],
            "passages": events["passages"],
            "anchored_passages": events["anchored_passages"],
        },
    )


def cz_dim2_closed_form(S, T: float) -> HalfInt:
    """Closed-form index of t -> exp(t T J0 S) for nondegenerate 2x2 S."""
    s = np.asarray(S, dtype=float)
    if s.shape != (2, 2) or not np.isfinite(s).all():
        raise ParameterError("closed form requires a finite 2x2 symmetric matrix")
    if np.linalg.norm(s - s.T) > 1e-10 * (1.0 + np.linalg.norm(s)):
        raise ParameterError("S must be symmetric")
    w = np.linalg.eigvalsh(s)
    if np.min(np.abs(w)) < 1e-12:
        raise ParameterError("S must be nondegenerate")
    sign_s = int(np.sum(w > 0) - np.sum(w < 0))
    if sign_s == 0:
        return HalfInt.from_int(0)
    omega = float(np.sqrt(abs(w[0] * w[1])))
    x = omega * T / (2.0 * np.pi)
    if abs(x - round(x)) < 1e-9:
        raise AdmissibilityError("T is a period of the rotation")
    k = int(np.floor(x))
    return HalfInt((1 + 2 * k) * sign_s)


def _loop_winding(path: PathSpec, tol: ToleranceProfile):
    """Integer winding of the rotation map along a loop, with its trace."""
    p0 = evaluate_array(path, 0.0)
    p1 = evaluate_array(path, 1.0)
    if np.linalg.norm(p0 - p1) > 1e3 * tol.tol_symp * (1.0 + np.linalg.norm(p0)):
        raise ContractError("maslov_loop requires a loop")
    events = Counter()
    turns, trace, _ = winding(
        _rho_map(partial(evaluate_stack, path), tol, events, 1),
        tol.max_refine, anchor_ts=_passage_anchors(path, events))
    return _rounded("loop", turns), trace


def maslov_loop(path: PathSpec, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Integer winding of the rotation map along a loop."""
    return _loop_winding(path, tol)[0]
