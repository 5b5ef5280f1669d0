"""Degree-based Conley-Zehnder index.

The index of an admissible path (psi(0) = Id, 1 not an eigenvalue of psi(1))
is the winding number of the squared rotation map along the path extended to
one of the two component representatives

    W+ = -Id          W- = diag(2, -1, ..., -1, 1/2, -1, ..., -1).

The winding over [0, 1] is sampled adaptively, for all three circle maps on
one grid.  A path that is one exponential exp(t M) winds on a grid sized from
the eigenvalues of M, so that no turn of rho^2 fits between two samples;
every other path winds on 64 cells plus anchors at the +-1 passages of its
spectrum, found by the Souriau sampler of ``lagrangian`` on its graph.  Along
one exponential rho is a character, rho(exp(tM)) = e^{ict}: rho runs on one
sample, where it reads c, and the spectral winding samples e^{2ict} on the
grid, while the determinant maps still sample psi_t there and check it
(``_spectral_map``).

The extension runs from A through a nearby semisimple matrix A' with
distinct eigenvalues.  A' is A itself when A's normal form has only order-1
semisimple blocks whose eigenvalues, read from the block parameters, are as
far apart as ``semisimple_perturb`` separates its output (a normal form
that ``normal_form`` reads from eigenvectors when they are also isolated);
otherwise A' is that perturbation of A, one small Cayley factor of A,
normal-formed again, its split eigenvalues by the chain construction.  The
result's ``diagnostics`` say which (``perturbed``) and whether the first
normal form was retried at the extension's own tolerance (``nf_retry``).
The extension's contribution is computed three ways and cross-checked:

* for the spectral rotation map, analytically from the spectrum of A' (each
  Krein-kappa unit eigenvalue pair at angle phi in (0, pi) contributes
  kappa*(pi - phi)/pi; other regimes contribute 0), plus a sampled bridge
  from A to A' (two samples when A' is A, the bridge being constant);
* for the polar and C-linear-part maps, whose values are not functions of the
  spectrum alone, by sampling an explicitly materialized extension: the
  bridge, a blockwise eigenvalue deformation in the normal-form basis
  K = U P, and an unwinding of its positive factor P, which ends at
  U W+- U^T for the orthogonal symplectic U.  That end is as good as W+-:
  each circle map restricts to det_C on U(n) = Sp(2n) & O(2n), so it takes
  the same value on every U(n)-conjugate (Salamon-Zehnder, CPAM 45, 1992),
  and a leg from U W+- U^T to W+- would be constant for all three.  A
  constant bridge is not sampled either, so on that route the two spectral
  bridge samples share only t = 1/3 with their grid.

The polar and C-linear-part maps are one map on Sp(2n) (``core.rho_polar``
takes det_C of the polar factor from det_C(C_A) = det_C(U) det_C(C_P)), so
the three-way check is two routes, spectral and determinant; both
determinant windings are run, and are equal.

The extension's matrices are built once and each third is sampled as one
stack in plain array arithmetic: the bridge is the Cayley path
A (I - uC)^-1 (I + uC) of the Hamiltonian C = (B - I)(B + I)^-1,
B = A^-1 A' (C = 0 when A' is A), each deformer is a function of an array
of t, and the unwinding K(t) carries its inverse from the decompositions
that build it.  No scipy routine is used.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (direct_sum_many, finite_matrix, omega_matrix, rho_hat,
                   rho_polar)
from .errors import (AdmissibilityError, ConditioningError, ContractError,
                     IllConditionedSpectrumError, InternalConsistencyError,
                     KreinDegenerateError, ParameterError)
from .halfint import HalfInt
from .lagrangian import _doubled_counts, _souriau_winding, _split
from .normal_form import _rot, _separated, normal_form, semisimple_perturb
from .paths import PathSpec, _exponential, evaluate_array, evaluate_stack
from .rs import (_check_parity, _det_gap, _diagonal, _graphs,
                 _starts_at_identity)
from .sampling import winding
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


# a sample on an isolated Krein degeneracy is stepped over by this much
KREIN_NUDGE = 1e-9


def _rho_map(stack_at, tol: ToleranceProfile, events: Counter, power: int):
    """ts -> rho(psi_t) ** power for the stack ``stack_at(ts)``, in one
    ``rho`` call per stack (``_rho_values``)."""
    return lambda ts: np.array(
        _rho_values(ts, stack_at(ts), stack_at, tol, events, power),
        dtype=complex)


def _rho_values(ts, stack, stack_at, tol: ToleranceProfile, events: Counter,
                power: int) -> list:
    """rho ** power of each matrix of ``stack``, the path ``stack_at`` at
    ``ts``, in one ``rho`` call unless it fails.

    When a stack fails on an ambiguous cluster or a Krein degeneracy, only
    its failing sample (the error's ``row``) is taken on its own: it runs
    the tolerance cascade, and a sample on an isolated Krein degeneracy is
    stepped over, its value taken at t + KREIN_NUDGE (t - KREIN_NUDGE for
    t >= 1/2) and the step counted in ``events["krein_nudges"]``.  The
    samples before it passed the checks up to the failed one and make one
    stack again, split the same way if it fails a later check (so the
    recursion is no deeper than the checks are many); the samples after it
    make the next stack, which may fail in turn.  Only the failing samples
    count fallbacks, so the counts do not depend on how the samples are
    stacked.
    """
    out = []
    while len(out) < len(ts):
        start = len(out)
        try:
            out += [z ** power for z in rho(stack[start:], tol).tolist()]
            break
        except (IllConditionedSpectrumError, KreinDegenerateError) as exc:
            r = start + exc.row
        out += _rho_values(ts[start:r], stack[start:r], stack_at, tol, events,
                           power)
        try:
            out.append(_rho_robust(stack[r], tol, events) ** power)
        except KreinDegenerateError:
            events["krein_nudges"] += 1
            t = float(ts[r])
            s = t + KREIN_NUDGE if t < 0.5 else t - KREIN_NUDGE
            nudged = stack_at(np.array([s]))[0]
            out.append(_rho_robust(nudged, tol, events) ** power)
    return out


# ---------------------------------------------------------------------------
# canonical extension of an endpoint to W+/-


# the passage search winds the Souriau map of the graph on this many cells
PASSAGE_GRID = 256
# a passage refines to a window boundary where the map is back at +-1;
# geometric offsets on both sides guarantee a sample inside the window
# (mid-sweep) whatever its width, down to ~1e-9
_ANCHOR_OFFSETS = [0.0] + [sign * 2.0 ** -k / PASSAGE_GRID
                           for sign in (1, -1) for k in range(30)]


def _passage_anchors(t: np.ndarray, events: Counter) -> list[float]:
    """The anchors of the passage candidates ``t``: those of the earliest
    candidate nearest each interior grid point in [1, PASSAGE_GRID - 1],
    each counted in ``events["passages"]``."""
    t = np.sort(t)
    _, first = np.unique(
        np.clip(np.rint(PASSAGE_GRID * t), 1, PASSAGE_GRID - 1).astype(int),
        return_index=True)
    events["passages"] += len(first)
    return [min(max(t_star + d, 0.0), 1.0)
            for t_star in t[first].tolist() for d in _ANCHOR_OFFSETS]


def _unit_passage_times(path: PathSpec, tol: ToleranceProfile,
                        events: Counter) -> list[float]:
    """Parameters where an eigenvalue of the path passes +-1.

    For every path but one exponential (see ``_spectral_map``).  The
    spectral rotation map is locally constant on hyperbolic stretches, so a
    full circle sweep between two passages is invisible to a uniform grid;
    the refined passage parameters anchor the winding sampler there.  A
    Souriau angle of the graph of psi_t against the diagonal passes 0 where
    psi_t has eigenvalue 1, and pi where it has eigenvalue -1.  A candidate
    is a cell between the samples of ``_souriau_winding`` on PASSAGE_GRID
    cells whose Souriau count of the angles, or of the angles less pi, is
    not 0 (a constant path has none), ``_split`` at t* on the angle nearest
    0 or pi.  A crossing on t = 0 (psi_0 = Id) or on a loop's t = 1 is no
    passage.  The earliest candidate per grid index keeps its anchors.
    """
    def shifted(lam, shift):  # the angles less shift, in (-pi, pi]
        return np.angle(np.exp(1j * (lam - shift)))

    sample, angles, trace = _souriau_winding(
        partial(_graphs, path), _diagonal(path.n), tol.max_refine, PASSAGE_GRID)
    ts = np.array([t for t, _ in trace])
    lam, found = np.array([angles[t] for t in ts.tolist()]), []
    for shift in (0.0, np.pi):
        rows = shifted(lam, shift)
        cells = np.flatnonzero(_doubled_counts(rows, np.zeros_like(rows, bool)))
        on_end = np.abs(rows[[0, -1]]).min(axis=1) < np.sqrt(tol.tol_kernel)
        cells = cells[~(on_end[0] & (cells == 0)
                        | on_end[1] & (cells == len(ts) - 2))]
        found.append(_split(
            lambda u, shift=shift: shifted(sample(u), shift), ts[cells],
            ts[cells + 1], rows[cells], rows[cells + 1], True, 1e-10)[0])
    return _passage_anchors(np.concatenate(found), events)


def _pair_block(t, lam, target):
    """Stack of diag(m, 1/m), m running linearly from lam to target."""
    m = (1 - t) * lam + t * target
    return np.stack([m, 1.0 / m], -1)[..., None] * np.eye(2)


def _quad_block(r, th):
    """Stack of 4x4 blocks diag(r R(th), r^-1 R(th)) in the {e1,e2,f1,f2}
    layout, for arrays r and th of one shape."""
    rot, r = _rot(th), np.asarray(r)[..., None, None]
    out = np.zeros(rot.shape[:-2] + (4, 4))
    out[..., :2, :2] = r * rot
    out[..., 2:, 2:] = rot / r
    return out


def _quad_to_minus_one(t, r0, th0):
    """A quadruple r0 e^{+-i th0} to the double pair at -1."""
    return _quad_block(1 + (r0 - 1) * (1 - t), th0 + (np.pi - th0) * t)


def _unit_to_minus_one(t, phi):
    """A unit pair e^{+-i phi} to -1, keeping its Krein sign."""
    return _rot((1 - t) * phi + t * (np.pi if phi > 0 else -np.pi))


def _positive_pairs_block(t, lam1, lam2):
    """Two positive real pairs to a quadruple at -1: lam2 slides to lam1,
    then the double pair turns by pi as its modulus goes to 1."""
    out = np.empty(t.shape + (4, 4))
    slide = t <= 0.5
    still = np.broadcast_to(np.diag([lam1, 1 / lam1]),
                            (np.count_nonzero(slide), 2, 2))
    out[slide] = direct_sum_many([still, _pair_block(2 * t[slide], lam2, lam1)])
    s = 2 * t[~slide] - 1
    out[~slide] = _quad_block(1 + (lam1 - 1) * (1 - s), np.pi * s)
    return out


# the block cases of a semisimple endpoint, each of order 1
_SEMISIMPLE = ("UnitNonRealOdd", "OffCircleReal", "OffCircleComplex")


def _outer_spectrum(blocks) -> np.ndarray:
    """The eigenvalues on or outside the unit circle of order-1 semisimple
    blocks, from their parameters: e^{+-i phi}, lam, r e^{+-i phi}."""
    out = []
    for b in blocks:
        if b.case == "OffCircleReal":
            out.append(complex(b.lambda_param[0]))
        else:
            r, phi = ((1.0,) + b.lambda_param if b.case == "UnitNonRealOdd"
                      else b.lambda_param)
            out.extend(r * np.exp([1j * phi, -1j * phi]))
    return np.array(out)


class _Extension(PathSpec):
    """Materialized deformation of a semisimple endpoint to U W+/- U^T,
    for the unitary factor U of its normal-form basis (``_build_unwind``)."""

    def __init__(self, a_end: np.ndarray, tol: ToleranceProfile, seed: int):
        a_end = finite_matrix(a_end)
        dim = a_end.shape[0]
        det_gap = _det_gap(a_end)
        if not np.isfinite(det_gap):
            raise ContractError("det(A - Id) overflows the float range")
        if abs(det_gap) <= tol.tol_kernel:
            raise AdmissibilityError(
                f"|det(A - Id)| = {abs(det_gap):.3e} is below tol_kernel")
        self.endpoint = "W+" if det_gap > 0 else "W-"
        self.det_gap = det_gap

        eps = min(1e-6, 0.01 * abs(det_gap) ** (1.0 / dim))
        nf_tol = tol.with_overrides(tol_eig=max(1e-12, 2.5e-3 * eps))
        self.tol = nf_tol
        # the caller's tol merges eigenvalues that rounding splits off a
        # Jordan block; a gap inside its ambiguity band is separated at
        # nf_tol, whose band (tol_eig <= 2.5e-9) lies below the default's
        self.nf_retry = False
        try:
            report = normal_form(a_end, tol)
        except IllConditionedSpectrumError:
            self.nf_retry = True
            report = normal_form(a_end, nf_tol)
        # an endpoint of order-1 semisimple blocks whose eigenvalues are as
        # separated as semisimple_perturb makes its output is its own nearby
        # semisimple matrix, and the bridge to it is constant; the spectrum
        # is the report's, so a cluster it merged fails the separation
        self.perturbed = not (
            all(b.case in _SEMISIMPLE and b.jordan_order == 1
                for b in report.blocks)
            and _separated(_outer_spectrum(report.blocks), eps))
        eye, om = np.eye(dim), omega_matrix(dim // 2)
        self._cayley = np.zeros((dim, dim))
        if self.perturbed:
            aprime = semisimple_perturb(a_end, eps=eps, seed=seed)
            report = normal_form(aprime, nf_tol)
            # Cayley bridge A (I - uC)^-1 (I + uC) to the perturbed endpoint,
            # B = A^-1 A' with A^-1 = Omega^T A^T Omega
            b = om.T @ a_end.T @ om @ aprime
            try:
                self._cayley = np.linalg.solve(b + eye, b - eye)
            except np.linalg.LinAlgError as exc:
                raise ConditioningError(f"Cayley bridge: {exc}") from exc

        # classify the (all order-1) blocks of the bridge's far end
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
                    f"bridged endpoint has a non-semisimple block {b.case}")
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
        k = np.concatenate([halves[:, :, offsets[i]:offsets[i + 1]]
                            for i in order], axis=2).reshape(dim, dim)
        # one Newton step K (I + Omega D / 2), D = K^T Omega K - Omega, takes
        # the basis from symplectic to O(D) to symplectic to O(D^2)
        self.k_perm = k @ (eye + 0.5 * om @ (k.T @ om @ k - om))
        self.k_perm_inv = np.linalg.inv(self.k_perm)

        # blockwise deformers, each a stack over an array of t in [0, 1], in
        # the same order
        deformers = []
        for i in survivor:
            deformers.append(partial(_pair_block, lam=lam[i][0], target=2.0))
        for i, j in zip(pos[0::2], pos[1::2]):
            deformers.append(partial(_positive_pairs_block,
                                     lam1=lam[i][0], lam2=lam[j][0]))
        for i in neg:
            deformers.append(partial(_pair_block, lam=lam[i][0], target=-1.0))
        for i in quad:
            deformers.append(partial(_quad_to_minus_one, r0=lam[i][0],
                                     th0=lam[i][1]))
        for i in unit:
            deformers.append(partial(_unit_to_minus_one, phi=lam[i][0]))
        self._deformers = deformers

        # the unwinding of the conjugation down to its unitary factor
        self.a_end = a_end
        self._w_matrix = self._deform(np.ones(1))[0]
        self._unwind = self._build_unwind(self.k_perm)

    def _deform(self, t: np.ndarray) -> np.ndarray:
        return direct_sum_many([fn(t) for fn in self._deformers])

    @staticmethod
    def _build_unwind(k: np.ndarray):
        """Path K(t) = U P^(1-t) from K to U, with its inverse P^(t-1) U^T.

        P^(1-t) = V diag(s^(1-t)) V^T comes from the SVD K = X diag(s) V^T.
        U is [[Re w, -Im w], [Im w, Re w]] for the unitary polar factor w of
        the complex block of O = X V^T, so it is orthogonal and symplectic
        to rounding whatever cond(K), U^T is its inverse, and U P is K to
        rounding.  The extension ends at U W U^T (see the module docstring).

        ``k_at`` broadcasts over the shape of t: an array of t gives stacks,
        a scalar t one matrix each."""
        n = k.shape[0] // 2
        x, s, vt = np.linalg.svd(k)
        o = x @ vt
        y, _, zh = np.linalg.svd(o[:n, :n] + 1j * o[n:, :n])
        w = y @ zh
        u = np.block([[w.real, -w.imag], [w.imag, w.real]])

        def k_at(t) -> tuple[np.ndarray, np.ndarray]:
            t = np.asarray(t, dtype=float)[..., None]
            return (u @ ((vt.T * (s ** (1 - t))[..., None, :]) @ vt),
                    (vt.T * (s ** (t - 1))[..., None, :]) @ vt @ u.T)

        return k_at

    def rho_winding(self, events: Counter) -> float:
        """Turns of rho^2 along the extension.

        The winding over the bridge to the nearby semisimple matrix, sampled
        on the extension's first third, plus the analytic unit-spectrum sum.
        A constant bridge (an unperturbed endpoint) is sampled at its ends.
        The bridge samples are counted in ``events["rho_samples"]``.
        """
        bridge = _counted(_rho_map(lambda ts: evaluate_stack(self, ts / 3.0),
                                   self.tol, events, 2), events)
        turns, _, _ = winding(bridge, self.tol.max_refine,
                              coarse=16 if self.perturbed else 1)
        return turns + self.unit_turns

    def det_winding(self, circle_map, tol: ToleranceProfile) -> float:
        """Turns of ``circle_map``^2 (a determinant map) along the extension.

        The bridge third of an unperturbed endpoint is constant, so only
        t in [1/3, 1] is sampled there, on 64 cells: the density of the
        perturbed route's 96 cells over [0, 1].  The grid points are those
        of the 96 cells, t = (1 + 2s)/3 being i/96 for s = (i - 32)/64.
        """
        if self.perturbed:
            lift, coarse = (lambda s: s), 96
        else:
            lift, coarse = (lambda s: (1.0 + 2.0 * s) / 3.0), 64
        turns, _, _ = winding(
            lambda s: circle_map(evaluate_stack(self, lift(s)), tol) ** 2,
            tol.max_refine, coarse=coarse)
        return turns

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        """The full materialized extension on [0, 1], one stack per third:
        the bridge in one stacked solve, the deformation and the unwinding
        in array arithmetic."""
        out = np.empty((len(ts),) + self.a_end.shape)
        bridge, unwind = ts <= 1.0 / 3.0, ts > 2.0 / 3.0
        deform = ~(bridge | unwind)
        uc = (3.0 * ts[bridge])[:, None, None] * self._cayley
        eye = np.eye(self.a_end.shape[0])
        out[bridge] = self.a_end @ np.linalg.solve(eye - uc, eye + uc)
        out[deform] = (self.k_perm @ self._deform(3.0 * ts[deform] - 1.0)
                       @ self.k_perm_inv)
        kt, kt_inv = self._unwind(3.0 * ts[unwind] - 2.0)
        out[unwind] = kt @ self._w_matrix @ kt_inv
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


def _counted(rho_map, events: Counter):
    """``rho_map`` with every sample it runs on counted in
    ``events["rho_samples"]``."""
    def counted(ts):
        events["rho_samples"] += len(ts)
        return rho_map(ts)
    return counted


def _spectral_map(path: PathSpec, tol: ToleranceProfile, events: Counter,
                  power: int):
    """(ts -> rho(psi_t) ** power, coarse cells, anchors): the spectral map
    of the [0, 1] windings of ``path``, with the grid that every circle map
    shares.

    On one exponential psi_t = exp(t M) (see ``paths._exponential``) the
    spectrum is e^{t mu}, so arg rho moves by at most ``speed``, the sum of
    Im mu over the eigenvalues mu of M with Im mu > 0, per unit t, and a
    grid of power * speed / pi cells moves the map by at most pi per cell.
    A step must exceed 3 pi / 2 before it aliases below ``PHASE_STEP``, and
    halving a cell keeps the bound, so no turn hides between two samples and
    no anchor is needed.  The determinant maps share the grid with no bound
    of their own: a turn one of them loses disagrees with the spectral
    winding, which raises.

    There rho is also a character.  psi_t keeps the generalized eigenspaces
    of M and their Krein signatures, so away from the t where two
    eigenvalues e^{t mu} meet, and for every t as rho is continuous,
    rho(psi_t) = e^{ict} with c = sum kappa_j omega_j over the eigenvalues
    i omega_j of M, omega_j > 0, of Krein sign kappa_j.  |c| is at most
    ``speed``, so at t0 = power / (2 cells), where speed * t0 <= pi / 2,
    arg rho(psi_t0) is c t0 itself; c is read there, at the parameter rho
    ran on (t0 + KREIN_NUDGE after a nudge), and the map is
    e^{i power c t}.  Only that sample runs rho.

    Every other path runs rho on every sample, and winds on 64 cells plus
    the anchors of its +-1 passages.  The samples rho runs on are counted in
    ``events["rho_samples"]``.
    """
    exact = _exponential(path)
    if exact is None:
        return (_counted(_rho_map(partial(evaluate_stack, path), tol, events,
                                  power), events),
                64, _unit_passage_times(path, tol, events))
    mu = np.linalg.eigvals(exact.duration * exact._js)
    speed = float(mu.imag[mu.imag > 0].sum())
    cells = max(64, int(np.ceil(power * speed / np.pi)))
    # the last parameter evaluated is the one rho ran on, t0 or its nudge
    evaluated = []

    def stack_at(ts):
        evaluated.append(float(ts[-1]))
        return evaluate_stack(path, ts)

    t0 = power / (2.0 * cells)
    z = _rho_map(stack_at, tol, events, 1)(np.array([t0]))[0]
    events["rho_samples"] += 1
    rate = power * float(np.angle(z)) / evaluated[-1]
    return (lambda ts: np.exp(1j * rate * ts)), cells, []


def _rounded(name: str, turns: float) -> int:
    """The integer a winding must be, within 0.1."""
    r = int(round(turns))
    if abs(turns - r) > 0.1:
        raise InternalConsistencyError(
            f"{name} winding {turns:.6f} is not within 0.1 of an integer")
    return r


def conley_zehnder(path: PathSpec, tol: ToleranceProfile = DEFAULT_TOL,
                   seed: int = 0) -> IndexResult:
    """Winding number of the squared rotation map along the extended path.

    Computed with the spectral rotation map, the polar-factor map and the
    C-linear-part map; the three integers must agree.  The last two are
    equal on Sp(2n), so this checks two routes: spectral and determinant.
    The index must also satisfy the parity rule (``rs._check_parity``).
    """
    if not _starts_at_identity(path, tol):
        raise AdmissibilityError("path does not start at the identity")
    a_end = evaluate_array(path, 1.0)
    ext = _Extension(a_end, tol, seed)

    # each circle map winds along the path, on the same grid and anchors,
    # and along the extension
    events = Counter()
    spectral, cells, anchors = _spectral_map(path, tol, events, 2)
    w_rho, trace, depth = winding(spectral, tol.max_refine, coarse=cells,
                                  anchor_ts=anchors)
    e_rho = ext.rho_winding(events)
    totals = {"spectral": w_rho + e_rho}
    for name, circle_map in (("polar", rho_polar), ("clinear", rho_hat)):
        w, _, _ = winding(
            lambda ts, f=circle_map: f(evaluate_stack(path, ts), tol) ** 2,
            tol.max_refine, coarse=cells, anchor_ts=anchors)
        totals[name] = w + ext.det_winding(circle_map, tol)

    rounded = {name: _rounded(name, val) for name, val in totals.items()}
    if len(set(rounded.values())) != 1:
        raise InternalConsistencyError(
            f"circle maps disagree on the index: {rounded}")

    value = HalfInt.from_int(rounded["spectral"])
    _check_parity(path.n, value, ext.det_gap, "CZ")
    smin_end = float(np.linalg.svd(a_end - np.eye(a_end.shape[0]),
                                   compute_uv=False)[-1])
    return IndexResult(
        value=value,
        winding_trace=tuple(trace),
        extension_winding=float(e_rho),
        endpoint=ext.endpoint,
        diagnostics={
            "refinement_depth": depth,
            "grid_cells": cells,
            "det_gap": ext.det_gap,
            "smin_end": smin_end,
            "windings": totals,
            "rho_fallbacks": events["rho_fallbacks"],
            "krein_nudges": events["krein_nudges"],
            "passages": events["passages"],
            "rho_samples": events["rho_samples"],
            "perturbed": ext.perturbed,
            "nf_retry": ext.nf_retry,
            "unit_turns": ext.unit_turns,
        },
    )


def cz_dim2_closed_form(S, T: float) -> HalfInt:
    """Closed-form index of t -> exp(t T J0 S) for nondegenerate 2x2 S."""
    s = np.asarray(S, dtype=float)
    if s.shape != (2, 2) or not np.isfinite(s).all():
        raise ParameterError("closed form requires a finite 2x2 symmetric matrix")
    if np.linalg.norm(s - s.T) > 1e-10 * (1.0 + np.linalg.norm(s)):
        raise ParameterError("S must be symmetric")
    if not (isinstance(T, numbers.Real) and math.isfinite(T)):
        raise ParameterError(f"T must be a finite number, got {T!r}")
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
    """Integer winding of the rotation map along a loop, with its trace,
    its coarse cells and the events of its spectral map (``_spectral_map``).
    """
    p0 = evaluate_array(path, 0.0)
    p1 = evaluate_array(path, 1.0)
    if np.linalg.norm(p0 - p1) > 1e3 * tol.tol_symp * (1.0 + np.linalg.norm(p0)):
        raise ContractError("maslov_loop requires a loop")
    events = Counter()
    spectral, cells, anchors = _spectral_map(path, tol, events, 1)
    turns, trace, _ = winding(spectral, tol.max_refine, coarse=cells,
                              anchor_ts=anchors)
    return _rounded("loop", turns), trace, cells, events


def maslov_loop(path: PathSpec, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Integer winding of the rotation map along a loop."""
    return _loop_winding(path, tol)[0]
