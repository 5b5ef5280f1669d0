"""Degree-based Conley-Zehnder index.

The index of an admissible path (psi(0) = Id, 1 not an eigenvalue of psi(1))
is the winding number of the squared rotation map along the path extended to
one of the two component representatives

    W+ = -Id          W- = diag(2, -1, ..., -1, 1/2, -1, ..., -1).

The winding over [0, 1] is sampled adaptively.  The extension's contribution
is computed three ways and cross-checked:

* for the spectral rotation map, analytically from the spectrum of a nearby
  semisimple matrix (each Krein-kappa unit eigenvalue pair at angle phi in
  (0, pi) contributes kappa*(pi - phi)/pi; other regimes contribute 0), plus
  a sampled bridge to the perturbed endpoint;
* for the polar and C-linear-part maps, whose values are not functions of the
  spectrum alone, by sampling an explicitly materialized extension: the
  bridge, a blockwise eigenvalue deformation in the normal-form basis, and a
  final unwinding of the conjugation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .core import as_array, direct_sum_many, rho_hat, rho_polar
from .errors import (AdmissibilityError, ContractError,
                     IllConditionedSpectrumError, InternalConsistencyError,
                     KreinDegenerateError, ParameterError)
from .halfint import HalfInt
from .normal_form import _rot, normal_form, semisimple_perturb
from .paths import PathSpec, evaluate_array
from .sampling import PHASE_STEP, local_minima, winding
from .spectral import rho
from .tolerances import DEFAULT_TOL, ToleranceProfile

__all__ = [
    "IndexResult",
    "ExtensionPlan",
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


@dataclass(frozen=True)
class ExtensionPlan:
    """Per-quadruple deformation records for the extension to W+/-."""

    records: tuple                # (regime, start parameter, krein, increment)
    endpoint: str

    @property
    def total_increment(self) -> float:
        return float(sum(r[3] for r in self.records))


# ---------------------------------------------------------------------------
# circle-map sampling


def _nudged(f, events: Counter, eps=1e-9):
    """Wrap a sampler so isolated Krein degeneracies are stepped over.

    Every step taken is counted in ``events["krein_nudges"]``.
    """

    def g(t):
        try:
            return f(t)
        except KreinDegenerateError:
            events["krein_nudges"] += 1
            s = t + eps if t < 0.5 else t - eps
            return f(s)

    return g


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


def _rho_map(sample, tol: ToleranceProfile, events: Counter, power: int):
    """t -> rho(sample(t)) ** power, with the tolerance cascade and nudges."""
    return _nudged(lambda t: _rho_robust(sample(t), tol, events) ** power,
                   events)


# ---------------------------------------------------------------------------
# canonical extension of an endpoint to W+/-


# sigma_min(psi_t -+ Id) samples of the passage search: PASSAGE_GRID + 1
PASSAGE_GRID = 256


def _unit_passage_times(sample, dim: int, events: Counter) -> list[float]:
    """Parameters where an eigenvalue of the sampled path passes +-1.

    The spectral rotation map is locally constant on hyperbolic stretches, so
    a full circle sweep between two passages is invisible to a uniform grid;
    the refined passage parameters anchor the winding sampler there.  A
    passage candidate is a ``local_minima`` candidate of sigma_min(psi_t -+
    Id) on the grid, so a flat run (a constant path) yields none.
    A candidate keeps its anchors only when ``_spectrum_moves`` says a turn
    could hide between them.  Candidates are counted in
    ``events["passages"]``, the ones that keep anchors in
    ``events["anchored_passages"]``.
    """
    eye = np.eye(dim)

    def smin(ts):
        stack = np.array([sample(t) for t in ts])
        return np.minimum(np.linalg.svd(stack - eye, compute_uv=False)[:, -1],
                          np.linalg.svd(stack + eye, compute_uv=False)[:, -1])

    ts = np.linspace(0.0, 1.0, PASSAGE_GRID + 1)
    out = []
    # a passage refines to a window boundary where the map is back at +-1;
    # geometric offsets on both sides guarantee a sample inside the window
    # (mid-sweep) whatever its width, down to ~1e-9
    offsets = [0.0] + [sign * 2.0 ** -k / PASSAGE_GRID
                       for sign in (1, -1) for k in range(30)]
    for i, t_star, _ in local_minima(smin, ts, smin(ts), 1e-8, ()):
        events["passages"] += 1
        anchors = [min(max(t_star + d, 0.0), 1.0) for d in offsets]
        if _spectrum_moves(sample, [ts[i - 1], ts[i + 1]] + anchors):
            events["anchored_passages"] += 1
            out.extend(anchors)
    return out


def _spectrum_moves(sample, times) -> bool:
    """Whether rho^2 can move by ``PHASE_STEP`` across the sampled times.

    arg rho is a signed sum of the angles of the first-kind unit eigenvalues
    plus pi per negative real pair, and every unit pair appears twice among
    the |arg| of the eigenvalues.  So the total variation, along the sorted
    times, of the sorted |arg| profile bounds how far rho^2 moves there.
    """
    ts = np.sort(np.asarray(times, dtype=float))
    lam = np.linalg.eigvals(np.array([sample(t) for t in ts]))
    profile = np.sort(np.abs(np.angle(lam)), axis=1)
    return float(np.abs(np.diff(profile, axis=0)).sum()) >= PHASE_STEP


def _pair_block(lam_t):
    return np.diag([lam_t, 1.0 / lam_t])


def _quad_block(r, th):
    """4x4 block diag(r R(th), r^-1 R(th)) in the {e1,e2,f1,f2} layout."""
    out = np.zeros((4, 4))
    out[:2, :2] = r * _rot(th)
    out[2:, 2:] = _rot(th) / r
    return out


class _Extension:
    """Materialized deformation of a semisimple endpoint to W+/-."""

    def __init__(self, a_end: np.ndarray, tol: ToleranceProfile, seed: int):
        a_end = as_array(a_end)
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

        records = []
        for i in unit:
            phi = report.blocks[i].lambda_param[0]
            kappa = 1 if phi > 0 else -1
            records.append(("UnitNonReal", phi, kappa,
                            kappa * (np.pi - abs(phi)) / np.pi))
        for i in pos:
            records.append(("RealPositive", report.blocks[i].lambda_param[0], 0, 0.0))
        for i in neg:
            records.append(("RealNegative", report.blocks[i].lambda_param[0], 0, 0.0))
        for i in quad:
            records.append(("OffCircleComplex",
                            complex(*report.blocks[i].lambda_param), 0, 0.0))
        self.plan = ExtensionPlan(records=tuple(records), endpoint=self.endpoint)

        # order the blocks: a surviving positive pair first (for W-), then
        # positive pairs two by two, then everything else
        order = []
        survivor = None
        if want_odd:
            survivor = pos.pop()
            order.append(survivor)
        order.extend(pos)
        order.extend(neg)
        order.extend(quad)
        order.extend(unit)

        sizes = [b.size // 2 for b in report.blocks]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        half = int(offsets[-1])
        perm = []
        for idx in order:
            perm.extend(range(offsets[idx], offsets[idx + 1]))
        perm = perm + [half + j for j in perm]
        self.k_perm = report.basis[:, perm]
        self.k_perm_inv = np.linalg.inv(self.k_perm)

        # blockwise deformers on [0, 1]
        deformers = []
        blocks = report.blocks
        pending = None
        for idx in order:
            b = blocks[idx]
            if idx == survivor:
                lam = b.lambda_param[0]
                deformers.append(
                    lambda t, lam=lam: _pair_block((1 - t) * lam + 2 * t))
            elif b.case == "OffCircleReal" and b.lambda_param[0] > 0:
                if pending is None:
                    pending = b.lambda_param[0]
                else:
                    lam1, lam2 = pending, b.lambda_param[0]
                    pending = None

                    def pos_pair(t, lam1=lam1, lam2=lam2):
                        if t <= 0.5:
                            m = (1 - 2 * t) * lam2 + 2 * t * lam1
                            out = np.zeros((4, 4))
                            out[:2, :2] = np.diag([lam1, m])
                            out[2:, 2:] = np.diag([1 / lam1, 1 / m])
                            return out
                        s = 2 * t - 1
                        return _quad_block(1 + (lam1 - 1) * (1 - s), np.pi * s)

                    deformers.append(pos_pair)
            elif b.case == "OffCircleReal":
                lam = b.lambda_param[0]
                deformers.append(
                    lambda t, lam=lam: _pair_block((1 - t) * lam - t))
            elif b.case == "OffCircleComplex":
                r0, th0 = b.lambda_param
                deformers.append(
                    lambda t, r0=r0, th0=th0: _quad_block(
                        1 + (r0 - 1) * (1 - t), th0 + (np.pi - th0) * t))
            else:
                phi = b.lambda_param[0]
                target = np.pi if phi > 0 else -np.pi
                deformers.append(
                    lambda t, phi=phi, target=target: _rot(
                        (1 - t) * phi + t * target))
        if pending is not None:
            raise InternalConsistencyError("unpaired positive eigenvalue pair")
        self._deformers = deformers

        # bridge log and final unwinding of the conjugation
        self.a_end = a_end
        self._bridge_log = sla.logm(np.linalg.solve(a_end, aprime)).real
        self._w_matrix = self._deform(1.0)
        self._unwind = self._build_unwind(self.k_perm)

    def _deform(self, t: float) -> np.ndarray:
        return direct_sum_many([fn(t) for fn in self._deformers])

    @staticmethod
    def _build_unwind(k: np.ndarray):
        """Path K(t) from K to Id through the symplectic polar coordinates."""
        dim = k.shape[0]
        n = dim // 2
        w, v = np.linalg.eigh(k.T @ k)
        z = (v * np.log(w)) @ v.T / 2.0        # log of the positive factor
        o = k @ ((v * np.exp(-0.5 * np.log(w))) @ v.T)
        u = o[:n, :n] + 1j * o[n:, :n]
        wu, vu = np.linalg.eig(u)
        theta = np.angle(wu)

        def k_at(t: float) -> np.ndarray:
            ut = (vu * np.exp(1j * (1 - t) * theta)) @ np.linalg.inv(vu)
            ot = np.block([[ut.real, -ut.imag], [ut.imag, ut.real]])
            return ot @ sla.expm((1 - t) * z)

        return k_at

    def bridge_at(self, t: float) -> np.ndarray:
        return self.a_end @ sla.expm(t * self._bridge_log)

    def rho_winding(self, events: Counter) -> float:
        """Turns of rho^2 along the extension.

        The sampled bridge winding to the nearby semisimple matrix plus the
        analytic unit-spectrum sum.
        """
        turns, _, _ = winding(_rho_map(self.bridge_at, self.tol, events, 2),
                              self.tol.max_refine, coarse=16)
        return turns + self.plan.total_increment

    def at(self, t: float) -> np.ndarray:
        """The full materialized extension on [0, 1]."""
        if t <= 1.0 / 3.0:
            return self.bridge_at(3.0 * t)
        if t <= 2.0 / 3.0:
            nt = self._deform(3.0 * t - 1.0)
            return self.k_perm @ nt @ self.k_perm_inv
        kt = self._unwind(3.0 * t - 2.0)
        return kt @ self._w_matrix @ np.linalg.solve(kt, np.eye(kt.shape[0]))


def extension_winding(A, tol: ToleranceProfile = DEFAULT_TOL, seed: int = 0):
    """Turns of rho^2 along the canonical extension of A to W+ or W-.

    Returns (turns, endpoint).  The value is the sampled bridge winding to a
    nearby semisimple matrix plus the analytic unit-spectrum sum.
    """
    ext = _Extension(as_array(A), tol, seed)
    return ext.rho_winding(Counter()), ext.endpoint


# ---------------------------------------------------------------------------
# the index


def _path_winding(path: PathSpec, tol: ToleranceProfile, power: int,
                  events: Counter):
    """Winding of rho ** power along the path, anchored at its +-1 passages."""
    def sample(t):
        return evaluate_array(path, t)

    anchors = _unit_passage_times(sample, 2 * path.n, events)
    return winding(_rho_map(sample, tol, events, power), tol.max_refine,
                   anchor_ts=anchors)


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

    # main [0,1] windings for the three circle maps
    events = Counter()
    w_rho, trace, depth = _path_winding(path, tol, 2, events)
    w_polar, _, _ = winding(lambda t: rho_polar(evaluate_array(path, t), tol) ** 2,
                            tol.max_refine)
    w_hat, _, _ = winding(lambda t: rho_hat(evaluate_array(path, t), tol) ** 2,
                          tol.max_refine)

    # extension windings
    e_rho = ext.rho_winding(events)
    e_polar, _, _ = winding(lambda t: rho_polar(ext.at(t), tol) ** 2,
                            tol.max_refine, coarse=96)
    e_hat, _, _ = winding(lambda t: rho_hat(ext.at(t), tol) ** 2,
                          tol.max_refine, coarse=96)

    totals = {"spectral": w_rho + e_rho, "polar": w_polar + e_polar,
              "clinear": w_hat + e_hat}
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
    if s.shape != (2, 2):
        raise ParameterError("closed form requires a 2x2 symmetric matrix")
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
    turns, trace, _ = _path_winding(path, tol, 1, Counter())
    return _rounded("loop", turns), trace


def maslov_loop(path: PathSpec, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Integer winding of the rotation map along a loop."""
    return _loop_winding(path, tol)[0]
