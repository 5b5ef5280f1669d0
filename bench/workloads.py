"""Seeded job generators and their independent references.

Every job is a plain dict: ``id``, ``cell``, ``command``, the ``input`` JSON
text the timed region parses, the ``reference`` value, and ``props`` (input
properties recorded for later share-of-jobs questions).  References come
from per-block closed forms, never from the route under test:

* cz of exp(t J0 S) for a 2x2 diagonal S: ``sign(S) (1 + 2 floor(w / 2pi))``
  for a definite S of frequency w, 0 for an indefinite S.  Conley-Zehnder
  is invariant under conjugation and additive over direct sums.
* rs2 of the vertical Lagrangian under exp(t J0 diag(a, b)): crossings sit
  at t = k pi / w with form sign(b), plus half of sign(b) at t = 0, so
  ``sign(b) (1 + 2 floor(w / pi)) / 2`` (elliptic) or ``sign(b) / 2``
  (hyperbolic).  A conjugator that preserves the vertical Lagrangian keeps it.
* rho of a direct sum of canonical blocks: ``e^{i phi}`` per rotation block,
  ``-1`` per negative real pair, ``1`` otherwise; normal-form blocks are the
  ones the matrix was assembled from.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg as sla

from sympindex import NormalFormBlock, assemble, random_symplectic
from sympindex.core import direct_sum_many, j_matrix

WORKLOADS = ("cz_exp", "crossing_scan", "cli_cold")
CELLS = tuple((n, r) for n in (1, 2, 4, 8) for r in (3.0, 12.0))
CLI_CELLS = tuple((n, r) for n in (1, 2) for r in (3.0, 12.0))
CLI_COMMANDS = ("cz", "rs", "rs2", "maslov", "rho", "normal-form")

HYPERBOLIC_RATE_CAP = 3.0
# distance of every block frequency from pi Z: keeps t = 1 off a crossing of
# both the cz/rs and the rs2 problem (an input property, not an outcome)
FREQUENCY_MARGIN = 0.05
CONJUGATOR_MAX_COND = 10.0
COND_GRID = 9


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


# ---------------------------------------------------------------------------
# diagonal 2x2 generator blocks


def draw_blocks(rng: np.random.Generator, n: int, radius: float,
                extra_elliptic: int) -> list[dict]:
    """n diagonal blocks; the first is elliptic with frequency ``radius``.

    ``extra_elliptic`` of the other n - 1 blocks are elliptic, at positions
    drawn from ``rng``; the rest are hyperbolic.  The extra frequencies are
    stratified: the k-th of them is drawn from the k-th of ``extra_elliptic``
    equal slices of (0.3, 1) x radius, so the spread of frequencies, which
    sets how fast the spectrum turns, is the same in every job of a count.
    """
    positions = rng.permutation(np.arange(1, n))[:extra_elliptic].tolist()
    stratum = {p: k for k, p in enumerate(positions)}
    blocks = []
    for i in range(n):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        aspect = math.exp(rng.uniform(-0.3, 0.3))
        if i == 0 or i in stratum:
            w = radius if i == 0 else _elliptic_frequency(
                rng, radius, stratum[i], extra_elliptic)
            diag = (sign * w * aspect, sign * w / aspect)
            blocks.append({"kind": "elliptic", "w": w, "diag": diag})
        else:
            rate = rng.uniform(0.3, 1.0) * min(radius, HYPERBOLIC_RATE_CAP)
            diag = (sign * rate * aspect, -sign * rate / aspect)
            blocks.append({"kind": "hyperbolic", "w": rate, "diag": diag})
    return blocks


def extra_elliptic(r: int, rounds: int, n: int) -> int:
    """How many of blocks 2..n are elliptic in round ``r`` of ``rounds``.

    Each of the n - 1 blocks is elliptic with probability 1/2, so the count
    is Binomial(n - 1, 1/2).  Round r takes the binomial quantile at the
    midpoint of the r-th of ``rounds`` equal slices of (0, 1), the slices
    visited in van der Corput order: the count, which sets most of a job's
    cost, is a fixed design shared by every seed, and any prefix of rounds
    holds close to the binomial mix.
    """
    u = (math.floor(_van_der_corput(r) * rounds) + 0.5) / rounds
    cdf = 0.0
    for k in range(n - 1):
        cdf += math.comb(n - 1, k) / 2 ** (n - 1)
        if u < cdf:
            return k
    return n - 1


def _van_der_corput(r: int) -> float:
    out, scale = 0.0, 0.5
    while r:
        out += scale * (r & 1)
        r >>= 1
        scale /= 2
    return out


def _elliptic_frequency(rng: np.random.Generator, radius: float, k: int,
                        strata: int) -> float:
    lo = 0.3 + 0.7 * k / strata
    hi = 0.3 + 0.7 * (k + 1) / strata
    while True:
        w = rng.uniform(lo, hi) * radius
        if abs(w - math.pi * round(w / math.pi)) >= FREQUENCY_MARGIN:
            return w


def cz_block(block: dict) -> int:
    """Doubled CZ index of exp(t J0 diag) on [0, 1]."""
    if block["kind"] == "hyperbolic":
        return 0
    sign = 1 if block["diag"][0] > 0 else -1
    return 2 * sign * (1 + 2 * math.floor(block["w"] / (2 * math.pi)))


def rs2_block(block: dict) -> int:
    """Doubled vertical-Lagrangian index of exp(t J0 diag) on [0, 1]."""
    sign = 1 if block["diag"][1] > 0 else -1
    if block["kind"] == "hyperbolic":
        return sign
    return sign * (1 + 2 * math.floor(block["w"] / math.pi))


def _generator(blocks: list[dict]) -> np.ndarray:
    return direct_sum_many([np.diag(b["diag"]) for b in blocks])


def _vertical_preserving(rng: np.random.Generator, n: int) -> np.ndarray:
    """P = [[A, 0], [C, A^-T]] with A^T C symmetric, cond(P) <= 10."""
    while True:
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = q1 @ np.diag(np.exp(rng.uniform(-0.3, 0.3, size=n))) @ q2
        m = rng.uniform(-0.3, 0.3, size=(n, n))
        m = 0.5 * (m + m.T)
        a_inv_t = np.linalg.inv(a).T
        p = np.block([[a, np.zeros((n, n))], [a_inv_t @ m, a_inv_t]])
        if np.linalg.cond(p) <= CONJUGATOR_MAX_COND:
            return p


# ---------------------------------------------------------------------------
# path JSON and input properties


def _exp_node(s: np.ndarray) -> dict:
    return {"type": "exp", "S": s.tolist(), "T": 1.0}


def _node_types(node: dict) -> list[str]:
    out = {node["type"]}
    for key in ("phi", "psi", "inner", "left", "right"):
        if key in node:
            out.update(_node_types(node[key]))
    for part in node.get("parts", ()):
        out.update(_node_types(part))
    return sorted(out)


def _max_cond(psi) -> float:
    """max cond(psi_t) over a coarse uniform grid of [0, 1]."""
    return float(max(np.linalg.cond(psi(t))
                     for t in np.linspace(0.0, 1.0, COND_GRID)))


def _props(n: int, radius: float, blocks, obj: dict, psi) -> dict:
    return {"n": n, "radius": radius, "blocks": [b["kind"] for b in blocks],
            "node_types": _node_types(obj["path"]),
            "max_cond": _max_cond(psi)}


def cz_exp_input(rng, n: int, radius: float, extra: int):
    """(path JSON, doubled cz reference, input properties) of a cz_exp job."""
    blocks = draw_blocks(rng, n, radius, extra)
    p = random_symplectic(n, seed=int(rng.integers(2**31)), scale=0.3,
                          max_cond=CONJUGATOR_MAX_COND)
    s = p.T @ _generator(blocks) @ p
    obj = {"n": n, "path": _exp_node(s)}
    js = j_matrix(n) @ s
    return obj, sum(cz_block(b) for b in blocks), \
        _props(n, radius, blocks, obj, lambda t: sla.expm(t * js))


def crossing_input(rng, n: int, radius: float, extra: int):
    """(path JSON, (doubled rs, doubled rs2), input properties) of a scan job."""
    blocks = draw_blocks(rng, n, radius, extra)
    p = _vertical_preserving(rng, n)
    p_inv = np.linalg.inv(p)
    parts = [_exp_node(np.diag(b["diag"])) for b in blocks]
    obj = {"n": n, "path": {"type": "conj",
                            "phi": {"type": "const", "A": p_inv.tolist()},
                            "psi": {"type": "dsum", "parts": parts}}}
    js = j_matrix(n) @ _generator(blocks)
    ref = (sum(cz_block(b) for b in blocks), sum(rs2_block(b) for b in blocks))
    return obj, ref, _props(n, radius, blocks, obj,
                            lambda t: p_inv @ sla.expm(t * js) @ p)


def canonical_matrix(rng, n: int):
    """(matrix, rho reference, canonical blocks) for n <= 2."""
    blocks = []
    left = n
    while left > 0:
        kind = int(rng.integers(0, 3 if left >= 2 else 2))
        if kind == 0:
            lam = rng.uniform(1.3, 2.5) * (1 if rng.random() < 0.5 else -1)
            blocks.append(NormalFormBlock("OffCircleReal", 2, (float(lam),), 1))
            left -= 1
        elif kind == 1:
            phi = rng.uniform(0.3, 2.8) * (1 if rng.random() < 0.5 else -1)
            blocks.append(NormalFormBlock("UnitNonRealOdd", 2, (float(phi),), 1))
            left -= 1
        else:
            blocks.append(NormalFormBlock(
                "OffCircleComplex", 4,
                (float(rng.uniform(1.3, 2.2)), float(rng.uniform(0.3, 2.8))), 1))
            left -= 2
    k = random_symplectic(n, seed=int(rng.integers(2**31)), scale=0.3,
                          max_cond=CONJUGATOR_MAX_COND)
    a = k @ assemble(blocks) @ np.linalg.inv(k)
    phase = 0.0
    sign = 1
    for b in blocks:
        if b.case == "UnitNonRealOdd":
            phase += b.lambda_param[0]
        elif b.case == "OffCircleReal" and b.lambda_param[0] < 0:
            sign = -sign
    rho_ref = sign * complex(math.cos(phase), math.sin(phase))
    return a, rho_ref, [[b.case, b.size, b.jordan_order, list(b.lambda_param),
                         b.d] for b in blocks]


# ---------------------------------------------------------------------------
# job lists


def _job(job_id: int, cell: str, command: str, obj: dict, reference,
         props: dict) -> dict:
    return {"id": job_id, "cell": cell, "command": command,
            "input": json.dumps(obj, separators=(",", ":")),
            "reference": reference, "props": props}


def make_jobs(workload: str, seed: int, rounds: int) -> list[dict]:
    """``rounds`` rounds of jobs; each round has one job per cell."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    jobs = []
    for r in range(rounds):
        if workload == "cli_cold":
            n, radius = CLI_CELLS[r % len(CLI_CELLS)]
            for c, command in enumerate(CLI_COMMANDS):
                extra = extra_elliptic(r, rounds, n)
                jobs.append(_cli_job(len(jobs), _rng(seed, r, c), command,
                                     n, radius, extra))
            continue
        for c, (n, radius) in enumerate(CELLS):
            rng = _rng(seed, r, c)
            extra = extra_elliptic(r, rounds, n)
            cell = f"n{n}_r{radius:g}"
            if workload == "cz_exp":
                obj, ref, props = cz_exp_input(rng, n, radius, extra)
                jobs.append(_job(len(jobs), cell, "cz", obj, ref, props))
            else:
                obj, ref, props = crossing_input(rng, n, radius, extra)
                jobs.append(_job(len(jobs), cell, "rs+rs2", obj, list(ref),
                                 props))
    return jobs


def _cli_job(job_id: int, rng, command: str, n: int, radius: float,
             extra: int) -> dict:
    cell = command
    if command == "cz":
        obj, ref, props = cz_exp_input(rng, n, radius, extra)
        return _job(job_id, cell, command, obj, _half(ref), props)
    if command in ("rs", "rs2"):
        obj, ref, props = crossing_input(rng, n, radius, extra)
        value = ref[0] if command == "rs" else ref[1]
        return _job(job_id, cell, command, obj, _half(value), props)
    if command == "maslov":
        # the constant loop (wind 0) is left out: psi_t = Id makes every
        # grid point a passage candidate and the job takes ~3 s instead of
        # ~0.1 s in process, a pathology of its own that would swamp the
        # cold-start cost this workload is about
        wind = int(rng.choice([-2, -1, 1, 2]))
        obj = {"n": n, "path": {"type": "loop", "wind": wind}}
        return _job(job_id, cell, command, obj, wind,
                    {"n": n, "radius": None, "blocks": [],
                     "node_types": ["loop"], "max_cond": None})
    a, rho_ref, blocks = canonical_matrix(rng, n)
    obj = {"matrix": a.tolist()}
    props = {"n": n, "radius": None, "blocks": [],
             "node_types": ["matrix"], "max_cond": float(np.linalg.cond(a))}
    if command == "rho":
        return _job(job_id, cell, command, obj,
                    [rho_ref.real, rho_ref.imag], props)
    return _job(job_id, cell, command, obj, blocks, props)


def _half(doubled: int) -> str:
    """The CLI's text form of a half-integer given doubled."""
    return str(doubled // 2) if doubled % 2 == 0 else f"{doubled}/2"
