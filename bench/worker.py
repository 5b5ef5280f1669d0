"""One benchmark process: set up, say ``ready``, then measure one workload.

``run.py`` starts this script several times per run and times each start up
to its ``ready`` line; only the last process goes on to measure.  The result
is one JSON line on stdout; per-job records (and spans, when traced) go to
``.bench_out/`` in the checkout.

A run works through a fixed pool of jobs made from the seed: the whole pool
once, then again from its start, in whole rounds, until ``--seconds`` have
passed.  Every job of the pool is checked on every execution; ``attempted``
and ``failed`` count distinct jobs of the pool, so a seed gives the same
counts on every run however fast the machine is.  Times are scaled to the
reference machine speed measured by ``speed.Gauge``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import jobs as jobmod  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".bench_out"
# rounds of the pool, a power of two for the elliptic-count design; one pass
# takes 9-18 s at the reference speed, so a 30 s run makes about two
# (each job is parsed afresh, so a repeat is still a cold job)
POOL_ROUNDS = {"cz_exp": 8, "crossing_scan": 16, "cli_cold": 4}
# the warm-up job: an n = 2 job, so both block kinds' code paths are touched
WARMUP_INDEX = 2
IMPORT_PROBES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


class Workload:
    """The job pool of one workload and how to run a job of it."""

    def __init__(self, name: str, seed: int):
        self.cli = name == "cli_cold"
        self.pool_rounds = POOL_ROUNDS[name]
        self.jobs = workloads.make_jobs(name, seed, self.pool_rounds)
        self.per_round = len(workloads.CLI_COMMANDS if self.cli
                             else workloads.CELLS)
        self.env = jobmod.cli_env()
        self.inputs = {}
        if self.cli:
            folder = OUT / f"cli-inputs-{seed}"
            folder.mkdir(parents=True, exist_ok=True)
            for job in self.jobs:
                path = folder / f"job{job['id']}.json"
                path.write_text(job["input"], encoding="utf-8")
                self.inputs[job["id"]] = str(path)

    def run(self, job: dict) -> tuple[float, dict]:
        if self.cli:
            return jobmod.timed(jobmod.run_cli_job, job,
                                self.inputs[job["id"]], self.env)
        return jobmod.timed(jobmod.run_library_job, job)

    def round(self, r: int) -> list[dict]:
        base = (r % (len(self.jobs) // self.per_round)) * self.per_round
        return self.jobs[base:base + self.per_round]

    def measure(self, seconds: float, gauge: speed.Gauge,
                run=None) -> tuple[list[dict], float, int]:
        """Whole rounds, closed loop, until ``seconds`` have passed and the
        whole pool has run once.

        A round started before the deadline is finished, so every cell has
        the same number of jobs.  ``run`` (default ``self.run``) maps a job
        to (latency, outcome); ``gauge`` slices between jobs.
        """
        run = run or self.run
        records = []
        rounds = 0
        t0 = time.perf_counter()
        while rounds < self.pool_rounds or time.perf_counter() - t0 < seconds:
            for job in self.round(rounds):
                t_job = time.perf_counter()
                latency, outcome = run(job)
                gauge.after(time.perf_counter() - t_job)
                reason, contract = jobmod.check(job, outcome)
                records.append({"id": job["id"], "cell": job["cell"],
                                "latency_s": latency, "failed": reason,
                                "contract": contract, "props": job["props"]})
            rounds += 1
        return records, time.perf_counter() - t0, rounds


# ---------------------------------------------------------------------------
# end-to-end metrics


def peak_rss_mb(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def tally(records: list[dict]) -> tuple[int, int]:
    """(distinct jobs run, distinct jobs that failed on some execution)."""
    return (len({r["id"] for r in records}),
            len({r["id"] for r in records if r["failed"]}))


def cell_latencies_ms(records: list[dict], factor: float) -> dict:
    cells: dict[str, list[float]] = {}
    for r in records:
        cells.setdefault(r["cell"], []).append(1e3 * factor * r["latency_s"])
    return cells


def _geomean(values) -> float:
    values = list(values)
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(records: list[dict], factor: float, cli: bool) -> dict:
    """The end-to-end metrics, every time scaled by the gauge's ``factor``.

    The percentiles are taken within each cell (one input size and kind)
    and combined as a geometric mean over cells: pooled over the cells, the
    median falls in the gap between two cells' cost levels and moves with
    single jobs.
    """
    cells = cell_latencies_ms(records, factor)
    attempted, failed = tally(records)
    ok = sum(1 for r in records if not r["failed"])
    busy_s = factor * sum(r["latency_s"] for r in records)
    return {
        "jobs_per_s": ok / busy_s,
        "latency_p50_ms": _geomean(statistics.median(v) for v in cells.values()),
        "latency_p80_ms": _geomean(float(np.percentile(v, 80))
                                   for v in cells.values()),
        "correct_fraction": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb(cli),
    }


def summary(records: list[dict], elapsed: float, rounds: int,
            factor: float) -> dict:
    cells = cell_latencies_ms(records, factor)
    beyond = 0
    for v in cells.values():
        p80 = np.percentile(v, 80)
        beyond += sum(1 for x in v if x > p80)
    failures = {}
    for r in records:
        if r["failed"] and r["id"] not in failures:
            failures[r["id"]] = (r["id"], r["cell"], r["failed"])
    return {
        "jobs": len(records), "rounds": rounds, "elapsed_s": elapsed,
        "factor": factor, "beyond_p80": beyond,
        "cell_median_ms": {c: statistics.median(v) for c, v in cells.items()},
        "failures": list(failures.values()),
        "max_cond": max((r["props"]["max_cond"] or 0.0) for r in records),
    }


# ---------------------------------------------------------------------------
# traced run


def import_ms(env: dict) -> float:
    """Median time of a fresh ``import sympindex``, in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import sympindex; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, cwd=ROOT, timeout=60,
                             check=True)
        samples.append(1e3 * float(out.stdout.strip()))
    return statistics.median(samples)


def traced(work: Workload, seconds: float, seed: int, workload: str):
    """Each job once plain and once under the wrappers, in alternating order.

    Running the pair back to back keeps machine-speed drift out of the
    overhead ratio.  For ``cli_cold`` the child process cannot be traced from
    here, so the pair is ``sympindex.cli.main`` on the same input in this
    process (warm), after the timed child.  Returns the per-layer metrics,
    the plain records and the run summary with per-cell call counts.
    """
    log = tracing.SpanLog()
    plain_s, traced_s, seq = [], [], []

    def in_process(job):
        if work.cli:
            return jobmod.run_cli_in_process(job, work.inputs[job["id"]])
        return jobmod.run_library_job(job)

    def pair(job):
        k = len(seq)
        seq.append(job)
        cold = work.run(job) if work.cli else None
        for under_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if under_trace:
                log.job_id = k
                with tracing.Installed(log):
                    t0 = time.perf_counter()
                    with log.span("job"):
                        in_process(job)
                    traced_s.append(time.perf_counter() - t0)
            else:
                plain = jobmod.timed(in_process, job)
                plain_s.append(plain[0])
        return cold or plain

    if work.cli:
        in_process(work.jobs[WARMUP_INDEX])
    gauge = speed.Gauge()
    records, elapsed, rounds = work.measure(seconds, gauge, pair)
    metrics = {"cli.run_ms": 0.0, "cli.overhead_ms": 0.0}
    if work.cli:
        metrics["cli.run_ms"] = 1e3 * statistics.fmean(plain_s)
        metrics["cli.overhead_ms"] = 1e3 * statistics.fmean(
            r["latency_s"] for r in records) - metrics["cli.run_ms"]
    metrics.update(tracing.layer_metrics(log, len(seq)))
    metrics["cli.import_ms"] = import_ms(work.env)
    metrics["trace.overhead_ratio"] = sum(traced_s) / sum(plain_s)
    factor = gauge.factor()
    for name in metrics:
        if name.endswith("_ms"):
            metrics[name] *= factor
    OUT.mkdir(exist_ok=True)
    log.save(OUT / f"spans-{workload}-{seed}.npz")
    info = summary(records, elapsed, rounds, factor)
    info["per_cell_calls"] = per_cell_counts(log, seq)
    return metrics, records, info


def per_cell_counts(log: tracing.SpanLog, seq: list[dict]) -> dict:
    """Per-cell mean calls per job of the layers the baseline quotes."""
    names = ("spectral.rho", "spectral.eigen_quadruples", "cz.winding",
             "linalg.expm", "paths.evaluate_array", "normal_form.normal_form")
    ids = {log.intern(n): n for n in names}
    per_job = [dict.fromkeys(names, 0) for _ in seq]
    for nid, job in zip(log.name, log.job):
        if nid in ids and job >= 0:
            per_job[job][ids[nid]] += 1
    for (job, key), v in log.counts.items():
        if key == "cz.winding.samples":
            per_job[job]["cz.winding.samples"] = v
    cells: dict[str, list[dict]] = {}
    for job, counts in zip(seq, per_job):
        cells.setdefault(job["cell"], []).append(counts)
    return {cell: {k: statistics.fmean(c.get(k, 0) for c in rows)
                   for k in (*names, "cz.winding.samples")}
            for cell, rows in sorted(cells.items())}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    work = Workload(args.workload, args.seed)
    warm = work.jobs[WARMUP_INDEX]
    work.run(warm)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        metrics, records, info = traced(work, args.seconds, args.seed,
                                        args.workload)
    else:
        gauge = speed.Gauge()
        records, elapsed, rounds = work.measure(args.seconds, gauge)
        factor = gauge.factor()
        metrics = end_to_end(records, factor, work.cli)
        info = summary(records, elapsed, rounds, factor)
        info["raw"] = end_to_end(records, 1.0, work.cli)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"jobs-{args.workload}-{args.seed}-t{args.trace}.jsonl",
              "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    attempted, failed = tally(records)
    result = {"correct": all(r["contract"] for r in records),
              "attempted": attempted, "failed": failed,
              "metrics": metrics, "info": info}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
