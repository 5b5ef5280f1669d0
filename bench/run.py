"""Benchmark of the sympindex library and CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload cz_exp --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of the workload; ``--trace 1``
prints the per-layer metrics of a separate traced run.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The lines before it are a human-readable summary.

Set-up time is measured from outside: this script starts the worker process
``SETUPS`` times, times each from its start to its ``ready`` line (imports,
input generation, one untimed warm-up job) and reports the median; only the
last worker goes on to measure.  Like every time the benchmark reports,
it is scaled to the reference machine speed (``speed.py``), from
calibration slices run here before each start.

The process pins itself to one CPU, which the workers and their children
inherit, and BLAS to one thread, the matrices being at most 16 x 16.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# before numpy is imported, so the gauge here runs as it does in the worker
os.environ.update(dict.fromkeys(BLAS_VARS, BLAS_THREADS))

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import speed  # noqa: E402

WORKER = ROOT / "bench" / "worker.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUPS = 5
SLICES_PER_SETUP = 6
DEADLINE_S = 175.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="sympindex benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def start_worker(args, setup_only: bool, env: dict, deadline: float):
    """Start one worker; return (seconds to its ready line, process)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=env)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not set up (exit {proc.returncode})")
    return ready, proc


def finish(proc, deadline: float) -> str:
    """Wait for a worker until the deadline; kill it after that."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def print_summary(args, info: dict, metrics: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"BLAS threads {BLAS_THREADS}")
    print(f"jobs {info['jobs']} in {info['rounds']} rounds, "
          f"{info['elapsed_s']:.1f} s; {info['beyond_p80']} samples beyond "
          f"the cells' p80; max cond(psi_t) {info['max_cond']:.3g}; "
          f"speed factor {info['factor']:.4f}")
    for cell, ms in sorted(info["cell_median_ms"].items()):
        print(f"  {cell:>16}  median {ms:9.1f} ms")
    for job_id, cell, reason in info["failures"]:
        print(f"  FAILED job {job_id} ({cell}): {reason}")
    for name, value in metrics.items():
        raw = info.get("raw", {}).get(name)
        raw = "" if raw is None else f"   (unscaled {raw:.6g})"
        print(f"  {name:<44} {value:14.6g} {UNITS[name]}{raw}")
    if args.trace:
        print("no layer has a wait time: one thread, one job at a time, "
              "no queues")
        if args.workload != "cli_cold":
            print("cli.run_ms and cli.overhead_ms are 0: this workload makes "
                  "no CLI calls")
        for cell, counts in info["per_cell_calls"].items():
            row = "  ".join(f"{k.split('.')[-1]} {v:.1f}"
                            for k, v in counts.items())
            print(f"  {cell:>16}  {row}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # one CPU for this process, the gauge, the workers and their children
    # (they inherit it): the cores of a shared host are not equally
    # contended, and the gauge must read the core the jobs run on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "sympindex" / "__init__.py").is_file():
        sys.stderr.write("src/sympindex not found: run from a full checkout\n")
        return 2
    env = dict(os.environ)
    setups = []
    count = 1 if args.trace else SETUPS
    gauge = speed.Gauge()
    try:
        for i in range(count):
            gauge.slice(SLICES_PER_SETUP)
            ready, proc = start_worker(args, i < count - 1, env, deadline)
            setups.append(ready)
            if i < count - 1:
                finish(proc, deadline)
        out = finish(proc, deadline)
        result = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups) * gauge.factor()
        result["info"]["raw"]["setup_s"] = statistics.median(setups)
    print_summary(args, result["info"], metrics)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
