"""Running one job and checking it against its reference.

A job fails when it raises, exits non-zero (CLI), or returns a value other
than its reference; every failure counts in the failed fraction.  A failure
that breaks the library's own contract (an exception that is not a
``SympindexError``, a CLI exit code other than 0 or 2, a report that is not
the documented JSON) also makes the run's ``correct`` false, because then the
program, not just its answer, misbehaved.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from sympindex.errors import SympindexError

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 60.0
RHO_TOL = 1e-6
PARAM_TOL = 1e-6


def _mod(name: str):
    # looked up on every call so the traced run's wrappers are seen
    return importlib.import_module(name)


def run_library_job(job: dict) -> dict:
    """Parse the job's path and compute its indices; returns the outcome."""
    try:
        path = _mod("sympindex.paths").path_from_json(json.loads(job["input"]))
        if job["command"] == "cz":
            value = _mod("sympindex.cz").conley_zehnder(path).value.doubled
        else:
            rs = _mod("sympindex.rs")
            value = [rs.rs_index(path).value.doubled, rs.rs2_index(path).doubled]
    except SympindexError as exc:
        return {"kind": "error", "error": type(exc).__name__, "typed": True}
    except Exception as exc:  # noqa: BLE001 - an untyped escape is a result
        return {"kind": "error", "error": f"{type(exc).__name__}: {exc}",
                "typed": False}
    return {"kind": "value", "value": value}


def cli_argv(job: dict, input_path: str) -> list[str]:
    return ["--input", input_path, "--command", job["command"]]


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli_job(job: dict, input_path: str, env: dict) -> dict:
    """One ``python -m sympindex.cli`` child, waited for."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sympindex.cli", *cli_argv(job, input_path)],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"kind": "cli", "exit": None, "stdout": "", "stderr": "timeout"}
    return {"kind": "cli", "exit": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr[-500:]}


def run_cli_in_process(job: dict, input_path: str) -> int:
    """``sympindex.cli.main`` on the job in this process, output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return _mod("sympindex.cli").main(cli_argv(job, input_path))


def timed(fn, *args) -> tuple[float, dict]:
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


# ---------------------------------------------------------------------------
# checking


def check(job: dict, outcome: dict) -> tuple[str | None, bool]:
    """(failure reason or None, whether the library kept its contract)."""
    kind = outcome["kind"]
    if kind == "error":
        return outcome["error"], outcome["typed"]
    if kind == "value":
        if outcome["value"] != job["reference"]:
            return f"value {outcome['value']} != reference {job['reference']}", True
        return None, True
    code = outcome["exit"]
    if code != 0:
        reason = f"exit {code}: {(outcome['stdout'] or outcome['stderr']).strip()}"
        return reason[:300], code == 2
    try:
        report = json.loads(outcome["stdout"])
        ok = _cli_value_matches(job, report)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc}", False
    if not ok:
        return f"report {outcome['stdout'].strip()[:200]} != reference " \
               f"{job['reference']}", True
    return None, True


def _cli_value_matches(job: dict, report: dict) -> bool:
    command, ref = job["command"], job["reference"]
    if command in ("cz", "rs", "rs2", "maslov"):
        return report["value"] == ref
    if command == "rho":
        re, im = report["value_complex"]
        return abs(complex(re, im) - complex(*ref)) <= RHO_TOL
    return _blocks_match(report["blocks"], ref)


def _blocks_match(blocks: list[dict], ref: list) -> bool:
    """Same multiset of (case, size, order, d) with parameters within tol."""
    left = [[b["case"], b["size"], b["jordan_order"],
             [float(x) for x in b["parameters"]], b["d"]] for b in blocks]
    if len(left) != len(ref):
        return False
    for case, size, order, params, d in ref:
        for i, (c2, s2, o2, p2, d2) in enumerate(left):
            if (c2, s2, o2, d2) == (case, size, order, d) and len(p2) == len(params) \
                    and all(abs(a - b) <= PARAM_TOL for a, b in zip(p2, params)):
                del left[i]
                break
        else:
            return False
    return True
