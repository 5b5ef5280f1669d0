"""Batch command line front end.

Reads a JSON job input, runs one computation (cz, rs, rs2, maslov, rho,
normal-form) and prints a deterministic JSON report to stdout.  Optional CSV
traces: for cz/maslov the unwrapped phase samples (with the distance of
psi_t to the identity), for rs/rs2 the unwrapped phase of det W, the
samples of the Souriau winding.

Exit codes: 0 success, 1 parse/usage errors, 2 library contract errors
(reported as machine-readable JSON on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import SympindexError
from .cz import _loop_winding, conley_zehnder
# none is called here, but bench/tracing.py wraps sympindex.cli.winding,
# sympindex.cli.lagrangian_rs_index and sympindex.cli.evaluate_array
from .cz import winding  # noqa: F401
from .lagrangian import lagrangian_rs_index  # noqa: F401
from .normal_form import normal_form
from .paths import evaluate_array  # noqa: F401
from .paths import evaluate_stack, path_from_json
from .rs import _rs2, rs_index
from .spectral import rho
from .tolerances import DEFAULT_TOL

__all__ = ["main", "run"]

_PATH_COMMANDS = {"cz", "rs", "rs2", "maslov"}
_MATRIX_COMMANDS = {"rho", "normal-form"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympindex",
        description="Indices of symplectic paths and normal forms of "
                    "symplectic matrices.")
    parser.add_argument("--input", required=True,
                        help="JSON file holding the path or matrix")
    parser.add_argument("--command", required=True,
                        choices=sorted(_PATH_COMMANDS | _MATRIX_COMMANDS))
    parser.add_argument("--tol-eig", type=float, default=None)
    parser.add_argument("--tol-kernel", type=float, default=None)
    parser.add_argument("--tol-form", type=float, default=None)
    parser.add_argument("--max-refine", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", default=None,
                        help="write a CSV trace next to the report")
    return parser


def _load_input(path: str, command: str):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if command in _MATRIX_COMMANDS:
        if not isinstance(obj, dict) or "matrix" not in obj:
            raise ValueError(f"command {command!r} needs a 'matrix' entry")
        return np.array(obj["matrix"], dtype=float)
    return path_from_json(obj)


def _fmt_float(x: float) -> float:
    return float(f"{float(x):.12g}")


def _write_csv(path: str, header: list[str], rows) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v
                             for v in row])


def _write_winding_csv(path: str, column: str, path_spec, trace) -> None:
    """The (t, phase) samples of a winding, with sigma_min(psi_t - Id)."""
    stack = evaluate_stack(path_spec, [t for t, _ in trace])
    smins = np.linalg.svd(stack - np.eye(2 * path_spec.n),
                          compute_uv=False)[:, -1]
    rows = [(float(t), float(phase), float(smin))
            for (t, phase), smin in zip(trace, smins)]
    _write_csv(path, ["t", column, "smin_psi_minus_id"], rows)


def _run_cz(path_spec, tol, seed, trace_file):
    result = conley_zehnder(path_spec, tol, seed=seed)
    if trace_file:
        _write_winding_csv(trace_file, "phase_rho2", path_spec,
                           result.winding_trace)
    return {
        "value": str(result.value),
        "diagnostics": {
            "endpoint": result.endpoint,
            "extension_winding": _fmt_float(result.extension_winding),
            "det_gap": _fmt_float(result.diagnostics["det_gap"]),
            "refinement_depth": result.diagnostics["refinement_depth"],
            "grid_cells": result.diagnostics["grid_cells"],
            "rho_fallbacks": result.diagnostics["rho_fallbacks"],
            "krein_nudges": result.diagnostics["krein_nudges"],
            "passages": result.diagnostics["passages"],
            "rho_samples": result.diagnostics["rho_samples"],
            "perturbed": result.diagnostics["perturbed"],
            "nf_retry": result.diagnostics["nf_retry"],
            "unit_turns": _fmt_float(result.diagnostics["unit_turns"]),
        },
    }


def _run_crossing_index(index, path_spec, tol, trace_file):
    """Report of a crossing-form index, writing its winding if asked."""
    result = index(path_spec, tol)
    if trace_file:
        _write_csv(trace_file, ["t", "phase_det_w"],
                   [(float(t), float(p)) for t, p in result.trace])
    return {
        "value": str(result.value),
        "diagnostics": {
            "crossings": [
                {"t": _fmt_float(c.t), "kernel_dim": c.kernel_dim,
                 "signature": c.signature, "regular": c.regular,
                 "weight": c.weight}
                for c in result.crossings
            ],
        },
    }


def _run_maslov(path_spec, tol, trace_file):
    value, trace, cells, events = _loop_winding(path_spec, tol)
    if trace_file:
        _write_winding_csv(trace_file, "phase_rho", path_spec, trace)
    diagnostics = {"grid_cells": cells}
    for key in ("rho_fallbacks", "krein_nudges", "passages", "rho_samples"):
        diagnostics[key] = events[key]
    return {"value": value, "diagnostics": diagnostics}


def _run_rho(matrix, tol):
    value, first = rho(matrix, tol, first_kind=True)
    return {
        "value_complex": [_fmt_float(value.real), _fmt_float(value.imag)],
        "diagnostics": {
            "first_kind": [[_fmt_float(z.real), _fmt_float(z.imag)]
                           for z in first],
        },
    }


def _run_normal_form(matrix, tol):
    report = normal_form(matrix, tol)
    return {
        "blocks": [
            {"case": b.case, "size": b.size, "jordan_order": b.jordan_order,
             "parameters": [_fmt_float(x) for x in b.lambda_param],
             "d": b.d}
            for b in report.blocks
        ],
        "residual": _fmt_float(report.residual),
        "diagnostics": {},
    }


def run(args) -> dict:
    """Execute a parsed request and return the report dictionary."""
    tol = DEFAULT_TOL.with_overrides(
        tol_eig=args.tol_eig, tol_kernel=args.tol_kernel,
        tol_form=args.tol_form, max_refine=args.max_refine)
    payload = _load_input(args.input, args.command)

    if args.command == "cz":
        body = _run_cz(payload, tol, args.seed, args.trace)
    elif args.command in ("rs", "rs2"):
        body = _run_crossing_index(rs_index if args.command == "rs" else _rs2,
                                   payload, tol, args.trace)
    elif args.command == "maslov":
        body = _run_maslov(payload, tol, args.trace)
    elif args.command == "rho":
        body = _run_rho(payload, tol)
    else:
        body = _run_normal_form(payload, tol)

    report = {"command": args.command, "seed": args.seed}
    report.update(body)
    return report


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 1
    try:
        report = run(args)
    except SympindexError as exc:
        sys.stdout.write(json.dumps(
            {"error": exc.code, "message": str(exc)},
            sort_keys=True, separators=(",", ":")) + "\n")
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    sys.stdout.write(json.dumps(report, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
