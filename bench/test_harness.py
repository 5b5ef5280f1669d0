"""Tests of the benchmark harness itself.

Run from the root of the checkout:  python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import jobs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sympindex import cz_dim2_closed_form  # noqa: E402


# ---------------------------------------------------------------------------
# the checker

CZ_JOB = {"id": 0, "cell": "n1_r3", "command": "cz", "reference": 2}


def test_checker_passes_the_reference_value():
    assert jobs.check(CZ_JOB, {"kind": "value", "value": 2}) == (None, True)


def test_checker_counts_a_wrong_index_as_failed():
    reason, contract = jobs.check(CZ_JOB, {"kind": "value", "value": 4})
    assert reason is not None and contract


def test_checker_counts_a_typed_error_as_failed():
    job = dict(CZ_JOB, input=json.dumps({"n": 1, "path": {"type": "bogus"}}))
    outcome = jobs.run_library_job(job)
    assert outcome == {"kind": "error", "error": "ParameterError", "typed": True}
    reason, contract = jobs.check(job, outcome)
    assert reason == "ParameterError" and contract


def test_checker_flags_an_untyped_error_as_a_contract_breach():
    job = dict(CZ_JOB, input="{not json")
    reason, contract = jobs.check(job, jobs.run_library_job(job))
    assert reason is not None and not contract


@pytest.mark.parametrize("code,contract", [(2, True), (1, False)])
def test_checker_counts_a_nonzero_cli_exit_as_failed(code, contract):
    job = dict(CZ_JOB, reference="1")
    outcome = {"kind": "cli", "exit": code, "stdout": '{"error":"x"}',
               "stderr": ""}
    reason, kept = jobs.check(job, outcome)
    assert reason is not None and kept == contract


def test_checker_compares_cli_reports():
    rho = {"command": "rho", "reference": [0.0, 1.0]}
    ok = {"kind": "cli", "exit": 0, "stderr": "",
          "stdout": '{"value_complex": [1e-9, 1.0]}'}
    assert jobs.check(rho, ok) == (None, True)
    bad = dict(ok, stdout='{"value_complex": [0.0, -1.0]}')
    assert jobs.check(rho, bad)[0] is not None
    blocks = {"command": "normal-form",
              "reference": [["OffCircleReal", 2, 1, [2.0], None],
                            ["UnitNonRealOdd", 2, 1, [-0.5], None]]}
    report = {"blocks": [
        {"case": "UnitNonRealOdd", "size": 2, "jordan_order": 1,
         "parameters": [-0.5000000001], "d": None},
        {"case": "OffCircleReal", "size": 2, "jordan_order": 1,
         "parameters": [2.0], "d": None}]}
    out = dict(ok, stdout=json.dumps(report))
    assert jobs.check(blocks, out) == (None, True)
    report["blocks"][0]["parameters"] = [0.5]
    assert jobs.check(blocks, dict(ok, stdout=json.dumps(report)))[0] is not None
    assert jobs.check(blocks, dict(ok, stdout="[]"))[1] is False


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_time_on_a_synthetic_span_tree():
    # 0: root [0, 10]; 1: [1, 3] and 2: [2, 5] overlap; 3: [6, 7];
    # 4: [1.5, 2] under 1; 5: [9, 12] sticks out of the root
    start = [0.0, 1.0, 2.0, 6.0, 1.5, 9.0]
    end = [10.0, 3.0, 5.0, 7.0, 2.0, 12.0]
    parent = [-1, 0, 0, 0, 1, 0]
    got = tracing.self_times(start, end, parent)
    # root: children cover [1, 5] + [6, 7] + [9, 10] = 6
    assert got == pytest.approx([4.0, 1.5, 3.0, 1.0, 0.5, 3.0])


def test_span_log_nests_and_restores_wrappers():
    import sympindex.cz as cz
    import sympindex.spectral as spectral

    before = (cz.rho, cz.winding, spectral.rho)
    log = tracing.SpanLog()
    job = {"command": "cz", "reference": 2,
           "input": json.dumps({"n": 1, "path": {
               "type": "exp", "S": [[3.0, 0.0], [0.0, 3.0]], "T": 1.0}})}
    with tracing.Installed(log):
        assert cz.rho is spectral.rho  # one wrapper per function
        log.job_id = 0
        with log.span("job"):
            assert jobs.run_library_job(job) == {"kind": "value", "value": 2}
    assert (cz.rho, cz.winding, spectral.rho) == before
    metrics = tracing.layer_metrics(log, 1)
    assert metrics["cz.winding.calls"] == 6
    assert metrics["spectral.rho.calls"] > 0
    assert metrics["spectral.eigen_quadruples.per_rho"] >= 1
    assert metrics["rs.rs_index.self_ms"] == 0
    assert metrics["linalg.expm.calls"] > 0


# ---------------------------------------------------------------------------
# inputs and references


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fixed_seed_regenerates_identical_inputs(workload):
    a = json.dumps(workloads.make_jobs(workload, 7, 2)).encode()
    b = json.dumps(workloads.make_jobs(workload, 7, 2)).encode()
    c = json.dumps(workloads.make_jobs(workload, 8, 2)).encode()
    assert a == b
    assert a != c


def test_block_references_match_the_library_closed_form():
    rng = np.random.default_rng(0)
    for radius in (3.0, 12.0):
        for block in workloads.draw_blocks(rng, 8, radius, 4):
            expected = cz_dim2_closed_form(np.diag(block["diag"]), 1.0)
            assert workloads.cz_block(block) == expected.doubled


def test_elliptic_count_keeps_the_binomial_mix():
    counts = [workloads.extra_elliptic(r, 64, 8) for r in range(64)]
    assert all(0 <= k <= 7 for k in counts)
    assert abs(sum(counts) / 64 - 3.5) < 0.1
    # every prefix is close to the mean: the schedule is low-discrepancy
    assert abs(sum(counts[:8]) / 8 - 3.5) < 0.5
    # a pool of four rounds takes the binomial's quartile midpoints
    assert sorted(workloads.extra_elliptic(r, 4, 8) for r in range(4)) == \
        [2, 3, 4, 5]


def test_extra_frequencies_are_stratified():
    rng = np.random.default_rng(1)
    blocks = workloads.draw_blocks(rng, 8, 12.0, 7)
    slices = sorted(int((b["w"] / 12.0 - 0.3) / 0.1) for b in blocks[1:])
    assert slices == list(range(7))


def test_rs2_reference_counts_vertical_crossings():
    # exp(t J0 diag(a, b)) maps the vertical back onto itself at t = k pi / w
    block = {"kind": "elliptic", "w": 4.0, "diag": (2.0, 8.0)}
    assert workloads.rs2_block(block) == 1 + 2 * 1
    flipped = {"kind": "hyperbolic", "w": 1.0, "diag": (1.0, -1.0)}
    assert workloads.rs2_block(flipped) == -1


def _record(job_id, cell, latency_s, failed=None):
    return {"id": job_id, "cell": cell, "latency_s": latency_s,
            "failed": failed}


def test_pool_jobs_are_counted_once_however_often_they_run():
    import worker

    records = [_record(i % 3, "a", 0.1, "wrong" if i % 3 == 2 else None)
               for i in range(7)]
    assert worker.tally(records) == (3, 1)
    metrics = worker.end_to_end(records, 1.0, False)
    assert metrics["correct_fraction"] == pytest.approx(2 / 3)
    # jobs per second of job time counts the correct executions
    assert metrics["jobs_per_s"] == pytest.approx(5 / 0.7)


def test_cell_percentiles_and_gauge_scaling():
    import worker

    records = [_record(i, "small", 0.01 * (1 + i % 2)) for i in range(10)] + \
        [_record(10 + i, "large", 1.0) for i in range(10)]
    plain = worker.end_to_end(records, 1.0, False)
    # geometric mean of the cells' medians: sqrt(15 ms x 1000 ms)
    assert plain["latency_p50_ms"] == pytest.approx((15.0 * 1000.0) ** 0.5)
    scaled = worker.end_to_end(records, 0.5, False)
    assert scaled["latency_p50_ms"] == pytest.approx(0.5 * plain["latency_p50_ms"])
    assert scaled["jobs_per_s"] == pytest.approx(2.0 * plain["jobs_per_s"])


def test_reported_metric_names_match_benchmark_json():
    import worker

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = set(worker.end_to_end([_record(0, "a", 0.1)], 1.0,
                                False)) | {"setup_s"}
    assert e2e == {m["name"] for m in spec["end_to_end"]}
    layer = set(tracing.layer_metrics(tracing.SpanLog(), 1)) | {
        "cli.run_ms", "cli.overhead_ms", "cli.import_ms",
        "trace.overhead_ratio"}
    assert layer == {m["name"] for m in spec["per_layer"]}
