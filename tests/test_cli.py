import csv
import json
from collections import Counter

import numpy as np
import pytest

import sympindex.spectral as spectral
from sympindex import (DEFAULT_TOL, direct_sum_many, evaluate_array,
                       first_kind_eigenvalues, make_loop, rho)
from sympindex.cli import main
from sympindex.cz import _unit_passage_times, winding


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


# exp(J0 S) has cond 5e17
ESCAPE_S = [[11, 17, -15, -7], [17, 11, 7, 20], [-15, 7, -3, 1],
            [-7, 20, 1, -25]]


def rotation_job(rate=np.pi):
    return {"n": 1, "path": {"type": "exp",
                             "S": (rate * np.eye(2)).tolist(), "T": 1.0}}


def shear_job():
    return {"n": 2, "path": {"type": "shear",
                             "B0": [[1.0, 0.0], [0.0, -2.0]],
                             "B1": [[-1.0, 0.0], [0.0, -2.0]]}}


class TestCommands:
    def test_cz(self, tmp_path, capsys):
        inp = write_json(tmp_path, "p.json", rotation_job())
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "cz")
        assert code == 0
        rep = json.loads(out)
        assert rep["command"] == "cz"
        assert rep["value"] == "1"
        assert rep["diagnostics"]["endpoint"] in ("W+", "W-")
        assert rep["diagnostics"]["rho_fallbacks"] == 0
        assert rep["diagnostics"]["krein_nudges"] == 0
        # an exponential runs no passage search and winds on 64 cells
        assert rep["diagnostics"]["passages"] == 0
        assert rep["diagnostics"]["grid_cells"] == 64
        # rho runs on one path sample and the 17 samples of the bridge of
        # the perturbed endpoint -Id
        assert rep["diagnostics"]["rho_samples"] == 1 + 17
        assert rep["diagnostics"]["perturbed"] is True
        assert rep["diagnostics"]["nf_retry"] is False

    def test_rs_and_rs2(self, tmp_path, capsys):
        inp = write_json(tmp_path, "s.json", shear_job())
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "rs")
        assert code == 0
        assert json.loads(out)["value"] == "1"
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "rs2")
        assert code == 0
        assert json.loads(out)["value"] == "1"

    def test_half_integer_rendering(self, tmp_path, capsys):
        job = {"n": 1, "path": {"type": "exp",
                                "S": [[0.5, 0.0], [0.0, 0.3]], "T": 1.0}}
        inp = write_json(tmp_path, "h.json", job)
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "rs")
        assert code == 0
        assert json.loads(out)["value"] == "1"
        job["path"]["S"] = [[0.5, 0.0], [0.0, 0.0]]
        inp = write_json(tmp_path, "h2.json", job)
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "rs")
        assert json.loads(out)["value"] == "1/2"

    def test_maslov(self, tmp_path, capsys):
        job = {"n": 2, "path": {"type": "loop", "wind": -2}}
        inp = write_json(tmp_path, "l.json", job)
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "maslov")
        assert code == 0
        rep = json.loads(out)
        assert rep["value"] == -2
        # the cz report's counters, for the winding of rho
        events = Counter()
        _unit_passage_times(make_loop(-2, 2), DEFAULT_TOL, events)
        diagnostics = rep["diagnostics"]
        assert diagnostics["passages"] == events["passages"] > 0
        assert diagnostics["grid_cells"] == 64
        assert diagnostics["rho_fallbacks"] == diagnostics["krein_nudges"] == 0
        assert diagnostics["rho_samples"] > 64

    def test_maslov_of_an_exponential_loop(self, tmp_path, capsys):
        # rho is a character on exp(t 6 pi J0): one sample, no passages
        job = {"n": 1, "path": {"type": "exp",
                                "S": (6 * np.pi * np.eye(2)).tolist()}}
        inp = write_json(tmp_path, "e.json", job)
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "maslov")
        assert code == 0
        rep = json.loads(out)
        assert rep["value"] == 3
        assert rep["diagnostics"] == {
            "grid_cells": 64, "krein_nudges": 0, "passages": 0,
            "rho_fallbacks": 0, "rho_samples": 1}

    def test_rho(self, tmp_path, capsys):
        phi = 0.8
        m = [[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]
        inp = write_json(tmp_path, "m.json", {"matrix": m})
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "rho")
        assert code == 0
        rep = json.loads(out)
        assert rep["value_complex"] == pytest.approx(
            [np.cos(phi), np.sin(phi)], abs=1e-9)
        assert len(rep["diagnostics"]["first_kind"]) == 1

    def test_rho_builds_one_spectral_summary(self, tmp_path, capsys,
                                             monkeypatch):
        # the value and the first-kind eigenvalues of a rotation (+) a
        # hyperbolic pair come from one summary, and from the library's rho
        a = direct_sum_many([np.array([[np.cos(2.1), -np.sin(2.1)],
                                       [np.sin(2.1), np.cos(2.1)]]),
                             np.diag([3.0, 1 / 3.0])])
        inp = write_json(tmp_path, "m.json", {"matrix": a.tolist()})
        calls, quadruples = [], spectral.eigen_quadruples
        monkeypatch.setattr(spectral, "eigen_quadruples", lambda *args, **kw:
                            calls.append(1) or quadruples(*args, **kw))
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "rho")
        assert code == 0 and len(calls) == 1
        value = rho(a)
        assert json.loads(out)["value_complex"] == [
            float(f"{value.real:.12g}"), float(f"{value.imag:.12g}")]
        assert json.loads(out)["diagnostics"]["first_kind"] == [
            [float(f"{z.real:.12g}"), float(f"{z.imag:.12g}")]
            for z in first_kind_eigenvalues(a)]

    def test_cz_reports_the_unit_turns(self, tmp_path, capsys):
        # an unperturbed rotation by 2.5: the extension's whole turn is the
        # unit-spectrum sum (pi - 2.5) / pi
        inp = write_json(tmp_path, "p.json", rotation_job(2.5))
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "cz")
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics["perturbed"] is False
        assert diagnostics["unit_turns"] == pytest.approx((np.pi - 2.5) / np.pi)
        assert diagnostics["unit_turns"] == diagnostics["extension_winding"]

    def test_normal_form(self, tmp_path, capsys):
        inp = write_json(tmp_path, "nf.json",
                         {"matrix": [[2.0, 0.0], [0.0, 0.5]]})
        code, out, _ = run_cli(capsys, "--input", inp,
                               "--command", "normal-form")
        assert code == 0
        rep = json.loads(out)
        (blk,) = rep["blocks"]
        assert blk["case"] == "OffCircleReal"
        assert blk["parameters"] == pytest.approx([2.0])
        assert rep["residual"] < 1e-9


class TestTraces:
    def test_cz_trace_csv(self, tmp_path, capsys):
        inp = write_json(tmp_path, "p.json", rotation_job())
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "--input", inp, "--command", "cz",
                             "--trace", str(trace))
        assert code == 0
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "phase_rho2", "smin_psi_minus_id"]
        assert float(rows[1][0]) == 0.0
        assert float(rows[-1][0]) == 1.0
        # full turn of rho^2 for exp(t pi J0)
        assert float(rows[-1][1]) == pytest.approx(2 * np.pi, abs=1e-9)

    def test_rs_trace_csv(self, tmp_path, capsys):
        job = {"n": 1, "path": {"type": "loop", "wind": 1}}
        inp = write_json(tmp_path, "l.json", job)
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "--input", inp, "--command", "rs",
                             "--trace", str(trace))
        assert code == 0
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        # the samples of the Souriau winding: arg det W turns twice for a
        # loop of rs index 2 that starts and ends on the diagonal
        assert rows[0] == ["t", "phase_det_w"]
        assert len(rows) > 64
        assert [float(x) for x in rows[1]] == [0.0, 0.0]
        assert float(rows[-1][0]) == 1.0
        assert float(rows[-1][1]) == pytest.approx(4 * np.pi, abs=1e-9)

    @pytest.mark.parametrize("wind,n", [(1, 1), (2, 2)])
    def test_maslov_trace_is_the_valued_winding(self, tmp_path, capsys,
                                                wind, n):
        # the rows are the samples of the anchored rho winding that gave
        # the value, not of a second, unanchored one
        inp = write_json(tmp_path, "l.json",
                         {"n": n, "path": {"type": "loop", "wind": wind}})
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "maslov",
                               "--trace", str(trace))
        assert code == 0
        assert json.loads(out)["value"] == wind
        path = make_loop(wind, n)
        turns, samples, _ = winding(
            lambda ts: np.array([rho(evaluate_array(path, t)) for t in ts]),
            anchor_ts=_unit_passage_times(path, DEFAULT_TOL, Counter()))
        assert round(turns) == wind
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "phase_rho", "smin_psi_minus_id"]
        assert [(float(t), float(p)) for t, p, _ in rows[1:]] == [
            (float(f"{t:.12g}"), float(f"{p:.12g}")) for t, p in samples]


class TestErrorsAndDeterminism:
    def test_contract_error_exit_2(self, tmp_path, capsys):
        inp = write_json(tmp_path, "bad.json",
                         {"matrix": [[2.0, 0.0], [0.0, 2.0]]})
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "rho")
        assert code == 2
        rep = json.loads(out)
        assert "error" in rep and "message" in rep

    def test_degenerate_endpoint_exit_2(self, tmp_path, capsys):
        job = {"n": 1, "path": {"type": "exp",
                                "S": [[0.0, 0.0], [0.0, 0.0]]}}
        inp = write_json(tmp_path, "deg.json", job)
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "cz")
        assert code == 2
        assert json.loads(out)["error"]

    def test_singular_endpoint_solve_is_no_input_error(self, tmp_path,
                                                       capsys):
        # the endpoint has cond 5e17; its inverse once came from a solve
        # that raised numpy's LinAlgError, reported as an input error
        job = {"n": 2, "path": {"type": "exp", "S": ESCAPE_S}}
        inp = write_json(tmp_path, "escape.json", job)
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "cz")
        assert code in (0, 2)
        if code == 0:
            assert json.loads(out)["value"] == "0"

    def test_eigenvalue_rounding_to_zero_exit_2(self, tmp_path, capsys):
        job = {"n": 1, "path": {"type": "exp",
                                "S": [[-12.49052763, 12.03765861],
                                      [12.03765861, 16.53431942]]}}
        inp = write_json(tmp_path, "illcond.json", job)
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "cz")
        assert code == 2
        rep = json.loads(out)
        assert rep["error"] and rep["message"]

    def test_overflowing_normal_form_exit_2(self, tmp_path, capsys):
        # a power of A - 1e200 overflows; its SVD once did not return
        inp = write_json(tmp_path, "huge.json",
                         {"matrix": np.diag([1e200, 1e200, 1e-200,
                                             1e-200]).tolist()})
        code, out, err = run_cli(capsys, "--input", inp,
                                 "--command", "normal-form")
        assert (code, err) == (2, "")
        assert json.loads(out)["error"] == "ill-conditioned-spectrum"

    @pytest.mark.parametrize("obj", [
        {"n": 1, "path": 3},
        {"n": 1, "path": {"type": "exp"}},
        {"n": 1, "path": {"type": "loop", "wind": 1.5}},
    ])
    def test_malformed_path_exit_2(self, tmp_path, capsys, obj):
        inp = write_json(tmp_path, "path.json", obj)
        code, out, err = run_cli(capsys, "--input", inp, "--command", "maslov")
        assert (code, err) == (2, "")
        assert json.loads(out)["error"] == "parameter"

    @pytest.mark.parametrize("flag,value", [
        ("--tol-eig", "nan"), ("--tol-form", "inf"), ("--tol-kernel", "nan")])
    def test_non_finite_tolerance_exit_2(self, tmp_path, capsys, flag,
                                         value):
        inp = write_json(tmp_path, "p.json", rotation_job())
        code, out, err = run_cli(capsys, "--input", inp, "--command", "cz",
                                 flag, value)
        assert (code, err) == (2, "")
        assert json.loads(out)["error"] == "parameter"

    def test_parse_errors_exit_1(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _, err = run_cli(capsys, "--input", str(p), "--command", "cz")
        assert code == 1 and err
        code, _, err = run_cli(capsys, "--input", str(tmp_path / "nope.json"),
                               "--command", "cz")
        assert code == 1 and err
        inp = write_json(tmp_path, "nomat.json", {"foo": 1})
        code, _, err = run_cli(capsys, "--input", inp, "--command", "rho")
        assert code == 1 and err

    def test_matrix_input_not_an_object_exit_1(self, tmp_path, capsys):
        inp = write_json(tmp_path, "number.json", 3)
        code, out, err = run_cli(capsys, "--input", inp, "--command", "rho")
        assert (code, out) == (1, "") and "'matrix'" in err

    def test_bad_flags_exit_1(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "--command", "cz")
        assert code == 1
        inp = write_json(tmp_path, "p.json", rotation_job())
        code, _, _ = run_cli(capsys, "--input", inp, "--command", "bogus")
        assert code == 1

    def test_output_is_byte_identical(self, tmp_path, capsys):
        inp = write_json(tmp_path, "p.json", rotation_job())
        _, out1, _ = run_cli(capsys, "--input", inp, "--command", "cz")
        _, out2, _ = run_cli(capsys, "--input", inp, "--command", "cz")
        assert out1 == out2
        rep = json.loads(out1)
        assert out1 == json.dumps(rep, sort_keys=True,
                                  separators=(",", ":")) + "\n"
