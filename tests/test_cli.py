import csv
import json
from collections import Counter

import numpy as np
import pytest

from sympindex import evaluate_array, make_loop, rho
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
        assert json.loads(out)["value"] == -2

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
            anchor_ts=_unit_passage_times(path, Counter()))
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

    def test_eigenvalue_rounding_to_zero_exit_2(self, tmp_path, capsys):
        job = {"n": 1, "path": {"type": "exp",
                                "S": [[-12.49052763, 12.03765861],
                                      [12.03765861, 16.53431942]]}}
        inp = write_json(tmp_path, "illcond.json", job)
        code, out, _ = run_cli(capsys, "--input", inp, "--command", "cz")
        assert code == 2
        rep = json.loads(out)
        assert rep["error"] and rep["message"]

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
