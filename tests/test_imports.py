"""scipy is imported only where a matrix is exponentiated or logged.

The matrix commands (rho, normal-form) and loop paths (maslov) never load
it, so a cold command line job skips its import; ``ExpPath``,
``SampledPath`` and ``random_symplectic`` load it on first use.  Each import
check runs in a fresh interpreter, since this test process has imported
scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from sympindex import ExpPath, evaluate_stack

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter with the package on its path; it
    prints a JSON object as its last line, to which ``scipy`` is added."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = code + "\nimport json as _j, sys as _s\n" \
        "print(_j.dumps(dict(result, scipy='scipy' in _s.modules)))\n"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_scipy_out():
    assert run_fresh("import sympindex\nresult = {}") == {"scipy": False}


@pytest.mark.parametrize("command,job,key,value", [
    ("rho", {"matrix": [[0.0, -1.0], [1.0, 0.0]]},
     "value_complex", [0.0, 1.0]),
    ("normal-form", {"matrix": [[2.0, 0.0], [0.0, 0.5]]},
     "blocks", [{"case": "OffCircleReal", "d": None, "jordan_order": 1,
                 "parameters": [2.0], "size": 2}]),
    ("maslov", {"n": 2, "path": {"type": "loop", "wind": -2}}, "value", -2),
])
def test_commands_without_exponentials_leave_scipy_out(tmp_path, command, job,
                                                        key, value):
    inp = tmp_path / "job.json"
    inp.write_text(json.dumps(job))
    out = run_fresh(
        "import contextlib, io, json\n"
        "from sympindex.cli import main\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        f"    code = main(['--input', {str(inp)!r}, '--command', {command!r}])\n"
        "result = dict(code=code, report=json.loads(buf.getvalue()))\n")
    assert out["code"] == 0
    assert out["report"][key] == value
    assert out["scipy"] is False


@pytest.mark.parametrize("code,value", [
    ("from sympindex import ExpPath, conley_zehnder\n"
     "import numpy as np\n"
     "result = dict(value=str(conley_zehnder("
     "ExpPath(np.pi * np.eye(2))).value))\n", "1"),
    ("from sympindex import SampledPath, evaluate_array\n"
     "import numpy as np\n"
     "def rot(a):\n"
     "    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])\n"
     "path = SampledPath(np.array([0.0, 0.5, 1.0]),\n"
     "                   (rot(0.0), rot(0.1), rot(0.2)))\n"
     "mid = evaluate_array(path, 0.25)\n"
     "result = dict(value=bool(np.allclose(mid, rot(0.05), atol=1e-12)))\n",
     True),
    ("from sympindex import is_symplectic, random_symplectic\n"
     "result = dict(value=bool(is_symplectic(random_symplectic(2, seed=3))))\n",
     True),
])
def test_exponentials_load_scipy(code, value):
    assert run_fresh(code) == {"value": value, "scipy": True}


def test_an_exp_stack_is_one_expm_call(monkeypatch):
    # the benchmark tracer wraps scipy.linalg.expm, so every call must go
    # through the module attribute: an exponential node certifies its
    # eigendecomposition with one call however many stacks it evaluates, and
    # a node that keeps scipy's route (a hyperbolic rate of 20) makes one
    # call per stack
    calls, expm = [], sla.expm

    def counting(a):
        calls.append(np.shape(a))
        return expm(a)

    monkeypatch.setattr(sla, "expm", counting)
    ts = np.array([0.0, 0.25, 0.5, 1.0])
    path = ExpPath(np.diag([1.0, 2.0, 3.0, 4.0]))
    evaluate_stack(path, ts)
    evaluate_stack(path, [0.125, 0.75])
    assert path._route is not None
    assert calls == [(4, 4)]
    calls.clear()
    fast = ExpPath(np.diag([20.0, -20.0]))
    stack = evaluate_stack(fast, ts)
    evaluate_stack(fast, [0.125, 0.75])
    assert fast._route is None
    assert calls == [(4, 2, 2), (2, 2, 2)]
    assert stack.tobytes() == expm(ts[:, None, None] * fast._js).tobytes()
