"""Spans around calls into the library's layers, installed from outside.

The library has no counters of its own yet, so the traced run replaces the
functions its modules call with timing wrappers.  A wrapper goes where the
caller looks the name up at call time: ``cz`` binds ``rho``, ``normal_form``,
``evaluate_array`` and others at import, so ``sympindex.cz.rho`` is wrapped
as well as ``sympindex.spectral.rho``.  numpy and scipy kernels are looked up
through their modules (``np.linalg.svd``, ``sla.expm``) on every call, so
wrapping the module attribute reaches every caller.

Spans (name, start, end, parent, job) are kept in flat arrays and written
out when the run ends.  The process is single-threaded and has no queues, so
no layer ever waits: self time is the whole story.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

# span name -> the (module, attribute) pairs its callers look it up through
TARGETS = {
    "cz.conley_zehnder": [("sympindex.cz", "conley_zehnder"),
                          ("sympindex.cli", "conley_zehnder")],
    "cz.winding": [("sympindex.cz", "winding"), ("sympindex.cli", "winding")],
    "spectral.rho": [("sympindex.spectral", "rho"), ("sympindex.cz", "rho"),
                     ("sympindex.cli", "rho")],
    "spectral.eigen_quadruples": [("sympindex.spectral", "eigen_quadruples"),
                                  ("sympindex.normal_form", "eigen_quadruples")],
    "spectral.krein_form": [("sympindex.spectral", "krein_form")],
    "core.rho_polar": [("sympindex.core", "rho_polar"),
                       ("sympindex.cz", "rho_polar")],
    "core.rho_hat": [("sympindex.core", "rho_hat"), ("sympindex.cz", "rho_hat")],
    "normal_form.normal_form": [("sympindex.normal_form", "normal_form"),
                                ("sympindex.cz", "normal_form"),
                                ("sympindex.cli", "normal_form")],
    "normal_form.semisimple_perturb": [
        ("sympindex.normal_form", "semisimple_perturb"),
        ("sympindex.cz", "semisimple_perturb")],
    "paths.evaluate_array": [("sympindex.paths", "evaluate_array"),
                             ("sympindex.cz", "evaluate_array"),
                             ("sympindex.rs", "evaluate_array"),
                             ("sympindex.cli", "evaluate_array")],
    "paths.path_from_json": [("sympindex.paths", "path_from_json"),
                             ("sympindex.cli", "path_from_json")],
    "rs.rs_index": [("sympindex.rs", "rs_index"), ("sympindex.cli", "rs_index")],
    "rs.rs2_index": [("sympindex.rs", "rs2_index")],
    "lagrangian.lagrangian_rs_index": [
        ("sympindex.lagrangian", "lagrangian_rs_index"),
        ("sympindex.rs", "lagrangian_rs_index"),
        ("sympindex.cli", "lagrangian_rs_index")],
    "linalg.expm": [("scipy.linalg", "expm")],
    "linalg.logm": [("scipy.linalg", "logm")],
    "linalg.eig": [("numpy.linalg", "eig"), ("numpy.linalg", "eigvals")],
    "linalg.svd": [("numpy.linalg", "svd")],
}


class SpanLog:
    """Spans in flat arrays, plus per-job counters the spans cannot carry."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.failed = array("b")
        self._stack: list[int] = []
        self.job_id = -1
        self.counts: dict[tuple[int, str], float] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, failed: bool = False) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[i] = 1

    def add(self, key: str, value: float = 1.0) -> None:
        k = (self.job_id, key)
        self.counts[k] = self.counts.get(k, 0.0) + value

    def raise_to(self, key: str, value: float) -> None:
        k = (self.job_id, key)
        self.counts[k] = max(self.counts.get(k, 0.0), value)

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around a block, for the benchmark's own use."""
        i = self.open(self.intern(name))
        failed = True
        try:
            yield
            failed = False
        finally:
            self.close(i, failed)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, "i4"),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, "i4"),
            job=np.frombuffer(self.job, "i4"),
            failed=np.frombuffer(self.failed, "i1"))


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children are clipped to their parent and overlapping children are
    counted once, so the arithmetic holds for any span tree, not only for
    the strictly nested sequential spans a single thread produces.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            s, e = max(start[c], start[i]), min(end[c], end[i])
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out.append(end[i] - start[i] - covered)
    return out


# ---------------------------------------------------------------------------
# wrappers


def _plain(log: SpanLog, name_id: int, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = log.open(name_id)
        failed = True
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            log.close(i, failed)
    return wrapper


def _winding(log: SpanLog, name_id: int, fn):
    """Counts calls to the circle map passed in and the refinement depth."""
    timed = _plain(log, name_id, fn)

    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        def counted(t):
            log.add("cz.winding.samples")
            return f(t)

        out = timed(counted, *args, **kwargs)
        log.raise_to("cz.winding.max_depth", out[2])
        return out
    return wrapper


def _evaluate_array(log: SpanLog, name_id: int, fn):
    """Counts memo hits by looking the clamped parameter up first."""
    timed = _plain(log, name_id, fn)

    @functools.wraps(fn)
    def wrapper(path, t):
        if -1e-12 <= t <= 1.0 + 1e-12 and \
                min(max(float(t), 0.0), 1.0) in path._cache:
            log.add("paths.evaluate_array.hits")
        return timed(path, t)
    return wrapper


_FACTORIES = {"cz.winding": _winding, "paths.evaluate_array": _evaluate_array}


class Installed:
    """Wrappers in place of every TARGETS entry; ``restore`` undoes them."""

    def __init__(self, log: SpanLog):
        self._saved = []
        wrapped = {}  # id(original) -> wrapper, so one function gets one wrapper
        try:
            for name, places in TARGETS.items():
                name_id = log.intern(name)
                factory = _FACTORIES.get(name, _plain)
                for module_name, attr in places:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    if id(original) not in wrapped:
                        wrapped[id(original)] = factory(log, name_id, original)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapped[id(original)])
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics


# span name -> the per-job aggregates reported for it
REPORTED = {
    "cz.conley_zehnder": ("self_ms",),
    "cz.winding": ("calls", "self_ms"),
    "spectral.rho": ("calls", "self_ms", "failed"),
    "spectral.eigen_quadruples": ("calls", "self_ms"),
    "spectral.krein_form": ("calls", "failed"),
    "core.rho_polar": ("calls", "self_ms"),
    "core.rho_hat": ("calls", "self_ms"),
    "normal_form.normal_form": ("calls", "self_ms", "failed"),
    "normal_form.semisimple_perturb": ("self_ms",),
    "paths.evaluate_array": ("calls", "self_ms"),
    "paths.path_from_json": ("self_ms",),
    "rs.rs_index": ("self_ms",),
    "rs.rs2_index": ("self_ms",),
    "lagrangian.lagrangian_rs_index": ("self_ms",),
    "linalg.expm": ("calls", "self_ms"),
    "linalg.logm": ("calls",),
    "linalg.eig": ("calls",),
    "linalg.svd": ("calls", "self_ms"),
}
# spans whose direct evaluate_array children are reported as evaluations
SCANS = ("rs.rs_index", "lagrangian.lagrangian_rs_index")


def layer_metrics(log: SpanLog, jobs: int) -> dict[str, float]:
    """Per-job averages of span counts, self times and counters."""
    selfs = self_times(log.start, log.end, log.parent)
    by_id = {log.intern(name): name for name in TARGETS}
    total = {(name, what): 0.0 for name in TARGETS
             for what in ("calls", "self_ms", "failed", "evaluations")}
    rho_id = log.intern("spectral.rho")
    eq_under_rho = 0
    for i, nid in enumerate(log.name):
        name = by_id.get(nid)
        if name is None:
            continue
        total[name, "calls"] += 1
        total[name, "self_ms"] += 1e3 * selfs[i]
        total[name, "failed"] += log.failed[i]
        p = log.parent[i]
        if name == "paths.evaluate_array" and p >= 0 and \
                by_id.get(log.name[p]) in SCANS:
            total[by_id[log.name[p]], "evaluations"] += 1
        if name == "spectral.eigen_quadruples" and _has_ancestor(log, i, rho_id):
            eq_under_rho += 1

    def counter(key):
        return sum(v for (_, k), v in log.counts.items() if k == key)

    out = {f"{name}.{what}": total[name, what] / jobs
           for name, whats in REPORTED.items() for what in whats}
    out.update({f"{name}.evaluations": total[name, "evaluations"] / jobs
                for name in SCANS})
    out["cz.winding.samples"] = counter("cz.winding.samples") / jobs
    out["cz.winding.max_depth"] = counter("cz.winding.max_depth") / jobs
    rho_calls = total["spectral.rho", "calls"]
    out["spectral.eigen_quadruples.per_rho"] = \
        eq_under_rho / rho_calls if rho_calls else 0.0
    evals = total["paths.evaluate_array", "calls"]
    out["paths.evaluate_array.hit_ratio"] = \
        counter("paths.evaluate_array.hits") / evals if evals else 0.0
    return out


def _has_ancestor(log: SpanLog, i: int, name_id: int) -> bool:
    p = log.parent[i]
    while p >= 0:
        if log.name[p] == name_id:
            return True
        p = log.parent[p]
    return False
