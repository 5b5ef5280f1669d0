"""Compositional paths in the symplectic group.

A path is a tree of immutable nodes over the parameter domain [0, 1]:
exponential segments, sampled segments with in-group geodesic interpolation,
catenation, pointwise product, pointwise conjugation, symplectic direct sum,
reversal, affine shears and canonical rotation loops.  Every evaluated point
is symplectic by construction.

A node evaluates an array of parameters at once, to a stack of matrices:
an exponential segment makes one ``expm`` call for the whole array, a direct
sum of exponential segments is one exponential segment, and the other
composite nodes combine their children's stacks with batched arithmetic.
Only the exponential and sampled segments import scipy, when they first
run, so a path without them never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .core import (SympMatrix, as_array, direct_sum_many, j_matrix,
                   symplectic_residual)
from .errors import (ContractError, DimensionError, ParameterError,
                     SamplingError)
from .sampling import difference_quotient
from .tolerances import DEFAULT_TOL

__all__ = [
    "PathSpec",
    "ConstPath",
    "ExpPath",
    "SampledPath",
    "CatPath",
    "ProdPath",
    "ConjPath",
    "DirectSumPath",
    "ReversePath",
    "ShearPath",
    "LoopPath",
    "GeneratorSample",
    "evaluate",
    "evaluate_array",
    "evaluate_stack",
    "generator",
    "make_loop",
    "make_shear",
    "path_to_json",
    "path_from_json",
    "junction_parameters",
]


@dataclass(frozen=True)
class GeneratorSample:
    """Symmetric S_t with psi'_t = J0 S_t psi_t at parameter t."""

    t: float
    s_matrix: np.ndarray
    one_sided: bool = False


class PathSpec:
    """Base class for path nodes: frozen dataclasses, and the private
    ``cz._Extension``, which is not serialisable."""

    @property
    def n(self) -> int:
        raise NotImplementedError

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        """The (len(ts), 2n, 2n) stack of the path at the parameters ``ts``,
        a float array in [0, 1]."""
        raise NotImplementedError

    @cached_property
    def _cache(self) -> dict:
        """Per-t memo of ``evaluate_stack``, made on first use."""
        return {}


def _frozen_array(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    if not np.isfinite(out).all():
        raise ParameterError("path data has non-finite entries")
    out.setflags(write=False)
    return out


def _check_ts(ts) -> list[float]:
    """The parameters ``ts``, clamped onto [0, 1] from within 1e-12."""
    ts = np.asarray(ts, dtype=float).ravel()
    inside = (ts >= -1e-12) & (ts <= 1.0 + 1e-12)
    if not inside.all():
        raise ParameterError(
            f"path parameter {ts[~inside][0]} outside [0, 1]")
    return np.clip(ts, 0.0, 1.0).tolist()


def _memoised(path: PathSpec, ts) -> list[np.ndarray]:
    """The matrices of the path at ``ts``, memoised per t on this node, not
    on its children (which it evaluates directly); one stacked evaluation
    covers every t not yet in the memo.  A stack that overflows the float
    range raises ``ContractError``."""
    ts = _check_ts(ts)
    cache = path._cache
    missing = [t for t in dict.fromkeys(ts) if t not in cache]
    fresh = {}
    if missing:
        with np.errstate(over="ignore", invalid="ignore"):
            stack = path._evaluate(np.array(missing))
        if not np.isfinite(stack).all():
            raise ContractError("path values overflow the float range")
        fresh = dict(zip(missing, stack))
    if len(cache) < 100_000:
        cache.update(fresh)
    return [fresh[t] if t in fresh else cache[t] for t in ts]


def evaluate_stack(path: PathSpec, ts) -> np.ndarray:
    """Evaluate at an array of parameters to a (len(ts), 2n, 2n) stack; the
    path may be ``cz._Extension``."""
    return np.array(_memoised(path, ts))


def evaluate_array(path: PathSpec, t: float) -> np.ndarray:
    """Evaluate at one parameter to a raw ndarray, the memo entry of t."""
    return _memoised(path, [t])[0]


def evaluate(path: PathSpec, t: float) -> SympMatrix:
    """Evaluate to a certified symplectic matrix."""
    return SympMatrix(evaluate_array(path, t))


# ---------------------------------------------------------------------------
# node types


@dataclass(frozen=True)
class ConstPath(PathSpec):
    """Constant path t -> A for a fixed symplectic matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        a = _frozen_array(as_array(self.matrix))
        res = symplectic_residual(a)
        if res > DEFAULT_TOL.tol_symp:
            raise ParameterError(
                f"constant path matrix is not symplectic (residual {res:.3e})")
        object.__setattr__(self, "matrix", a)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.matrix, (len(ts),) + self.matrix.shape)


@dataclass(frozen=True)
class ExpPath(PathSpec):
    """t -> exp(t * duration * J0 S) for a symmetric generator S."""

    s_matrix: np.ndarray
    duration: float = 1.0

    def __post_init__(self):
        s = _frozen_array(self.s_matrix)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
            raise DimensionError(f"generator must be even square, got {s.shape}")
        if np.linalg.norm(s - s.T) > 1e-10 * (1.0 + np.linalg.norm(s)):
            raise ParameterError("exponential generator must be symmetric")
        s = _frozen_array(0.5 * (s + s.T))
        object.__setattr__(self, "s_matrix", s)
        object.__setattr__(self, "_js", _frozen_array(j_matrix(s.shape[0] // 2) @ s))

    @property
    def n(self) -> int:
        return self.s_matrix.shape[0] // 2

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        import scipy.linalg as sla

        return sla.expm((ts * self.duration)[:, None, None] * self._js)


@dataclass(frozen=True)
class SampledPath(PathSpec):
    """Piecewise in-group geodesic through sampled symplectic matrices."""

    times: np.ndarray
    matrices: tuple

    def __post_init__(self):
        import scipy.linalg as sla

        times = _frozen_array(self.times)
        mats = tuple(_frozen_array(as_array(m)) for m in self.matrices)
        if times.ndim != 1 or len(times) != len(mats) or len(mats) < 2:
            raise ParameterError("need matching times and at least two matrices")
        if abs(times[0]) > 1e-12 or abs(times[-1] - 1.0) > 1e-12 or \
                np.any(np.diff(times) <= 0):
            raise ParameterError("times must increase from 0 to 1")
        for m in mats:
            if symplectic_residual(m) > 10 * DEFAULT_TOL.tol_symp:
                raise ParameterError("sampled matrix is not symplectic")
        logs = []
        for a, b in zip(mats[:-1], mats[1:]):
            step = np.linalg.solve(a, b)
            if np.linalg.norm(step - np.eye(step.shape[0])) >= 0.5:
                raise SamplingError(
                    "consecutive samples too far apart for geodesic interpolation")
            lg = sla.logm(step)
            if np.linalg.norm(lg.imag) > 1e-9:
                raise SamplingError("geodesic log has a complex branch")
            logs.append(_frozen_array(lg.real))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "_logs", tuple(logs))

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0] // 2

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        import scipy.linalg as sla

        seg = np.clip(np.searchsorted(self.times, ts, side="right") - 1,
                      0, len(self.matrices) - 2)
        out = np.empty((len(ts),) + self.matrices[0].shape)
        for i in np.unique(seg):
            on = seg == i
            t0, t1 = self.times[i], self.times[i + 1]
            s = (ts[on] - t0) / (t1 - t0)
            out[on] = self.matrices[i] @ sla.expm(s[:, None, None] * self._logs[i])
        return out


@dataclass(frozen=True)
class CatPath(PathSpec):
    """Catenation of parts, each rescaled to an equal subinterval."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ParameterError("catenation needs at least one part")
        dims = {p.n for p in parts}
        if len(dims) != 1:
            raise DimensionError("catenation parts have mixed dimensions")
        for a, b in zip(parts[:-1], parts[1:]):
            end = a._evaluate(np.array([1.0]))[0]
            start = b._evaluate(np.array([0.0]))[0]
            if np.linalg.norm(end - start) / (1.0 + np.linalg.norm(end)) \
                    > 10 * DEFAULT_TOL.tol_symp:
                raise ParameterError("catenation parts do not match at a junction")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return self.parts[0].n

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        k = len(self.parts)
        u = ts * k
        part = np.minimum(u.astype(int), k - 1)
        out = np.empty((len(ts), 2 * self.n, 2 * self.n))
        for i in np.unique(part):
            on = part == i
            out[on] = self.parts[i]._evaluate(u[on] - i)
        return out


@dataclass(frozen=True)
class ProdPath(PathSpec):
    """Pointwise product t -> left(t) @ right(t)."""

    left: PathSpec
    right: PathSpec

    def __post_init__(self):
        if self.left.n != self.right.n:
            raise DimensionError("product factors have different dimensions")

    @property
    def n(self) -> int:
        return self.left.n

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        return self.left._evaluate(ts) @ self.right._evaluate(ts)


@dataclass(frozen=True)
class ConjPath(PathSpec):
    """Pointwise conjugation t -> phi(t) @ psi(t) @ phi(t)^-1."""

    phi: PathSpec
    psi: PathSpec

    def __post_init__(self):
        if self.phi.n != self.psi.n:
            raise DimensionError("conjugation factors have different dimensions")

    @property
    def n(self) -> int:
        return self.psi.n

    @cached_property
    def _phi_inv(self) -> np.ndarray | None:
        """The inverse of a constant conjugator, made on first use; None
        when the conjugator is not a ``ConstPath``."""
        if not isinstance(self.phi, ConstPath):
            return None
        return _frozen_array(np.linalg.inv(self.phi.matrix))

    @cached_property
    def _exponential(self) -> ExpPath | None:
        """The one exponential path this node is, made on first use: a
        constant symplectic K conjugating an exponential node (see
        ``_exponential``) gives K exp(t J S) K^-1 = exp(t J K^-T S K^-1),
        with the same spectrum.  None for any other node."""
        k_inv = self._phi_inv
        inner = None if k_inv is None else _exponential(self.psi)
        if inner is None:
            return None
        return ExpPath(k_inv.T @ (inner.duration * inner.s_matrix) @ k_inv)

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        g = self.phi._evaluate(ts)
        if self._phi_inv is not None:
            g_inv = self._phi_inv
        elif np.isfinite(g).all():
            g_inv = np.linalg.inv(g)
        else:
            # an overflowing conjugator may invert to NaN or be singular
            raise ContractError("path values overflow the float range")
        return g @ self.psi._evaluate(ts) @ g_inv


@dataclass(frozen=True)
class DirectSumPath(PathSpec):
    """Interleaved symplectic direct sum of paths."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ParameterError("direct sum needs at least one part")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(p.n for p in self.parts)

    @cached_property
    def _joined(self) -> ExpPath | None:
        """The one exponential path a sum of exponential parts is, made on
        first use: the interleaved J is the direct sum of the J_1s, so the
        sum of the exp(t d_i J S_i) is exp(t J (+)_i d_i S_i).  None when
        a part is not an ``ExpPath``."""
        if not all(isinstance(p, ExpPath) for p in self.parts):
            return None
        return ExpPath(direct_sum_many([p.duration * p.s_matrix
                                        for p in self.parts]))

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        if self._joined is not None:
            return self._joined._evaluate(ts)
        return direct_sum_many([p._evaluate(ts) for p in self.parts])


@dataclass(frozen=True)
class ReversePath(PathSpec):
    """t -> inner(1 - t)."""

    inner: PathSpec

    @property
    def n(self) -> int:
        return self.inner.n

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        return self.inner._evaluate(1.0 - ts)


@dataclass(frozen=True)
class ShearPath(PathSpec):
    """Symplectic shear t -> [[Id, B(t)], [0, Id]] with symmetric B(t).

    B is affine between b0 and b1 unless a callable b_func is supplied.
    """

    b0: np.ndarray
    b1: np.ndarray
    b_func: object = field(default=None, compare=False)

    def __post_init__(self):
        b0 = _frozen_array(self.b0)
        b1 = _frozen_array(self.b1)
        for b in (b0, b1):
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise DimensionError("shear blocks must be square")
            if np.linalg.norm(b - b.T) > 1e-9 * (1.0 + np.linalg.norm(b)):
                raise ParameterError("shear blocks must be symmetric")
        if b0.shape != b1.shape:
            raise DimensionError("shear endpoints have different sizes")
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "b1", b1)

    @property
    def n(self) -> int:
        return self.b0.shape[0]

    def b_at(self, t: float) -> np.ndarray:
        if self.b_func is not None:
            b = np.asarray(self.b_func(t), dtype=float)
            return 0.5 * (b + b.T)
        return (1.0 - t) * self.b0 + t * self.b1

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        m = self.n
        out = np.tile(np.eye(2 * m), (len(ts), 1, 1))
        out[:, :m, m:] = [self.b_at(t) for t in ts.tolist()]
        return out


@dataclass(frozen=True)
class LoopPath(PathSpec):
    """Canonical loop: rotation by 2*pi*wind on the first symplectic plane,
    an off-identity stretch a(t) = 1 + 2t(1-t) on the remaining planes."""

    wind: int
    dim_n: int

    def __post_init__(self):
        if self.dim_n < 1:
            raise DimensionError("loop dimension must be >= 1")
        if int(self.wind) != self.wind:
            raise ParameterError("winding must be an integer")

    @property
    def n(self) -> int:
        return self.dim_n

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        m = self.dim_n
        out = np.tile(np.eye(2 * m), (len(ts), 1, 1))
        if self.wind == 0:
            return out
        th = 2.0 * np.pi * self.wind * ts
        c, s = np.cos(th), np.sin(th)
        out[:, 0, 0] = c
        out[:, 0, m] = -s
        out[:, m, 0] = s
        out[:, m, m] = c
        a = 1.0 + 2.0 * ts * (1.0 - ts)
        for j in range(1, m):
            out[:, j, j] = a
            out[:, m + j, m + j] = 1.0 / a
        return out


# ---------------------------------------------------------------------------
# constructions


def make_loop(n_wind: int, n: int) -> PathSpec:
    """Loop at the identity with rho-degree n_wind in dimension n."""
    return LoopPath(wind=int(n_wind), dim_n=int(n))


def make_shear(b_path) -> PathSpec:
    """Shear path from a callable t -> B(t) or a pair (B0, B1) of endpoints."""
    if callable(b_path):
        b0 = np.asarray(b_path(0.0), dtype=float)
        b1 = np.asarray(b_path(1.0), dtype=float)
        return ShearPath(b0=b0, b1=b1, b_func=b_path)
    b0, b1 = b_path
    return ShearPath(b0=np.asarray(b0, dtype=float), b1=np.asarray(b1, dtype=float))


# ---------------------------------------------------------------------------
# generator sampling


def junction_parameters(path: PathSpec) -> list[float]:
    """Parameters where the path may fail to be smooth."""
    if isinstance(path, CatPath):
        k = len(path.parts)
        out = {i / k for i in range(1, k)}
        for i, p in enumerate(path.parts):
            out.update((i + j) / k for j in junction_parameters(p))
        return sorted(out)
    if isinstance(path, SampledPath):
        return [float(t) for t in path.times[1:-1]]
    if isinstance(path, ReversePath):
        return sorted(1.0 - j for j in junction_parameters(path.inner))
    if isinstance(path, (ProdPath, ConjPath)):
        a = set(junction_parameters(path.left if isinstance(path, ProdPath) else path.phi))
        a.update(junction_parameters(path.right if isinstance(path, ProdPath) else path.psi))
        return sorted(a)
    if isinstance(path, DirectSumPath):
        out = set()
        for p in path.parts:
            out.update(junction_parameters(p))
        return sorted(out)
    return []


def _exponential(path: PathSpec) -> ExpPath | None:
    """The ``ExpPath`` the node is, if one: itself, a direct sum's
    ``_joined`` node, or either conjugated by a constant symplectic K (the
    ``ConjPath``'s own ``_exponential``), each built once per node."""
    if isinstance(path, DirectSumPath):
        return path._joined
    if isinstance(path, ConjPath):
        return path._exponential
    return path if isinstance(path, ExpPath) else None


def generator(path: PathSpec, t: float) -> GeneratorSample:
    """Symmetric generator S_t with psi'_t = J0 S_t psi_t.

    Exponential nodes (see ``_exponential``) return their generator
    exactly; everything else uses a central finite difference with one
    Richardson level, one-sided with a flag within 2h of a junction or
    global endpoint, stepping away from the nearest one (forward for
    t <= 1/2 when t is on it).
    """
    t = _check_ts([t])[0]
    exact = _exponential(path)
    if exact is not None:
        return GeneratorSample(t=t, s_matrix=exact.duration * exact.s_matrix)

    jm = j_matrix(path.n)
    psi = evaluate_array(path, t)
    h = 1e-5 * max(1.0, float(np.linalg.norm(psi)))

    near = [j for j in [0.0, 1.0] + junction_parameters(path) if abs(j - t) < 2 * h]
    side = 0.0
    if near:
        j = min(near, key=lambda j: abs(j - t))
        side = 1.0 if t > j or (t == j and t <= 0.5) else -1.0
    d = difference_quotient(partial(evaluate_stack, path), t, h, side)
    s_mat = -jm @ d @ np.linalg.inv(psi)
    s_mat = 0.5 * (s_mat + s_mat.T)
    return GeneratorSample(t=t, s_matrix=s_mat, one_sided=bool(side))


# ---------------------------------------------------------------------------
# JSON serialization (shared with the command line front end)


def _node_to_json(path: PathSpec) -> dict:
    if isinstance(path, ConstPath):
        return {"type": "const", "A": path.matrix.tolist()}
    if isinstance(path, ExpPath):
        return {"type": "exp", "S": path.s_matrix.tolist(), "T": path.duration}
    if isinstance(path, SampledPath):
        return {"type": "sampled", "times": path.times.tolist(),
                "matrices": [m.tolist() for m in path.matrices]}
    if isinstance(path, CatPath):
        return {"type": "cat", "parts": [_node_to_json(p) for p in path.parts]}
    if isinstance(path, ProdPath):
        return {"type": "prod", "left": _node_to_json(path.left),
                "right": _node_to_json(path.right)}
    if isinstance(path, ConjPath):
        return {"type": "conj", "phi": _node_to_json(path.phi),
                "psi": _node_to_json(path.psi)}
    if isinstance(path, DirectSumPath):
        return {"type": "dsum", "parts": [_node_to_json(p) for p in path.parts]}
    if isinstance(path, ReversePath):
        return {"type": "reverse", "inner": _node_to_json(path.inner)}
    if isinstance(path, ShearPath):
        if path.b_func is not None:
            raise ParameterError("only affine shears are JSON-serializable")
        return {"type": "shear", "B0": path.b0.tolist(), "B1": path.b1.tolist()}
    if isinstance(path, LoopPath):
        return {"type": "loop", "wind": path.wind, "n": path.dim_n}
    raise ParameterError(f"unknown path node {type(path).__name__}")


def path_to_json(path: PathSpec) -> dict:
    return {"n": path.n, "path": _node_to_json(path)}


def _node_from_json(node: dict, n: int) -> PathSpec:
    kind = node.get("type")
    if kind == "const":
        return ConstPath(matrix=np.array(node["A"], dtype=float))
    if kind == "exp":
        return ExpPath(s_matrix=np.array(node["S"], dtype=float),
                       duration=float(node.get("T", 1.0)))
    if kind == "sampled":
        return SampledPath(times=np.array(node["times"], dtype=float),
                           matrices=tuple(np.array(m, dtype=float)
                                          for m in node["matrices"]))
    if kind == "cat":
        return CatPath(parts=tuple(_node_from_json(p, n) for p in node["parts"]))
    if kind == "prod":
        return ProdPath(left=_node_from_json(node["left"], n),
                        right=_node_from_json(node["right"], n))
    if kind == "conj":
        return ConjPath(phi=_node_from_json(node["phi"], n),
                        psi=_node_from_json(node["psi"], n))
    if kind == "dsum":
        return DirectSumPath(parts=tuple(_node_from_json(p, n)
                                         for p in node["parts"]))
    if kind == "reverse":
        return ReversePath(inner=_node_from_json(node["inner"], n))
    if kind == "shear":
        return ShearPath(b0=np.array(node["B0"], dtype=float),
                         b1=np.array(node["B1"], dtype=float))
    if kind == "loop":
        # hand-written inputs may leave out n: the enclosing n applies
        return LoopPath(wind=int(node["wind"]), dim_n=int(node.get("n", n)))
    raise ParameterError(f"unknown path node type {kind!r}")


def path_from_json(obj: dict) -> PathSpec:
    if "path" not in obj or "n" not in obj:
        raise ParameterError("path JSON must contain 'n' and 'path'")
    path = _node_from_json(obj["path"], int(obj["n"]))
    if path.n != int(obj["n"]):
        raise DimensionError("declared n does not match the path nodes")
    return path
