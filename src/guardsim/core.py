"""Environment, demand kinematics, seeded Poisson demand streams, and JSON files.

A unit-speed service vehicle guards the deadline segment y = L of the
strip [0, W] x [0, L].  Demands appear on the generator y = 0 as a
temporal Poisson process with rate lam, at a uniform abscissa, and
translate straight up at constant speed v.  A demand that crosses the
deadline unserviced has escaped.  While unserviced, the stream seen as
points in the plane is a spatial Poisson process with areal intensity
lam / (v W).
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Iterator

import numpy as np

from .errors import _FLOAT_MAX, ContractViolationError, ParameterDomainError, RegimeError, \
    SizeLimitError, is_count, is_number, require_positive


@dataclass(frozen=True)
class EnvParams:
    """Problem geometry and arrival statistics. Vehicle speed is the unit."""

    W: float   # generator width
    L: float   # generator-to-deadline distance
    v: float   # demand translation speed, as a ratio of vehicle speed
    lam: float  # temporal arrival rate along the generator

    @property
    def areal_intensity(self) -> float:
        """Spatial density lam/(v W) of the unserviced-demand point process."""
        return self.lam / (self.v * self.W)


def make_env(W: float, L: float, v: float, lam: float) -> EnvParams:
    """Validate parameters and freeze them into an EnvParams."""
    require_positive(W=W, L=L, v=v, lam=lam)
    return EnvParams(float(W), float(L), float(v), float(lam))


@dataclass(slots=True)
class Demand:
    """One arrival: shows up at (x, 0) at time t_arr and rises at speed v."""

    id: int
    t_arr: float
    x: float

    def escape_time(self, env: EnvParams) -> float:
        """Instant the demand reaches the deadline: t_arr + L/v."""
        return self.t_arr + env.L / env.v


@dataclass(frozen=True)
class VehicleState:
    """Vehicle position snapshot at time t."""

    x: float
    y: float
    t: float


class DemandStream:
    """A seeded batch of demands over a fixed environment, with unique count
    ids, finite arrival times t_arr >= 0 that strictly increase, and
    abscissae in [0, W]; a time or an abscissa of -0.0 is kept as 0.0.

    Runs read only the three columns `ids`, `t_arr` and `x`, lists in
    arrival order (a demand is named by its position k, its id is ids[k]),
    and `arrays`, the same as read-only numpy arrays (t_arr, x, ids).
    Every constructor fills `arrays` and `t_arr` through one check: records
    and stream files through `_columns`, the one reader of demand records,
    and `generate_stream` through its arrival-time part.  `ids` and `x`
    are built from `arrays` on first read, which untraced NCLP and LP runs
    never make, and the `Demand` records of `demands`, iteration and
    indexing on first use; all are kept once built.

    Treated as immutable once built: nothing writes to the columns, the
    arrays refuse writes, and a change to a record in `demands` does not
    reach them.  So one stream is safe to share across runs.
    """

    def __init__(self, env: EnvParams, seed: int, demands=()) -> None:
        if not isinstance(env, EnvParams):
            raise ContractViolationError(f"env must be an EnvParams, got {env!r}")
        if not is_count(seed):
            raise ContractViolationError(f"seed must be a non-negative int, got {seed!r}")
        self._keep(env, seed, *_read_demands(demands, env.W))

    def _keep(self, env, seed, t_arr: np.ndarray, x: np.ndarray, ids: np.ndarray):
        """Hold env, seed, checked columns as read-only arrays, and t_arr;
        return the stream."""
        for a in (t_arr, x, ids):
            a.flags.writeable = False
        self.env, self.seed, self.arrays, self.t_arr = env, seed, (t_arr, x, ids), t_arr.tolist()
        self._ids = self._x = self._demands = None
        return self

    @property
    def ids(self) -> list[int]:
        """The ids column, built from `arrays` once, on first read."""
        if self._ids is None:
            self._ids = self.arrays[2].tolist()
        return self._ids

    @property
    def x(self) -> list[float]:
        """The abscissa column, built from `arrays` once, on first read."""
        if self._x is None:
            self._x = self.arrays[1].tolist()
        return self._x

    @property
    def demands(self) -> list[Demand]:
        """The stream as `Demand` records, built once, on first use."""
        if self._demands is None:
            self._demands = list(map(Demand, self.ids, self.t_arr, self.x))
        return self._demands

    def __len__(self) -> int:
        return len(self.t_arr)

    def __iter__(self) -> Iterator[Demand]:
        return iter(self.demands)

    def __getitem__(self, i: int) -> Demand:
        return self.demands[i]


def _read_demands(demands, W: float | None = None) -> tuple:
    """_columns of an iterable of Demand records."""
    if isinstance(demands, (str, bytes)) or not hasattr(demands, "__iter__"):
        raise ContractViolationError(
            f"demands must be an iterable of Demand records, got {demands!r}")
    demands = list(demands)      # an iterable is read once, here
    bad = [d for d in demands if not isinstance(d, Demand)]
    if bad:
        raise ContractViolationError(f"demand record {bad[0]!r} is not a Demand")
    return _columns([d.id for d in demands], [d.t_arr for d in demands],
                    [d.x for d in demands], W)


def _columns(ids: list, t_arr: list, x: list, W: float | None = None) -> tuple:
    """The one reader of demand records: each demand's id, t_arr and x, as
    given, as the arrays (t_arr, x, ids) of float64, float64 and int64.

    Ids must be unique counts, times and abscissae ints or floats, not
    bools; -0.0 is read as 0.0.  With W, arrival times must be finite and
    strictly increase from t >= 0, abscissae lie in [0, W]; without, any
    time order and any finite abscissa.  Else ContractViolationError names
    the first bad demand, its value as given."""
    if not (set(map(type, ids)) <= {int} and 0 <= min(ids, default=0)
            and max(ids, default=0) <= sys.maxsize
            and set(map(type, t_arr)).union(map(type, x)) <= {float, int}):
        for i, t, xk in zip(ids, t_arr, x):
            if not is_count(i):
                raise ContractViolationError(f"demand id {i!r} must be an int in [0, sys.maxsize]")
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (t, xk)):
                raise ContractViolationError(
                    f"demand {i}: arrival time {t!r} and abscissa {xk!r} must be numbers")
    id_col, t_col, x_col = np.array(ids, dtype=np.int64), _floats(t_arr), _floats(x)
    if len(ids) > 1 and not (id_col[1:] > id_col[:-1]).all() \
            and len(np.unique(id_col)) < len(ids):
        raise ContractViolationError("demand ids must be unique")
    if W is None:
        bad = ~(np.isfinite(t_col) & np.isfinite(x_col))
        what = "arrival time {t} and abscissa {x} must be finite"
    else:
        _check_arrivals(t_col, ids, t_arr)
        # generated abscissae live in [0, W); hand-built boundary x = W is tolerated
        bad, what = ~((0.0 <= x_col) & (x_col <= W)), f"abscissa {{x}} outside [0, {W}]"
    if bad.any():
        k = bad.argmax()
        raise ContractViolationError(f"demand {ids[k]}: " + what.format(t=t_arr[k], x=x[k]))
    return t_col, x_col, id_col


def _floats(values: list) -> np.ndarray:
    """Ints and floats as float64, -0.0 as 0.0, an int beyond float range as +-inf."""
    try:
        col = np.array(values, dtype=float)
    except OverflowError:
        col = np.array([math.inf if v > _FLOAT_MAX else -math.inf if v < -_FLOAT_MAX else v
                        for v in values], dtype=float)
    col += 0.0
    return col


def _check_arrivals(t_arr: np.ndarray, ids, shown) -> None:
    """Refuse times not finite or not strictly increasing, then a first one
    below 0, where the deadline policies start, naming ids[k] and shown[k]."""
    ok = np.isfinite(t_arr)
    ok[1:] &= t_arr[1:] > t_arr[:-1]
    if not ok.all():
        k = ok.argmin()
        if not math.isfinite(t_arr[k]):
            raise ContractViolationError(f"demand {ids[k]}: arrival time {shown[k]} is not finite")
        raise ContractViolationError(f"demand {ids[k]}: arrival times must be strictly increasing")
    if len(t_arr) and t_arr[0] < 0.0:
        raise ContractViolationError(f"demand {ids[0]}: arrival time {shown[0]} is negative")


def generate_stream(env: EnvParams, n_demands: int, seed: int) -> DemandStream:
    """Draw a stream of n_demands arrivals, deterministic per (env, n, seed).

    Interarrival gaps are Exponential(lam) via the inverse transform
    -ln(U)/lam, abscissae Uniform[0, W).  Draw order is fixed (all gaps,
    then all abscissae) so streams are bit-reproducible for a given seed.
    The stream keeps the drawn arrays as its `arrays`; ids 0..n-1 and
    abscissae in [0, W) hold by construction, so only the arrival times
    are checked.
    """
    if not is_count(n_demands):
        raise ParameterDomainError(f"n_demands must be a non-negative int, got {n_demands!r}")
    if n_demands * 8 > sys.maxsize:      # its float arrays would hold over sys.maxsize bytes
        raise ParameterDomainError(
            f"n_demands must be at most sys.maxsize // 8 = {sys.maxsize // 8}, got {n_demands!r}")
    if not is_count(seed):
        raise ParameterDomainError(f"seed must be a non-negative int, got {seed!r}")
    if not isinstance(env, EnvParams):
        raise ContractViolationError(f"env must be an EnvParams, got {env!r}")
    rng = np.random.default_rng(seed)
    u = 1.0 - rng.random(n_demands)          # in (0, 1], keeps -ln(U) finite
    gaps = -np.log(u) / env.lam
    t_arr = np.cumsum(gaps)
    xs = env.W * rng.random(n_demands)       # in [0, W)
    _check_arrivals(t_arr, range(n_demands), t_arr)
    return DemandStream.__new__(DemandStream)._keep(env, seed, t_arr, xs,
                                                    np.arange(n_demands, dtype=np.int64))


# --- JSON files -----------------------------------------------------------
# Spec and instance files hold one JSON value; streams and traces hold JSON
# lines.  A stream file is a header {env, seed, n}, then one {id, t_arr, x}
# per demand.  Floats round-trip exactly (repr).

def write_jsonl(records, out) -> None:
    """Write each record as one JSON line to out, a file path or an open text file."""
    if isinstance(out, (str, bytes, os.PathLike)):
        with open(out, "w", encoding="utf-8") as fh:
            write_jsonl(records, fh)
        return
    for r in records:
        out.write(json.dumps(r) + "\n")


def write_stream_jsonl(stream: DemandStream, out) -> None:
    """Write stream to out, a file path or an open text file."""
    if not isinstance(stream, DemandStream):
        raise ParameterDomainError(f"expected a DemandStream, got {stream!r}")
    header = {"env": asdict(stream.env), "seed": stream.seed, "n": len(stream)}
    write_jsonl(chain([header], ({"id": i, "t_arr": t, "x": x}
                                 for i, t, x in zip(stream.ids, stream.t_arr, stream.x))),
                out)


def read_json(path: str, build, line: tuple[int, str] | None = None):
    """build(the JSON value in the file at path, or in its line = (number, text)).

    A guardsim error passes through unchanged; any other failure becomes a
    ContractViolationError that names the file and line.
    """
    try:
        if line is None:
            with open(path, "r", encoding="utf-8") as fh:
                return build(json.load(fh))
        return build(json.loads(line[1]))
    except (ParameterDomainError, RegimeError, ContractViolationError, SizeLimitError):
        raise
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        where = path if line is None else f"{path}, line {line[0]}"
        raise ContractViolationError(f"{where}: malformed record ({exc!r})") from None


def _stream_header(r):
    env, seed, n = make_env(**r["env"]), r["seed"], r.get("n")
    if not (is_count(seed) and (n is None or is_count(n))):
        raise ValueError(f"seed and n must be counts, got {seed!r} and {n!r}")
    return env, seed, n


def _stream_record(r) -> tuple[int, float, float]:
    if not (is_count(r["id"]) and is_number(r["t_arr"]) and is_number(r["x"])):
        raise ValueError(f"id must be a count, t_arr and x numbers, got {r!r}")
    return r["id"], float(r["t_arr"]), float(r["x"])


def read_stream_jsonl(path: str) -> DemandStream:
    """Read a stream file; a header without n is taken at its records' count."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ParameterDomainError(f"path must be a file path, got {path!r}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln) for no, ln in enumerate(fh.read().splitlines(), 1)
                 if ln.strip()]
    if not lines:
        raise ContractViolationError(f"{path}: empty stream file")
    env, seed, n = read_json(path, _stream_header, lines[0])
    records = [read_json(path, _stream_record, line) for line in lines[1:]]
    if n is not None and n != len(records):
        raise ContractViolationError(
            f"{path}: the header gives n = {n}, but {len(records)} records follow")
    columns = [list(c) for c in zip(*records)] or [[], [], []]
    return DemandStream.__new__(DemandStream)._keep(env, seed, *_columns(*columns, env.W))
