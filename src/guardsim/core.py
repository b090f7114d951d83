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
    ids and finite arrival times t_arr >= 0 that strictly increase.

    The stream is three columns in arrival order, `ids`, `t_arr` and `x`
    (Python lists; times and abscissae are floats), and runs read only
    these: the event kernel and the planners name a demand by its position
    k, and its id is ids[k].  `arrays` holds the same columns as read-only
    numpy arrays (t_arr, x, ids), which the kernel and the chain planner
    read whole.  `demands`, iteration and indexing give `Demand` records;
    no policy run asks for them.  `DemandStream(env, seed, demands)` checks
    every record and fills the columns; `generate_stream` fills them, and
    `arrays`, from the arrays it drew.  Whatever is not filled is built
    from the columns on first use and kept.

    Treated as immutable once built: nothing writes to the columns, the
    arrays refuse writes, and a change to a record in `demands` does not
    reach them.  So one stream is safe to share across runs.
    """

    def __init__(self, env: EnvParams, seed: int, demands=()) -> None:
        if not isinstance(env, EnvParams):
            raise ContractViolationError(f"env must be an EnvParams, got {env!r}")
        if not is_count(seed):
            raise ContractViolationError(f"seed must be a non-negative int, got {seed!r}")
        if not isinstance(demands, list):
            if isinstance(demands, (str, bytes)) or not hasattr(demands, "__iter__"):
                raise ContractViolationError(
                    f"demands must be an iterable of Demand records, got {demands!r}")
            demands = list(demands)      # an iterable is read once, here
        self.env, self.seed = env, seed
        self.ids: list[int] = []
        self.t_arr: list[float] = []
        self.x: list[float] = []
        self._demands: list[Demand] | None = None
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        prev, W, maxsize = -math.inf, env.W, sys.maxsize   # locals: read per demand
        try:
            for d in demands:
                if not isinstance(d, Demand):
                    raise ContractViolationError(f"demand record {d!r} is not a Demand")
                i, t, x = d.id, d.t_arr, d.x      # is_count, with a fast path for an exact int
                if not (i.__class__ is int and 0 <= i <= maxsize or is_count(i)):
                    raise ContractViolationError(
                        f"demand id {i!r} must be an int in [0, sys.maxsize]")
                if not prev < t <= _FLOAT_MAX:
                    if not abs(t) <= _FLOAT_MAX:
                        raise ContractViolationError(
                            f"demand {i}: arrival time {t} is not finite")
                    raise ContractViolationError(
                        f"demand {i}: arrival times must be strictly increasing"
                    )
                prev = t
                # generated abscissae live in [0, W); hand-built boundary x = W is tolerated
                if not (0.0 <= x <= W):
                    raise ContractViolationError(
                        f"demand {i}: abscissa {x} outside [0, {W}]"
                    )
                if not (t.__class__ is float and x.__class__ is float
                        or is_number(t) and is_number(x)):
                    raise TypeError     # a bool, or another type that compares like a number
                self.ids.append(i)
                self.t_arr.append(float(t))
                self.x.append(float(x))
        except TypeError:
            raise ContractViolationError(f"demand {d.id}: arrival time {d.t_arr!r} "
                                         f"and abscissa {d.x!r} must be numbers") from None
        # the deadline policies start their clock at t = 0; arrivals
        # increase, so the first is the earliest
        if self.t_arr and self.t_arr[0] < 0.0:
            raise ContractViolationError(
                f"demand {self.ids[0]}: arrival time {demands[0].t_arr} is negative")
        if len(set(self.ids)) != len(self.ids):
            raise ContractViolationError("demand ids must be unique")

    @property
    def demands(self) -> list[Demand]:
        """The stream as `Demand` records, built once, on first use."""
        if self._demands is None:
            self._demands = list(map(Demand, self.ids, self.t_arr, self.x))
        return self._demands

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The columns (t_arr, x, ids) as read-only float64, float64 and
        int64 arrays, built once, on first use, unless generate_stream kept
        its own."""
        if self._arrays is None:
            self._arrays = _read_only(np.array(self.t_arr, dtype=float),
                                      np.array(self.x, dtype=float),
                                      np.array(self.ids, dtype=np.int64))
        return self._arrays

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Demand]:
        return iter(self.demands)

    def __getitem__(self, i: int) -> Demand:
        return self.demands[i]


def generate_stream(env: EnvParams, n_demands: int, seed: int) -> DemandStream:
    """Draw a stream of n_demands arrivals, deterministic per (env, n, seed).

    Interarrival gaps are Exponential(lam) via the inverse transform
    -ln(U)/lam, abscissae Uniform[0, W).  Draw order is fixed (all gaps,
    then all abscissae) so streams are bit-reproducible for a given seed.
    """
    if not is_count(n_demands):
        raise ParameterDomainError(f"n_demands must be a non-negative int, got {n_demands!r}")
    if n_demands * 8 > sys.maxsize:      # its float arrays would hold over sys.maxsize bytes
        raise ParameterDomainError(
            f"n_demands must be at most sys.maxsize // 8 = {sys.maxsize // 8}, got {n_demands!r}")
    if not is_count(seed):
        raise ParameterDomainError(f"seed must be a non-negative int, got {seed!r}")
    stream = DemandStream(env, seed)     # checks env
    rng = np.random.default_rng(seed)
    u = 1.0 - rng.random(n_demands)          # in (0, 1], keeps -ln(U) finite
    gaps = -np.log(u) / env.lam
    t_arr = np.cumsum(gaps)
    xs = env.W * rng.random(n_demands)       # in [0, W)
    # ids 0..n-1 and abscissae in [0, W) hold by construction; the arrivals
    # are checked as one array, and only a bad one goes through the
    # per-demand check, which raises naming the first bad demand
    if n_demands and not (t_arr[0] >= 0.0 and np.isfinite(t_arr).all()
                          and (t_arr[1:] > t_arr[:-1]).all()):
        return DemandStream(env, seed, list(map(Demand, range(n_demands), t_arr.tolist(),
                                                xs.tolist())))
    stream.ids, stream.t_arr, stream.x = list(range(n_demands)), t_arr.tolist(), xs.tolist()
    stream._arrays = _read_only(t_arr, xs, np.arange(n_demands, dtype=np.int64))
    return stream


def _read_only(*arrays: np.ndarray) -> tuple:
    """arrays, each made to refuse writes."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


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


def _stream_record(r) -> Demand:
    if not (is_count(r["id"]) and is_number(r["t_arr"]) and is_number(r["x"])):
        raise ValueError(f"id must be a count, t_arr and x numbers, got {r!r}")
    return Demand(r["id"], float(r["t_arr"]), float(r["x"]))


def read_stream_jsonl(path: str) -> DemandStream:
    """Read a stream file; a header without n is taken at its records' count."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln) for no, ln in enumerate(fh.read().splitlines(), 1)
                 if ln.strip()]
    if not lines:
        raise ContractViolationError(f"{path}: empty stream file")
    env, seed, n = read_json(path, _stream_header, lines[0])
    demands = [read_json(path, _stream_record, line) for line in lines[1:]]
    if n is not None and n != len(demands):
        raise ContractViolationError(
            f"{path}: the header gives n = {n}, but {len(demands)} records follow")
    return DemandStream(env=env, seed=seed, demands=demands)
