"""Environment, demand kinematics, and seeded Poisson demand streams.

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
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ContractViolationError, ParameterDomainError

_FLOAT_MAX = sys.float_info.max    # an int above it is too large for a float


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
    for name, value in (("W", W), ("L", L), ("v", v), ("lam", lam)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParameterDomainError(f"{name} must be a number, got {value!r}")
        if not 0 < value <= _FLOAT_MAX:
            raise ParameterDomainError(
                f"{name} must be positive and finite, got {value!r}"
            )
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


@dataclass
class DemandStream:
    """A seeded batch of demands over a fixed environment, with finite
    arrival times t_arr >= 0 that strictly increase.

    Treated as immutable once built; no policy writes to a demand, so one
    stream is safe to share across runs.
    """

    env: EnvParams
    seed: int
    demands: list[Demand] = field(default_factory=list)

    def __post_init__(self) -> None:
        prev = -math.inf
        for d in self.demands:
            if not prev < d.t_arr <= _FLOAT_MAX:
                if not abs(d.t_arr) <= _FLOAT_MAX:
                    raise ContractViolationError(
                        f"demand {d.id}: arrival time {d.t_arr} is not finite")
                raise ContractViolationError(
                    f"demand {d.id}: arrival times must be strictly increasing"
                )
            prev = d.t_arr
            # generated abscissae live in [0, W); hand-built boundary x = W is tolerated
            if not (0.0 <= d.x <= self.env.W):
                raise ContractViolationError(
                    f"demand {d.id}: abscissa {d.x} outside [0, {self.env.W}]"
                )
        # the deadline policies start their clock at t = 0; arrivals
        # increase, so the first is the earliest
        if self.demands and self.demands[0].t_arr < 0.0:
            d = self.demands[0]
            raise ContractViolationError(
                f"demand {d.id}: arrival time {d.t_arr} is negative")
        if len({d.id for d in self.demands}) != len(self.demands):
            raise ContractViolationError("demand ids must be unique")

    def __len__(self) -> int:
        return len(self.demands)

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
    if not isinstance(n_demands, int) or n_demands < 0:
        raise ParameterDomainError(f"n_demands must be a non-negative int, got {n_demands!r}")
    if not isinstance(seed, int) or seed < 0:
        raise ParameterDomainError(f"seed must be a non-negative int, got {seed!r}")
    rng = np.random.default_rng(seed)
    u = 1.0 - rng.random(n_demands)          # in (0, 1], keeps -ln(U) finite
    gaps = -np.log(u) / env.lam
    t_arr = np.cumsum(gaps)
    xs = env.W * rng.random(n_demands)       # in [0, W)
    demands = list(map(Demand, range(n_demands), t_arr.tolist(), xs.tolist()))
    return DemandStream(env=env, seed=seed, demands=demands)


# --- stream serialization -------------------------------------------------
# JSON lines: a header record with the environment and seed, then one
# record {id, t_arr, x} per demand.  Floats round-trip exactly (repr).

def write_stream_jsonl(stream: DemandStream, out) -> None:
    """Write stream to out, a file path or an open text file."""
    if isinstance(out, (str, bytes, os.PathLike)):
        with open(out, "w", encoding="utf-8") as fh:
            write_stream_jsonl(stream, fh)
        return
    env = stream.env
    header = {
        "env": {"W": env.W, "L": env.L, "v": env.v, "lam": env.lam},
        "seed": stream.seed,
        "n": len(stream),
    }
    out.write(json.dumps(header) + "\n")
    for d in stream.demands:
        out.write(json.dumps({"id": d.id, "t_arr": d.t_arr, "x": d.x}) + "\n")


def _parse_record(path: str, no: int, line: str, build):
    """build(json record of one line), with a malformed line reported as a
    ContractViolationError that names the file and line."""
    try:
        return build(json.loads(line))
    except ParameterDomainError:
        raise
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ContractViolationError(
            f"{path}, line {no}: malformed record ({exc!r})") from None


def read_stream_jsonl(path: str) -> DemandStream:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln) for no, ln in enumerate(fh.read().splitlines(), 1)
                 if ln.strip()]
    if not lines:
        raise ContractViolationError(f"{path}: empty stream file")
    env, seed = _parse_record(path, *lines[0],
                              lambda r: (make_env(**r["env"]), int(r["seed"])))
    demands = [_parse_record(path, no, ln, lambda r: Demand(
        int(r["id"]), float(r["t_arr"]), float(r["x"]))) for no, ln in lines[1:]]
    return DemandStream(env=env, seed=seed, demands=demands)
