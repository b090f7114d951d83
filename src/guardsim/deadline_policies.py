"""Event-driven simulation of the fast-vehicle policies (NCLP, LP, GP).

All three policies keep the vehicle on the deadline y = L and capture each
planned demand exactly at its escape instant t_arr + L/v via intercept
motion (slide to the demand's abscissa, wait there).  The simulation runs
each stream to quiescence: every demand ends captured or escaped.

The event kernel here, `_EventKernel`, also runs the slow-vehicle TF policy
of `tmhp`; its docstring gives the order of simultaneous events.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

from .core import Demand, DemandStream, VehicleState
from .errors import ContractViolationError, ParameterDomainError, RegimeError
from .reachability import longest_chain_fast


@dataclass
class TraceEvent:
    """One simulation event; vehicle_x is the abscissa when it happened."""

    t: float
    event: str              # arrival | capture | escape | recompute
    demand_id: int | None
    vehicle_x: float

    def to_dict(self) -> dict:
        return {"t": self.t, "event": self.event,
                "demand_id": self.demand_id, "vehicle_x": self.vehicle_x}


@dataclass
class RunResult:
    """Outcome of one policy run over one stream."""

    n_capt: int
    n_esc: int
    trace: list[TraceEvent] | None = None

    @property
    def n_resolved(self) -> int:
        return self.n_capt + self.n_esc

    @property
    def vacuous(self) -> bool:
        """True for an empty stream; the fraction then carries no signal."""
        return self.n_resolved == 0

    @property
    def capture_fraction(self) -> float:
        if self.vacuous:
            return 1.0
        return self.n_capt / self.n_resolved


def write_trace_jsonl(result: RunResult, path: str) -> None:
    if result.trace is None:
        raise ParameterDomainError("run has no trace; rerun with trace=True")
    with open(path, "w", encoding="utf-8") as fh:
        for ev in result.trace:
            fh.write(json.dumps(ev.to_dict()) + "\n")


class _EventKernel:
    """Event bookkeeping shared by both regimes; a policy adds its planner.

    The kernel reads the stream's demands and never writes to them.  It
    admits their arrivals and fires their escapes in time order while the
    policy moves the vehicle along motion legs and captures.  It alone owns
    a demand's state: the pending arrivals, the outstanding demands (kept
    in arrival order, on which GP's scan relies), the escape queue (each
    demand escapes L/v after it arrives, so in arrival order too), the
    current leg, the counters and the trace.

    A leg is (t0, x_from, x_to, dur).  On the deadline (v >= 1) the vehicle
    slides at unit speed, x = x_from +- (t - t0), and waits at x_to from
    t0 + dur on.  In the strip (v < 1) it crosses a straight segment in
    dur, x = x_from + frac * (x_to - x_from).  The two round differently,
    so both stay.  Trace positions are computed only when a trace is kept.

    Ties: in `advance` an escape fires before an arrival at the same
    instant, and before the capture the policy makes at t_end; escapes at
    one instant fire in arrival order.  Protected demands (committed
    targets) never escape.  The policies order the rest:
    - deadline: capture, recompute, arrival, recompute.  LP and GP replan
      at a capture instant before they admit the arrival there, and again
      after it; NCLP never replans.
    - strip: capture, arrival, recompute.  TF admits the arrivals at the
      end of a sweep before it plans the next one.
    """

    def __init__(self, stream: DemandStream, start, trace: bool, strip: bool = False):
        env = stream.env
        if strip and env.v >= 1.0:
            raise RegimeError(f"the TF policy needs v < 1, got v={env.v}")
        if not strip and env.v < 1.0:
            raise RegimeError(f"deadline policies need v >= 1, got v={env.v}")
        self.env = env
        self.strip = strip
        self.start = _check_start(env, start, strip)
        self.demands = stream.demands
        self.pending = deque(self.demands)            # arrivals in time order
        self.outstanding: dict[int, Demand] = {}
        self.protected: set[int] = set()
        self.escapes: deque[Demand] = deque()
        self.l_v = env.L / env.v
        self.events: list[TraceEvent] | None = [] if trace else None
        self.n_capt = 0
        self.n_esc = 0
        x0 = self.start[0]
        self.leg = (0.0, x0, x0, 0.0)

    def _x_at(self, t: float) -> float:
        t0, x_from, x_to, dur = self.leg
        if self.strip:
            if dur <= 0.0:
                return x_from
            return x_from + min(max(t - t0, 0.0), dur) / dur * (x_to - x_from)
        if t >= t0 + dur:
            return x_to
        return x_from + math.copysign(t - t0, x_to - x_from)

    def advance(self, t_end: float, inclusive_arrivals: bool) -> None:
        """Fire escapes through t_end and arrivals before it (through it if
        inclusive_arrivals), in time order."""
        escapes, pending, outstanding = self.escapes, self.pending, self.outstanding
        protected, events, l_v = self.protected, self.events, self.l_v
        while True:
            while escapes:
                e = escapes[0]
                if e.id not in protected and e.id in outstanding:
                    break
                escapes.popleft()
            t_e = e.t_arr + l_v if escapes else math.inf
            t_a = pending[0].t_arr if pending else math.inf
            if escapes and t_e <= t_end and t_e <= t_a:
                escapes.popleft()
                del outstanding[e.id]
                self.n_esc += 1
                if events is not None:
                    events.append(TraceEvent(t_e, "escape", e.id, self._x_at(t_e)))
            elif t_a < t_e and (t_a <= t_end if inclusive_arrivals else t_a < t_end):
                d = pending.popleft()
                outstanding[d.id] = d
                escapes.append(d)
                if events is not None:
                    events.append(TraceEvent(t_a, "arrival", d.id, self._x_at(t_a)))
            else:
                return

    def capture(self, d: Demand, t: float) -> None:
        """Capture outstanding d at t; the vehicle is then at d.x."""
        if self.outstanding.pop(d.id, None) is None:
            raise ContractViolationError(
                f"demand {d.id} is not outstanding at t={t}")
        self.protected.discard(d.id)
        self.n_capt += 1
        if self.events is not None:
            self.events.append(TraceEvent(t, "capture", d.id, d.x))

    def recompute(self, t: float, x: float) -> None:
        if self.events is not None:
            self.events.append(TraceEvent(t, "recompute", None, x))

    def finish(self) -> RunResult:
        """Let every remaining demand arrive and escape; check conservation."""
        self.advance(math.inf, True)
        if self.n_capt + self.n_esc != len(self.demands):
            raise ContractViolationError(
                f"{self.n_capt} captures + {self.n_esc} escapes "
                f"!= {len(self.demands)} demands")
        return RunResult(self.n_capt, self.n_esc, trace=self.events)


def _check_start(env, start, strip: bool) -> tuple:
    """The vehicle's start, by default mid-strip: (x,) with x in [0, W] on
    the deadline, a point (x, y) of [0, W] x [0, L] in the strip."""
    if start is None:
        return (env.W / 2.0, env.L / 2.0) if strip else (env.W / 2.0,)
    try:
        p = tuple(float(c) for c in start) if strip else (float(start),)
    except (TypeError, ValueError, OverflowError):
        p = ()
    if len(p) != 1 + strip or not all(math.isfinite(c) for c in p) \
            or not 0.0 <= p[0] <= env.W or (strip and not 0.0 <= p[1] <= env.L):
        where = f"point (x, y) of [0, {env.W}] x [0, {env.L}]" if strip \
            else f"abscissa in [0, {env.W}]"
        raise ParameterDomainError(f"start must be a finite {where}, got {start!r}")
    return p


def _execute(sim: _EventKernel, commit: list[Demand], t: float, x: float):
    """Capture the committed demands in order, each on its deadline: slide
    to its abscissa and wait.  Returns the vehicle's (t, x) afterwards."""
    sim.protected.update(d.id for d in commit)
    for d in commit:
        t_cap = d.escape_time(sim.env)
        sim.leg = (t, x, d.x, abs(d.x - x))
        sim.advance(t_cap, False)
        sim.capture(d, t_cap)
        t, x = t_cap, d.x
    sim.leg = (t, x, x, 0.0)
    return t, x


def _run(sim: _EventKernel, planner) -> RunResult:
    """Replan after every commit and every arrival until the stream resolves.

    planner(t, x) -> outstanding demands to commit, in capture order; it
    commits only paths the vehicle can follow from (x, L) at t.
    """
    t, x = 0.0, sim.start[0]
    while True:
        commit = planner(t, x)
        sim.recompute(t, x)
        waiting = len(sim.pending)
        sim.advance(t, True)
        if commit:
            t, x = _execute(sim, commit, t, x)
        elif len(sim.pending) == waiting:     # nothing new: idle or done
            if not sim.pending:
                return sim.finish()
            t = sim.pending[0].t_arr
            sim.advance(t, True)


def run_nclp(stream: DemandStream, start_x: float | None = None,
             trace: bool = False) -> RunResult:
    """Non-causal longest path: one plan over the entire stream at t=0,
    by the O(n log n) chain (longest_chain_fast)."""
    env = stream.env
    sim = _EventKernel(stream, start_x, trace)
    x0 = sim.start[0]
    plan = longest_chain_fast(VehicleState(x0, env.L, 0.0), sim.demands, env.v, env.L)
    sim.recompute(0.0, x0)
    sim.advance(0.0, True)
    by_id = {d.id: d for d in sim.demands}
    _execute(sim, [by_id[i] for i in plan.order], 0.0, x0)
    return sim.finish()


def run_lp(stream: DemandStream, start_x: float | None = None, eta: float = 1.0,
           trace: bool = False) -> RunResult:
    """Causal longest path over outstanding demands, committing an eta
    fraction (ceil) of each recomputed path."""
    env = stream.env
    if not isinstance(eta, (int, float)) or isinstance(eta, bool) or \
            not 0.0 < float(eta) <= 1.0 or not math.isfinite(eta):
        raise ParameterDomainError(f"eta must be in (0, 1], got {eta!r}")
    eta = float(eta)
    sim = _EventKernel(stream, start_x, trace)

    def planner(t, x):
        if not sim.outstanding:
            return []
        plan = longest_chain_fast(VehicleState(x, env.L, t),
                                  list(sim.outstanding.values()), env.v, env.L)
        k = math.ceil(eta * plan.length)
        return [sim.outstanding[i] for i in plan.order[:k]]

    return _run(sim, planner)


def run_gp(stream: DemandStream, start_x: float | None = None,
           trace: bool = False) -> RunResult:
    """Greedy path: chase the reachable demand with the earliest deadline,
    the smallest id among equal ones.  `outstanding` is in arrival order,
    so deadlines never decrease along it and the scan stops past the first
    reachable one: O(k) for the k demands up to there, usually a few."""
    sim = _EventKernel(stream, start_x, trace)
    l_v = sim.l_v

    def planner(t, x):
        best = None
        for d in sim.outstanding.values():
            dl = d.t_arr + l_v
            if best is not None and dl > best_dl:
                break
            if abs(x - d.x) <= dl - t and (best is None or d.id < best.id):
                best, best_dl = d, dl
        return [best] if best else []

    return _run(sim, planner)
