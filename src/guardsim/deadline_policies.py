"""Event-driven simulation of the fast-vehicle policies (NCLP, LP, GP).

All three policies keep the vehicle on the deadline y = L and capture each
planned demand exactly at its escape instant t_arr + L/v via intercept
motion (slide to the demand's abscissa, wait there).  The simulation runs
each stream to quiescence: every demand ends captured or escaped.

The event kernel here, `_EventKernel`, also runs the slow-vehicle TF policy
of `tmhp`; its docstring gives the order of simultaneous events.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .core import DemandStream, write_jsonl
from .errors import ContractViolationError, ParameterDomainError, RegimeError, is_number
# the policies plan with _chain on the stream's columns; longest_chain_fast
# stays importable here, where bench/spans.py looks it up by name
from .reachability import _chain, longest_chain_fast  # noqa: F401


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
    write_jsonl((ev.to_dict() for ev in result.trace), path)


class _EventKernel:
    """Event bookkeeping shared by both regimes; a policy adds its planner.

    The kernel reads the stream's columns (`DemandStream.ids`, `t_arr`, `x`)
    and never writes to them; it and the planners name a demand by its
    position k in the stream, and a trace event names ids[k].  It admits
    the arrivals and fires the escapes in time order while the policy moves
    the vehicle along motion legs and captures.  It alone owns a demand's
    state: the positions of the outstanding demands (`outstanding`, a dict
    kept in arrival order, on which GP's scan relies), the protected
    positions, two cursors into the stream, the current leg, the counters
    and the trace.  Arrivals increase strictly, and each demand escapes L/v
    after it arrives, so escapes come in arrival order too: `arrived`
    counts the demands admitted so far, and a second cursor counts those
    whose escape instant has passed.  Each `advance` finds the window of
    arrivals and the window of escapes it crosses by bisection over the
    arrival instants and the escape instants t_arr + L/v, which are
    computed once per run (one stream may serve several environments).
    Traced and untraced runs change the state alike; a kept trace only
    adds the window's events, merged in the order below.

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
        self.stream = stream
        self.l_v = l_v = env.L / env.v
        self._t_arr = stream.t_arr
        self._t_esc = [t + l_v for t in self._t_arr]
        self.arrived = 0              # position arrived arrives next
        self._passed = 0              # positions below _passed are past their escape instant
        self.outstanding: dict[int, None] = {}
        self.protected: set[int] = set()
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
        a0, p0 = self.arrived, self._passed
        a1 = (bisect_right if inclusive_arrivals else bisect_left)(self._t_arr, t_end, a0)
        p1 = bisect_right(self._t_esc, t_end, p0, a1)       # only admitted demands escape
        outstanding = self.outstanding
        if a1 > a0:
            self.arrived = a1
            for k in range(a0, a1):
                outstanding[k] = None
        fired = ()
        if p1 > p0:
            self._passed = p1
            protected = self.protected
            fired = [k for k in range(p0, p1) if k in outstanding and k not in protected]
            for k in fired:
                del outstanding[k]
            self.n_esc += len(fired)
        if self.events is not None:
            self._log(a0, a1, fired)

    def _log(self, a0: int, a1: int, fired) -> None:
        """Trace the arrivals of positions a0..a1-1 and the escapes of fired,
        in time order: an escape before an arrival at one instant, but never
        before its own demand's arrival."""
        ids, t_arr, t_esc = self.stream.ids, self._t_arr, self._t_esc
        events, x_at, a = self.events, self._x_at, a0
        for k in fired:
            t_e = t_esc[k]
            while a < a1 and (t_arr[a] < t_e or a == k):
                events.append(TraceEvent(t_arr[a], "arrival", ids[a], x_at(t_arr[a])))
                a += 1
            events.append(TraceEvent(t_e, "escape", ids[k], x_at(t_e)))
        for a in range(a, a1):
            events.append(TraceEvent(t_arr[a], "arrival", ids[a], x_at(t_arr[a])))

    def capture(self, k: int, t: float) -> None:
        """Capture the outstanding demand at position k at t; the vehicle is
        then at its abscissa."""
        if k not in self.outstanding:
            raise ContractViolationError(
                f"demand {self.stream.ids[k]} is not outstanding at t={t}")
        del self.outstanding[k]
        self.protected.discard(k)
        self.n_capt += 1
        if self.events is not None:
            self.events.append(TraceEvent(t, "capture", self.stream.ids[k], self.stream.x[k]))

    def recompute(self, t: float, x: float) -> None:
        if self.events is not None:
            self.events.append(TraceEvent(t, "recompute", None, x))

    def finish(self) -> RunResult:
        """Let every remaining demand arrive and escape; check conservation."""
        self.advance(math.inf, True)
        if self.n_capt + self.n_esc != len(self._t_arr):
            raise ContractViolationError(
                f"{self.n_capt} captures + {self.n_esc} escapes "
                f"!= {len(self._t_arr)} demands")
        return RunResult(self.n_capt, self.n_esc, trace=self.events)


def _check_start(env, start, strip: bool) -> tuple:
    """The vehicle's start, by default mid-strip: (x,) with x in [0, W] on
    the deadline, a point (x, y) of [0, W] x [0, L] in the strip."""
    if start is None:
        return (env.W / 2.0, env.L / 2.0) if strip else (env.W / 2.0,)
    try:
        p = tuple(start) if strip else (start,)
    except TypeError:
        p = ()
    if len(p) != 1 + strip or not all(map(is_number, p)) \
            or not 0.0 <= p[0] <= env.W or (strip and not 0.0 <= p[1] <= env.L):
        where = f"point (x, y) of [0, {env.W}] x [0, {env.L}]" if strip \
            else f"abscissa in [0, {env.W}]"
        raise ParameterDomainError(f"start must be a finite {where}, got {start!r}")
    return tuple(map(float, p))


def _execute(sim: _EventKernel, commit: list[int], t: float, x: float):
    """Capture the committed positions in order, each on its deadline:
    slide to its abscissa and wait.  Returns the vehicle's (t, x) afterwards."""
    t_arr, xs, l_v = sim.stream.t_arr, sim.stream.x, sim.l_v
    sim.protected.update(commit)
    for k in commit:
        t_cap, x_k = t_arr[k] + l_v, xs[k]
        sim.leg = (t, x, x_k, abs(x_k - x))
        sim.advance(t_cap, False)
        sim.capture(k, t_cap)
        t, x = t_cap, x_k
    sim.leg = (t, x, x, 0.0)
    return t, x


def _run(sim: _EventKernel, planner) -> RunResult:
    """Replan after every commit and every arrival until the stream resolves.

    planner(t, x) -> positions of outstanding demands to commit, in capture
    order; it commits only paths the vehicle can follow from (x, L) at t.
    """
    t_arr = sim.stream.t_arr
    t, x = 0.0, sim.start[0]
    while True:
        commit = planner(t, x)
        sim.recompute(t, x)
        waiting = sim.arrived
        sim.advance(t, True)
        if commit:
            t, x = _execute(sim, commit, t, x)
        elif sim.arrived == waiting:          # nothing new: idle or done
            if sim.arrived == len(t_arr):
                return sim.finish()
            t = t_arr[sim.arrived]
            sim.advance(t, True)


def run_nclp(stream: DemandStream, start_x: float | None = None,
             trace: bool = False) -> RunResult:
    """Non-causal longest path: one plan over the entire stream at t=0,
    by the O(n log n) chain that longest_chain_fast runs on records."""
    sim = _EventKernel(stream, start_x, trace)
    x0 = sim.start[0]
    plan = _chain(x0, 0.0, range(len(stream)), stream.t_arr, stream.x, stream.ids, sim.l_v)
    sim.recompute(0.0, x0)
    sim.advance(0.0, True)
    _execute(sim, plan, 0.0, x0)
    return sim.finish()


def run_lp(stream: DemandStream, start_x: float | None = None, eta: float = 1.0,
           trace: bool = False) -> RunResult:
    """Causal longest path over outstanding demands, committing an eta
    fraction (ceil) of each recomputed path."""
    if not (is_number(eta) and 0 < eta <= 1):
        raise ParameterDomainError(f"eta must be in (0, 1], got {eta!r}")
    eta = float(eta)
    sim = _EventKernel(stream, start_x, trace)
    t_arr, xs, ids, l_v = stream.t_arr, stream.x, stream.ids, sim.l_v

    def planner(t, x):
        if not sim.outstanding:
            return []
        plan = _chain(x, t, list(sim.outstanding), t_arr, xs, ids, l_v)
        return plan[:math.ceil(eta * len(plan))]

    return _run(sim, planner)


def run_gp(stream: DemandStream, start_x: float | None = None,
           trace: bool = False) -> RunResult:
    """Greedy path: chase the reachable demand with the earliest deadline,
    the smallest id among equal ones.  `outstanding` is in arrival order,
    so deadlines never decrease along it and the scan stops past the first
    reachable one: O(k) for the k demands up to there, usually a few."""
    sim = _EventKernel(stream, start_x, trace)
    t_arr, xs, ids, l_v = stream.t_arr, stream.x, stream.ids, sim.l_v

    def planner(t, x):
        best = None
        for k in sim.outstanding:
            dl = t_arr[k] + l_v
            if best is not None and dl > best_dl:
                break
            if abs(x - xs[k]) <= dl - t and (best is None or ids[k] < ids[best]):
                best, best_dl = k, dl
        return [] if best is None else [best]

    return _run(sim, planner)
