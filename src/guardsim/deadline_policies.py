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
# NCLP and LP plan with _chain on _chain_columns of the stream's arrays, made
# once per run; longest_chain_fast stays importable here, where
# bench/spans.py looks it up by name
from .reachability import _chain, _chain_columns, longest_chain_fast  # noqa: F401


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


# one mark per stream position; every position is open until it resolves
_OPEN, _PROTECTED, _RESOLVED = 0, 1, 2
_OPEN_BYTE, _RESOLVED_BYTE = bytes((_OPEN,)), bytes((_RESOLVED,))


class _EventKernel:
    """Event bookkeeping shared by both regimes; a policy adds its planner.

    The kernel reads the stream's columns (`DemandStream.ids`, `t_arr`, `x`)
    and never writes to them; it and the planners name a demand by its
    position k in the stream, and a trace event names ids[k].  It admits
    the arrivals and fires the escapes in time order while the policy moves
    the vehicle along motion legs and captures.  It alone owns a demand's
    state, which is two cursors into the stream plus one mark per position
    (open, protected or resolved), with the current leg, the counters and
    the trace.  Arrivals increase strictly, and each demand escapes L/v
    after it arrives, so escapes come in arrival order too: `arrived`
    counts the demands admitted so far, and `_passed` counts those whose
    escape instant has passed.  Each `advance` finds the window of
    arrivals and the window of escapes it crosses by bisection over the
    arrival instants and the escape instants `t_esc` = t_arr + L/v, which
    are computed once per run from the stream's arrays (one stream may
    serve several environments) and which GP reads too, and
    counts and resolves the open marks of its escape window in a few
    `bytearray` operations.  A position is outstanding once it has arrived
    and until it resolves; `outstanding` lists them in arrival order.  On
    the deadline every capture falls on an escape instant, so that list is
    `range(_passed, arrived)`; TF captures before escape instants and
    leaves resolved holes above `_passed`.  Traced and untraced runs change
    the state alike; a kept trace only adds the events, merged in the
    order below.

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
        if not isinstance(trace, bool):
            raise ParameterDomainError(f"trace must be True or False, got {trace!r}")
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
        self.t_esc = (stream.arrays[0] + l_v).tolist()
        self.arrived = 0              # position arrived arrives next
        self._passed = 0              # positions below _passed are past their escape instant
        self._mark = bytearray(len(self._t_arr))
        self.events: list[TraceEvent] | None = [] if trace else None
        self.n_capt = 0
        self.n_esc = 0
        x0 = self.start[0]
        self.leg = (0.0, x0, x0, 0.0)

    @property
    def outstanding(self):
        """Positions of the outstanding demands, in arrival order."""
        ks = range(self._passed, self.arrived)
        if self.strip:
            mark = self._mark
            return [k for k in ks if mark[k] != _RESOLVED]
        return ks

    def is_outstanding(self, k: int) -> bool:
        return 0 <= k < self.arrived and self._mark[k] != _RESOLVED

    def protect(self, k: int) -> None:
        """Keep the outstanding demand at position k from escaping until
        it is captured."""
        if not self.is_outstanding(k):
            raise ContractViolationError(f"demand {self.stream.ids[k]} is not outstanding")
        self._mark[k] = _PROTECTED

    def _x_at(self, t: float) -> float:
        t0, x_from, x_to, dur = self.leg
        if self.strip:
            if dur <= 0.0:
                return x_from
            return x_from + min(max(t - t0, 0.0), dur) / dur * (x_to - x_from)
        if t >= t0 + dur:
            return x_to
        return x_from + math.copysign(t - t0, x_to - x_from)

    def _move(self, t_end: float, inclusive_arrivals: bool):
        """Move both cursors to t_end and resolve the escapes they pass;
        returns the escaped positions when a trace is kept."""
        a0, p0 = self.arrived, self._passed
        a1 = (bisect_right if inclusive_arrivals else bisect_left)(self._t_arr, t_end, a0)
        p1 = bisect_right(self.t_esc, t_end, p0, a1)       # only admitted demands escape
        self.arrived = a1
        if p1 == p0:
            return ()
        self._passed = p1
        mark = self._mark
        n = mark.count(_OPEN, p0, p1)
        if not n:
            return ()
        fired = () if self.events is None else [k for k in range(p0, p1) if mark[k] == _OPEN]
        mark[p0:p1] = mark[p0:p1].replace(_OPEN_BYTE, _RESOLVED_BYTE)
        self.n_esc += n
        return fired

    def advance(self, t_end: float, inclusive_arrivals: bool) -> None:
        """Fire escapes through t_end and arrivals before it (through it if
        inclusive_arrivals), in time order."""
        a0 = self.arrived
        fired = self._move(t_end, inclusive_arrivals)
        if self.events is not None:
            self._log(a0, self.arrived, fired)

    def _log(self, a0: int, a1: int, fired) -> None:
        """Trace the arrivals of positions a0..a1-1 and the escapes of fired,
        in time order: an escape before an arrival at one instant, but never
        before its own demand's arrival."""
        ids, t_arr, t_esc = self.stream.ids, self._t_arr, self.t_esc
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
        if not self.is_outstanding(k):
            raise ContractViolationError(
                f"demand {self.stream.ids[k]} is not outstanding at t={t}")
        self._mark[k] = _RESOLVED
        self.n_capt += 1
        if self.events is not None:
            self.events.append(TraceEvent(t, "capture", self.stream.ids[k], self.stream.x[k]))

    def commit(self, ks: list[int], t: float, x: float):
        """Capture the positions ks in order, each on its deadline: slide to
        its abscissa and wait.  Returns the vehicle's (t, x) afterwards.

        The capture instants are fixed, so the commit is one cursor move to
        the last of them with ks protected.  A kept trace logs the move's
        window per capture: that capture's leg, the escapes at or before
        its instant and the arrivals strictly before it, then the capture,
        as a capture-by-capture walk would.  Each position must arrive
        before its capture instant and be unresolved, once in ks, with
        instants that never decrease; otherwise ContractViolationError,
        before any state changes."""
        if not ks:
            return t, x
        t_arr, t_esc, mark = self._t_arr, self.t_esc, self._mark
        n, arrived, t_k = len(mark), self.arrived, t
        for i, k in enumerate(ks):
            if not (0 <= k < n and mark[k] == _OPEN and t_k <= t_esc[k]
                    and (k < arrived or t_arr[k] < t_esc[k])):
                for j in ks[:i]:
                    mark[j] = _OPEN
                raise ContractViolationError(
                    f"cannot commit position {k} at t={t}: not outstanding before its "
                    f"capture instant, repeated, or captured out of time order")
            mark[k] = _PROTECTED
            t_k = t_esc[k]
        a, p = self.arrived, self._passed
        fired = self._move(t_k, False)
        if self.events is not None:
            ids, xs, events, i = self.stream.ids, self.stream.x, self.events, 0
            for k in ks:        # the cursors of advance(t_k, False), capture(k, t_k)
                t_k, x_k = t_esc[k], xs[k]
                self.leg = (t, x, x_k, abs(x_k - x))
                a_k = bisect_left(t_arr, t_k, a)
                p = bisect_right(t_esc, t_k, p, a_k)
                j = bisect_left(fired, p, i)
                self._log(a, a_k, fired[i:j])
                events.append(TraceEvent(t_k, "capture", ids[k], x_k))
                a, i, t, x = a_k, j, t_k, x_k
        for k in ks:
            mark[k] = _RESOLVED
        self.n_capt += len(ks)
        t, x = t_esc[ks[-1]], self.stream.x[ks[-1]]
        self.leg = (t, x, x, 0.0)
        return t, x

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
            t, x = sim.commit(commit, t, x)
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
    plan = _chain(x0, 0.0, range(len(stream)), _chain_columns(*stream.arrays, sim.l_v))
    sim.recompute(0.0, x0)
    sim.advance(0.0, True)
    sim.commit(plan, 0.0, x0)
    return sim.finish()


def run_lp(stream: DemandStream, start_x: float | None = None, eta: float = 1.0,
           trace: bool = False) -> RunResult:
    """Causal longest path over outstanding demands, committing an eta
    fraction (ceil) of each recomputed path."""
    if not (is_number(eta) and 0 < eta <= 1):
        raise ParameterDomainError(f"eta must be in (0, 1], got {eta!r}")
    eta = float(eta)
    sim = _EventKernel(stream, start_x, trace)
    cols = _chain_columns(*stream.arrays, sim.l_v)

    def planner(t, x):
        ks = sim.outstanding
        if not ks:
            return []
        plan = _chain(x, t, ks, cols)
        return plan[:math.ceil(eta * len(plan))]

    return _run(sim, planner)


def run_gp(stream: DemandStream, start_x: float | None = None,
           trace: bool = False) -> RunResult:
    """Greedy path: chase the reachable demand with the earliest deadline,
    the smallest id among equal ones.  The kernel's `outstanding` is the
    range of positions from the first unpassed escape to the last arrival,
    in arrival order, so deadlines (read from the kernel's `t_esc`) never
    decrease along it and the scan stops past the first reachable one:
    O(k) for the k demands up to there, usually a few."""
    sim = _EventKernel(stream, start_x, trace)
    t_esc, xs, ids = sim.t_esc, stream.x, stream.ids

    def planner(t, x):
        best = None
        for k in sim.outstanding:
            dl = t_esc[k]
            if best is not None and dl > best_dl:
                break
            if abs(x - xs[k]) <= dl - t and (best is None or ids[k] < ids[best]):
                best, best_dl = k, dl
        return [] if best is None else [best]

    return _run(sim, planner)
