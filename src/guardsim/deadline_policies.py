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


@dataclass(slots=True)              # slotted: a trace builds one per event
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
    if not isinstance(result, RunResult):
        raise ParameterDomainError(f"expected a RunResult, got {result!r}")
    if result.trace is None:
        raise ParameterDomainError("run has no trace; rerun with trace=True")
    write_jsonl((ev.to_dict() for ev in result.trace), path)


# one mark per stream position; every position is open until it is
# captured or escapes
_OPEN, _CAPTURED, _ESCAPED = 0, 1, 2
_OPEN_BYTE, _ESCAPED_BYTE = bytes((_OPEN,)), bytes((_ESCAPED,))


class _EventKernel:
    """Event bookkeeping shared by both regimes; a policy adds its planner.

    The kernel reads the stream's `t_arr` column and `arrays`, and never
    writes to them.  It and the planners name a demand by its position k in
    the stream.  It admits the arrivals and fires the escapes in time order
    while the policy commits captures, and alone owns a demand's state: two
    cursors into the stream, one mark per position (open, captured or
    escaped) and the counters.  Arrivals increase strictly and each demand
    escapes L/v after it arrives, so escapes come in arrival order too:
    `arrived` counts the demands admitted so far, and `_passed` those whose
    escape instant has passed.  `advance` moves both by bisection over the
    arrival instants and the escape instants `t_esc` = t_arr + L/v (made
    once per run; GP and TF read them too), and marks escaped the open
    positions it passes in a few `bytearray` operations.  A position is
    outstanding once it has arrived and until it is captured or escapes;
    on the deadline every capture falls on an escape instant, so
    `outstanding` is `range(_passed, arrived)`, while TF leaves captured
    holes above `_passed`.  With a trace, `log` keeps one entry per
    `recompute`, (t, x, arrived), and one per `commit`, (ks, legs, replans,
    cut), from which `_trace` builds the trace after the run; the state
    changes alike with or without it.

    Ties: an escape fires before an arrival or a capture at the same
    instant; escapes at one instant fire in arrival order.  Committed
    targets never escape: a commit marks them captured before it moves, and
    in the strip takes a target only while it is outstanding at the
    previous capture instant.  The policies order the rest:
    - deadline: capture, recompute, arrival, recompute.  LP and GP replan
      at a capture instant before they admit the arrival there, and again
      after it; NCLP never replans.  A plan made at t is committed at once:
      the commit's cursor move admits the arrivals at t, which come before
      its first capture instant, as if they were admitted before the
      commit.  GP's one-call chain picks as a replan at each capture
      instant would (see `run_gp`), and its trace has a recompute after
      every capture but the last.
    - strip: capture, arrival, recompute.  TF commits a whole sweep, then
      admits the arrivals at its end before it plans the next one.
    """

    def __init__(self, stream: DemandStream, start, trace: bool, strip: bool = False):
        if not isinstance(stream, DemandStream):
            raise ParameterDomainError(f"expected a DemandStream, got {stream!r}")
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
        self._x_arr = stream.arrays[1]
        self.arrived = 0              # position arrived arrives next
        self._passed = 0              # positions below _passed are past their escape instant
        self._mark = bytearray(len(self._t_arr))
        self.log: list[tuple] | None = [] if trace else None
        self.n_capt = 0
        self.n_esc = 0

    @property
    def outstanding(self):
        """Positions of the outstanding demands, in arrival order."""
        ks = range(self._passed, self.arrived)
        if self.strip:
            mark = self._mark
            return [k for k in ks if mark[k] == _OPEN]
        return ks

    def advance(self, t_end: float, inclusive_arrivals: bool) -> None:
        """Fire escapes through t_end and arrivals before it (through it if
        inclusive_arrivals): move both cursors and mark escaped the open
        positions they pass."""
        p0 = self._passed
        a1 = (bisect_right if inclusive_arrivals else bisect_left)(self._t_arr, t_end,
                                                                    self.arrived)
        p1 = bisect_right(self.t_esc, t_end, p0, a1)       # only admitted demands escape
        self.arrived, self._passed = a1, p1
        mark = self._mark
        n = mark.count(_OPEN, p0, p1)
        if n:
            mark[p0:p1] = mark[p0:p1].replace(_OPEN_BYTE, _ESCAPED_BYTE)
            self.n_esc += n

    def commit(self, ks: list[int], t: float, x: float, legs=None, cut=None,
               _replans: bool = False):
        """Capture the positions ks in order, from the vehicle at x at t, and
        return its (t, x) afterwards.  On the deadline each is captured on
        its deadline.  In the strip, legs holds each capture's (instant, leg
        duration), and cut, for a sweep whose budget ran out mid-leg, is
        (leg, t_stop, x_stop): the leg (t0, x_from, x_to, dur) from the last
        capture and where it stops.  With _replans (GP's greedy chain), the
        trace has a recompute after every capture but the last.

        One pass over ks checks each position and marks it captured, and
        one cursor move to the last instant admits every arrival before it,
        those at t among them; the move marks escaped only open positions.
        Each position must be open, once in ks, at instants that never
        decrease, and arrive before its capture instant on the deadline, or
        in the strip be outstanding at the previous capture instant (t for
        the first); it may be captured past its escape instant.  Otherwise
        ContractViolationError, and the pass reopens what it marked."""
        t_arr, t_esc, mark = self._t_arr, self.t_esc, self._mark
        n, arrived, t_k = len(mark), self.arrived, t
        if legs is None:
            for i, k in enumerate(ks):
                if not (0 <= k < n and mark[k] == _OPEN and t_k <= t_esc[k]
                        and (k < arrived or t_arr[k] < t_esc[k])):
                    self._refuse(ks[:i], k, t)
                mark[k] = _CAPTURED
                t_k = t_esc[k]
        else:
            if len(legs) != len(ks):
                raise ContractViolationError(
                    f"cannot commit {len(ks)} positions with {len(legs)} legs")
            for i, (k, (t_c, _)) in enumerate(zip(ks, legs)):
                if not (0 <= k < n and mark[k] == _OPEN and t_k < t_esc[k] and t_k <= t_c
                        and (k < arrived or t_arr[k] < t_k)):
                    self._refuse(ks[:i], k, t)
                mark[k] = _CAPTURED
                t_k = t_c
        if self.log is not None:
            self.log.append((ks, legs, _replans, cut))
        if not ks:
            return t, x
        self.advance(t_k, False)
        self.n_capt += len(ks)
        return t_k, self._x_arr.item(ks[-1])

    def _refuse(self, marked: list[int], k: int, t: float):
        for j in marked:
            self._mark[j] = _OPEN
        raise ContractViolationError(
            f"cannot commit position {k} at t={t}: not outstanding in time for its "
            f"capture, repeated, or captured out of time order")

    def recompute(self, t: float, x: float) -> None:
        if self.log is not None:
            self.log.append((t, x, self.arrived))

    def finish(self) -> RunResult:
        """Let every remaining demand arrive and escape; check conservation."""
        self.advance(math.inf, True)
        if self.n_capt + self.n_esc != len(self._t_arr):
            raise ContractViolationError(
                f"{self.n_capt} captures + {self.n_esc} escapes "
                f"!= {len(self._t_arr)} demands")
        return RunResult(self.n_capt, self.n_esc,
                         trace=None if self.log is None else _trace(self))


def _trace(sim: _EventKernel) -> list[TraceEvent]:
    """The trace of a finished run, built from its log and its marks.

    Each recompute, capture and cut end comes after the arrivals and
    escapes the kernel had fired by then: the arrivals below a recompute's
    logged `arrived`, strictly before a capture instant, or through a cut's
    t_stop, and the escapes of admitted demands through that instant.  An
    escape comes before an arrival at the same instant, but never before
    its own demand's arrival.  The vehicle moves on the leg into each
    capture or cut, from the last entry's (t, x), and waits at its end.  A
    leg (t0, x_from, x_to, dur) slides at unit speed on the deadline,
    x = x_from +- (t - t0) until t0 + dur, and crosses a straight segment
    in the strip, x = x_from + frac * (x_to - x_from); the two round
    differently, so both stay."""
    ids, xs, t_arr, t_esc, strip = sim.stream.ids, sim.stream.x, sim._t_arr, sim.t_esc, sim.strip
    n = len(t_arr)
    escaped = [k for k, m in enumerate(sim._mark) if m == _ESCAPED] + [n]     # n stops fire
    events: list[TraceEvent] = []
    a = i = 0
    t, x = 0.0, sim.start[0]
    leg = (t, x, x, 0.0)

    def x_at(t_e: float) -> float:
        t0, x_from, x_to, dur = leg
        if strip:
            return x_from if dur <= 0.0 else \
                x_from + min(max(t_e - t0, 0.0), dur) / dur * (x_to - x_from)
        return x_to if t_e >= t0 + dur else x_from + math.copysign(t_e - t0, x_to - x_from)

    def fire(a_end: int, t_end: float) -> None:
        """Arrivals below a_end and escapes through t_end, in time order."""
        nonlocal a, i
        while escaped[i] < a_end and t_esc[escaped[i]] <= t_end:
            k = escaped[i]
            t_e = t_esc[k]
            while a <= k or (a < a_end and t_arr[a] < t_e):
                events.append(TraceEvent(t_arr[a], "arrival", ids[a], x_at(t_arr[a])))
                a += 1
            events.append(TraceEvent(t_e, "escape", ids[k], x_at(t_e)))
            i += 1
        events.extend(TraceEvent(t_arr[j], "arrival", ids[j], x_at(t_arr[j]))
                      for j in range(a, a_end))
        a = a_end

    for entry in sim.log:
        if len(entry) == 3:                 # a recompute
            t, x, arrived = entry
            fire(arrived, t)
            events.append(TraceEvent(t, "recompute", None, x))
            continue
        ks, legs, replans, cut = entry
        for c, k in enumerate(ks):
            x_k = xs[k]
            t_k, dur = (t_esc[k], abs(x_k - x)) if legs is None else legs[c]
            leg = (t, x, x_k, dur)
            fire(bisect_left(t_arr, t_k, a), t_k)
            events.append(TraceEvent(t_k, "capture", ids[k], x_k))
            if replans and c < len(ks) - 1:
                events.append(TraceEvent(t_k, "recompute", None, x_k))
            t, x = t_k, x_k
        if cut is not None:
            leg, t, x = cut
            fire(bisect_right(t_arr, t, a), t)
        leg = (t, x, x, 0.0)
    fire(n, math.inf)
    return events


def _check_start(env, start, strip: bool) -> tuple:
    """The vehicle's start, by default mid-strip: (x,) with x in [0, W] on
    the deadline, a point (x, y) of [0, W] x [0, L] in the strip; -0.0 is
    taken as 0.0, so a trace never logs both at one instant."""
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
    return tuple(float(c) + 0.0 for c in p)


def _run(sim: _EventKernel, planner, replans: bool = False) -> RunResult:
    """Replan after every commit and every arrival until the stream resolves.

    planner(t, x) -> positions of outstanding demands to commit, in capture
    order; it commits only paths the vehicle can follow from (x, L) at t.
    With replans, each capture but the last is also a replan (GP's chain).
    A plan costs one planner call and one kernel call: a non-empty plan
    goes straight to `commit`, whose cursor move admits the arrivals at t
    before its first capture instant, which lies after t (the planners
    offer only demands whose escape instant is still ahead).  Only an
    empty plan admits the arrivals at t by `advance`, and when there are
    none, the loop idles to the next arrival.
    """
    t_arr = sim.stream.t_arr
    t, x = 0.0, sim.start[0]
    while True:
        commit = planner(t, x)
        sim.recompute(t, x)
        if commit:
            t, x = sim.commit(commit, t, x, _replans=replans)
            continue
        waiting = sim.arrived
        sim.advance(t, True)
        if sim.arrived == waiting:            # nothing new: idle or done
            if sim.arrived == len(t_arr):
                return sim.finish()
            t = t_arr[sim.arrived]
            sim.advance(t, True)


def run_nclp(stream: DemandStream, start_x: float | None = None,
             trace: bool = False) -> RunResult:
    """Non-causal longest path: one plan at t=0 over every demand that
    escapes after it arrives (with L/v below half an ulp of t_arr, one
    escapes as it arrives), by the O(n log n) chain that longest_chain_fast
    runs on records, and one commit, whose cursor move admits every arrival
    up to its last capture instant."""
    sim = _EventKernel(stream, start_x, trace)
    x0 = sim.start[0]
    cols = _chain_columns(*stream.arrays, sim.l_v)
    ahead = cols[2] > stream.arrays[0]
    ks = range(len(stream)) if ahead.all() else ahead.nonzero()[0].tolist()
    plan = _chain(x0, 0.0, ks, cols)
    sim.recompute(0.0, x0)
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
    the smallest id among equal ones, and replan at its capture instant.

    One planner call plans the whole greedy chain, and `_run` hands it to
    one commit.  The planner keeps its own copies of the kernel's cursors
    and, after each pick captured at t, moves them as the commit's move
    would: arrivals strictly before t (`bisect_left` on the arrival
    instants) and escapes through t (`bisect_right` on the kernel's
    `t_esc`, which passes the pick itself).  Between the two cursors lie
    the demands outstanding at t, in arrival order, so deadlines never
    decrease along them and each scan stops past the first reachable one:
    O(k) for the k demands up to there, usually a few.  The chain ends when
    nothing is reachable; `_run` then admits the arrivals at t and replans.
    The planner reads only the kernel's `outstanding`, `arrived`, `t_esc`
    and `stream`."""
    sim = _EventKernel(stream, start_x, trace)
    t_arr, t_esc, xs, ids = stream.t_arr, sim.t_esc, stream.x, stream.ids

    def planner(t, x):
        a = sim.arrived
        p = next(iter(sim.outstanding), a)
        chain = []
        while True:
            best = None
            for k in range(p, a):
                dl = t_esc[k]
                if best is not None and dl > best_dl:
                    break
                if abs(x - xs[k]) <= dl - t and (best is None or ids[k] < ids[best]):
                    best, best_dl = k, dl
            if best is None:
                return chain
            chain.append(best)
            t, x = best_dl, xs[best]
            a = bisect_left(t_arr, t, a)
            p = bisect_right(t_esc, t, p, a)

    return _run(sim, planner, replans=True)
