"""Event-driven simulation of the fast-vehicle policies (NCLP, LP, GP).

All three policies keep the vehicle on the deadline y = L and capture each
planned demand exactly at its escape instant t_arr + L/v via intercept
motion (slide to the demand's abscissa, wait there).  The simulation runs
each stream to quiescence: every demand ends captured or escaped.

Simultaneous-event ordering: escapes, then captures, then recomputes, then
arrivals, stable by demand id.  A recompute triggered by an arrival follows
that arrival at the same timestamp.
"""
from __future__ import annotations

import heapq
import json
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .core import Demand, DemandStream, VehicleState
from .errors import ContractViolationError, ParameterDomainError, RegimeError
from .reachability import PathPlan, build_reach_graph, longest_chain_fast, longest_path

# above this many demands the O(n^2) graph is replaced by the O(n log n)
# chain solver (identical path lengths; see reachability)
_AUTO_GRAPH_LIMIT = 600


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


class _DeadlineSim:
    """Shared event loop; policies differ only in their planner callback.

    planner(t, x, outstanding, first) -> list of Demand to commit, in
    capture order.  Committed demands are guaranteed capturable from
    (x, L, t) (the planner only ever commits graph paths), are immune to
    escape while committed, and are captured at their deadline instants.
    """

    def __init__(self, stream: DemandStream, start_x: float, trace: bool,
                 recompute_events: str = "all"):
        env = stream.env
        if env.v < 1.0:
            raise RegimeError(f"deadline policies need v >= 1, got v={env.v}")
        self.env = env
        self.demands = [replace(d) for d in stream]   # private copies
        self.by_id = {d.id: d for d in self.demands}
        self.pending = deque(self.demands)            # arrivals in time order
        self.outstanding: dict[int, Demand] = {}
        self.committed: set[int] = set()
        self.esc_heap: list[tuple[float, int]] = []
        self.x = start_x
        self.t = 0.0
        self.n_capt = 0
        self.n_esc = 0
        self.events: list[TraceEvent] | None = [] if trace else None
        self.recompute_events = recompute_events      # "all" or "first"
        # current motion leg: depart (t_dep, x_from), arrive x_to at t_arrive
        self._leg = (0.0, start_x, start_x, 0.0)

    # -- helpers ------------------------------------------------------------

    def emit(self, t: float, event: str, demand_id: int | None, vx: float) -> None:
        if self.events is not None:
            self.events.append(TraceEvent(t, event, demand_id, vx))

    def vehicle_x_at(self, t: float) -> float:
        t_dep, x_from, x_to, t_arrive = self._leg
        if t >= t_arrive:
            return x_to
        step = t - t_dep
        return x_from + math.copysign(step, x_to - x_from)

    def deadline(self, d: Demand) -> float:
        return d.escape_time(self.env)

    def _admit(self, d: Demand) -> None:
        self.pending.popleft()
        d.mark_outstanding()
        self.outstanding[d.id] = d
        heapq.heappush(self.esc_heap, (self.deadline(d), d.id))
        self.emit(d.t_arr, "arrival", d.id, self.vehicle_x_at(d.t_arr))

    def admit_through(self, t: float) -> int:
        """Admit every pending arrival with t_arr <= t; count them."""
        n = 0
        while self.pending and self.pending[0].t_arr <= t:
            self._admit(self.pending[0])
            n += 1
        return n

    def _peek_escape(self) -> tuple[float, int]:
        """Earliest live escape (lazily skipping resolved/committed)."""
        while self.esc_heap:
            t_e, i = self.esc_heap[0]
            d = self.by_id[i]
            if i in self.committed or d.resolve_time is not None:
                heapq.heappop(self.esc_heap)
                continue
            return t_e, i
        return math.inf, -1

    def _fire_escape(self, i: int, t_e: float) -> None:
        heapq.heappop(self.esc_heap)
        d = self.outstanding.pop(i)
        d.mark_escaped(t_e)
        self.n_esc += 1
        self.emit(t_e, "escape", i, self.vehicle_x_at(t_e))

    def drain_escapes_through(self, t: float) -> None:
        while True:
            t_e, i = self._peek_escape()
            if t_e > t:
                return
            self._fire_escape(i, t_e)

    # -- leg execution -------------------------------------------------------

    def execute(self, commit: list[Demand]) -> None:
        """Drive the committed capture sequence, interleaving arrivals and
        escapes of uncommitted demands in timestamp order."""
        self.committed.update(d.id for d in commit)
        for d in commit:
            t_cap = self.deadline(d)
            self._leg = (self.t, self.x, d.x, self.t + abs(d.x - self.x))
            while True:
                t_e, i_e = self._peek_escape()
                t_a = self.pending[0].t_arr if self.pending else math.inf
                # next event among escape (prio 0), this capture (prio 1),
                # arrival (prio 3)
                if t_e <= t_cap and t_e <= t_a:
                    self._fire_escape(i_e, t_e)
                    continue
                if t_a < t_cap and t_a < t_e:
                    self._admit(self.pending[0])
                    continue
                break
            self.outstanding.pop(d.id)
            self.committed.discard(d.id)
            d.mark_captured(t_cap)
            self.n_capt += 1
            self.emit(t_cap, "capture", d.id, d.x)
            self.t, self.x = t_cap, d.x
        self._leg = (self.t, self.x, self.x, self.t)

    # -- main loop ------------------------------------------------------------

    def run(self, planner) -> RunResult:
        first = True
        while True:
            commit = planner(self.t, self.x, self.outstanding, first)
            if self.recompute_events == "all" or first:
                self.emit(self.t, "recompute", None, self.x)
            first = False
            admitted = self.admit_through(self.t)
            if commit:
                self.execute(commit)
                self.drain_escapes_through(self.t)
                continue
            if admitted:
                continue                        # replan with the new arrivals
            if self.pending:
                t_next = self.pending[0].t_arr
                self.drain_escapes_through(t_next)   # idle; escapes come first
                self.t = t_next
                self.admit_through(t_next)
                continue
            # quiescence: nothing reachable, nothing pending
            while True:
                t_e, i_e = self._peek_escape()
                if i_e < 0:
                    break
                self._fire_escape(i_e, t_e)
            break
        if self.n_capt + self.n_esc != len(self.demands):
            raise ContractViolationError(
                f"{self.n_capt} captures + {self.n_esc} escapes "
                f"!= {len(self.demands)} demands")
        return RunResult(self.n_capt, self.n_esc, trace=self.events)


def _plan(vehicle: VehicleState, demands, v: float, L: float, method: str) -> PathPlan:
    if method == "auto":
        method = "graph" if len(demands) <= _AUTO_GRAPH_LIMIT else "chain"
    if method == "graph":
        return longest_path(build_reach_graph(vehicle, demands, v, L))
    if method == "chain":
        return longest_chain_fast(vehicle, demands, v, L)
    raise ParameterDomainError(f"unknown method {method!r}")


def _resolve_start(stream: DemandStream, start_x) -> float:
    if start_x is None:
        return stream.env.W / 2.0
    return float(start_x)


def run_nclp(stream: DemandStream, start_x: float | None = None,
             method: str = "auto", trace: bool = False) -> RunResult:
    """Non-causal longest path: one plan over the entire stream at t=0."""
    env = stream.env
    sim = _DeadlineSim(stream, _resolve_start(stream, start_x), trace,
                       recompute_events="first")

    def planner(t, x, outstanding, first):
        if not first:
            return []
        plan = _plan(VehicleState(x, env.L, t), sim.demands, env.v, env.L, method)
        return [sim.by_id[i] for i in plan.order]

    return sim.run(planner)


def run_lp(stream: DemandStream, start_x: float | None = None, eta: float = 1.0,
           trace: bool = False) -> RunResult:
    """Causal longest path over outstanding demands, committing an eta
    fraction (ceil) of each recomputed path."""
    env = stream.env
    if not isinstance(eta, (int, float)) or isinstance(eta, bool) or \
            not 0.0 < float(eta) <= 1.0 or not math.isfinite(eta):
        raise ParameterDomainError(f"eta must be in (0, 1], got {eta!r}")
    eta = float(eta)
    sim = _DeadlineSim(stream, _resolve_start(stream, start_x), trace)

    def planner(t, x, outstanding, first):
        if not outstanding:
            return []
        plan = _plan(VehicleState(x, env.L, t), list(outstanding.values()),
                     env.v, env.L, "chain")
        if plan.length == 0:
            return []
        k = math.ceil(eta * plan.length)
        return [sim.by_id[i] for i in plan.order[:k]]

    return sim.run(planner)


def run_gp(stream: DemandStream, start_x: float | None = None,
           trace: bool = False) -> RunResult:
    """Greedy path: always chase the reachable demand closest to escaping."""
    env = stream.env
    sim = _DeadlineSim(stream, _resolve_start(stream, start_x), trace)

    def planner(t, x, outstanding, first):
        if not outstanding:
            return []
        ds = list(outstanding.values())
        xs = np.array([d.x for d in ds])
        dls = np.array([d.t_arr for d in ds]) + env.L / env.v
        ok = np.abs(x - xs) <= dls - t
        if not ok.any():
            return []
        idx = np.flatnonzero(ok)
        dl = dls[idx]
        tie = dl == dl.min()
        cand = idx[tie]
        best = cand[np.argmin([ds[i].id for i in cand])]
        return [ds[int(best)]]

    return sim.run(planner)
