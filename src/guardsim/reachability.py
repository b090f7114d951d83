"""Reachability graphs and longest-path planning for the fast-vehicle regime.

For v >= 1 the vehicle can guard the deadline y = L and intercept each
demand exactly when it gets there, so capturability reduces to a purely
combinatorial condition on (t_arr, x) pairs: demand j can follow demand i
iff |x_i - x_j| <= t_j - t_i.  That relation is a DAG and the best plan is
its longest source-rooted path.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .core import Demand, VehicleState
from .errors import ContractViolationError, ParameterDomainError, RegimeError, is_count, \
    is_number, require_positive


@dataclass
class PathPlan:
    """A feasible capture order: demand ids plus their scheduled instants."""

    order: list[int]
    capture_times: list[float]
    length: int


@dataclass
class ReachGraph:
    """Reachability DAG over a demand set, rooted at a vehicle vertex, with
    the longest plan through it; made by build_reach_graph."""

    source: VehicleState
    vertices: list[int]                 # demand ids
    source_edges: list[int]             # ids directly reachable from the source
    edges: dict[int, list[int]]         # id -> sorted successor ids
    topo_order: list[int]               # ids by (t_arr, id); valid topological order
    plan: PathPlan                      # longest_chain_fast on the same input


def _check_regime_and_state(vehicle: VehicleState, v: float, L: float) -> None:
    require_positive(v=v, L=L)
    if v < 1.0:
        raise RegimeError(f"deadline reachability needs v >= 1, got v={v}")
    if not isinstance(vehicle, VehicleState):
        raise ParameterDomainError(f"vehicle must be a VehicleState, got {vehicle!r}")
    if not is_number(vehicle.x):
        raise ParameterDomainError(f"vehicle abscissa must be finite, got x={vehicle.x!r}")
    if not is_number(vehicle.t):
        raise ParameterDomainError(f"vehicle time must be finite, got t={vehicle.t!r}")
    if vehicle.y != L:
        raise ContractViolationError(
            f"vehicle must sit on the deadline y={L}, got y={vehicle.y}"
        )


def _columns(demands) -> tuple[list[int], list[float], list[float]]:
    """(ids, t_arr, x) of demands, an iterable of Demand records read once;
    raises ContractViolationError for anything else, or repeated ids."""
    if isinstance(demands, (str, bytes)) or not hasattr(demands, "__iter__"):
        raise ContractViolationError(
            f"demands must be an iterable of Demand records, got {demands!r}")
    ids, ts, xs = [], [], []
    for d in demands:
        if not (isinstance(d, Demand) and is_count(d.id) and is_number(d.t_arr)
                and is_number(d.x)):
            raise ContractViolationError(
                f"demand record {d!r} must be a Demand with a count id and finite t_arr and x")
        ids.append(d.id)
        ts.append(float(d.t_arr))
        xs.append(float(d.x))
    if len(set(ids)) != len(ids):
        raise ContractViolationError("demand ids must be unique")
    return ids, ts, xs


def build_reach_graph(vehicle: VehicleState, demands, v: float, L: float) -> ReachGraph:
    """Reachability DAG from a vehicle on the deadline over unescaped demands.

    O(n^2); edge (i, j) iff i != j and |x_i - x_j| <= t_j - t_i, an exact
    duplicate (t, x) pair only from the smaller id to the larger; source
    edge to i iff the vehicle can reach abscissa x_i by the demand's
    deadline.  The plan is the one NCLP and LP follow from this vehicle
    state: a longest source-rooted path of these edges.
    """
    _check_regime_and_state(vehicle, v, L)
    ids, ts, xs = _columns(demands)
    plan = _chain_plan(vehicle, ids, ts, xs, L / v)         # refuses an escaped demand
    topo = sorted(range(len(ids)), key=lambda k: (ts[k], ids[k]))
    ids = [ids[k] for k in topo]
    ts = np.array([ts[k] for k in topo])
    xs = np.array([xs[k] for k in topo])

    src_mask = np.abs(vehicle.x - xs) <= ts + L / v - vehicle.t
    edges: dict[int, list[int]] = {}
    for k, i in enumerate(ids):
        # prefix scan: topo order makes every admissible successor sit at
        # index > k (exact duplicates are adjacent and id-ordered)
        ok = np.abs(xs[k + 1:] - xs[k]) <= ts[k + 1:] - ts[k]
        edges[i] = list(compress(ids[k + 1:], ok.tolist()))
    return ReachGraph(
        source=vehicle,
        vertices=sorted(ids),
        source_edges=list(compress(ids, src_mask.tolist())),
        edges=edges,
        topo_order=ids,
        plan=plan,
    )


def longest_chain_fast(vehicle: VehicleState, demands, v: float, L: float) -> PathPlan:
    """Longest capture plan in O(n log n) via the dominance form of the edges.

    Map each demand to (u, w) = (t - x, t + x); then j can follow i iff
    u_j >= u_i and w_j >= w_i, and the source constraint is dominance over
    the virtual pair built from (t0 - L/v, X).  Reachability from the source
    propagates along edges, so filtering to source-reachable demands and
    taking the longest coordinate-wise nondecreasing chain gives exactly the
    longest-path length.
    """
    _check_regime_and_state(vehicle, v, L)
    return _chain_plan(vehicle, *_columns(demands), L / v)


def _chain_plan(vehicle: VehicleState, ids, ts, xs, l_v: float) -> PathPlan:
    """longest_chain_fast's PathPlan over the columns (ids, ts, xs)."""
    chain = _chain(vehicle.x, vehicle.t, range(len(ids)), _chain_columns(ts, xs, ids, l_v))
    return PathPlan(order=[ids[k] for k in chain],
                    capture_times=[ts[k] + l_v for k in chain], length=len(chain))


def _chain_columns(t_arr, xs, ids, l_v: float) -> tuple:
    """The chain planner's arrays over the columns (t_arr, xs, ids), arrays
    or lists, by position: (u, w, esc, ids, l_v), with the dominance
    coordinates u = t_arr - x and w = t_arr + x, the deadlines
    esc = t_arr + l_v, and the ids that break (u, w) ties.  The policies
    make them once per run from `DemandStream.arrays`, and every _chain
    call of the run reads them."""
    t_arr = np.asarray(t_arr, dtype=float)
    xs = np.asarray(xs, dtype=float)
    return t_arr - xs, t_arr + xs, t_arr + l_v, np.asarray(ids, dtype=np.int64), l_v


def _chain(x: float, t_now: float, ks, cols: tuple) -> list[int]:
    """Positions, in capture order, of a longest plan from abscissa x on the
    deadline at t_now over the demands at positions ks of cols, the arrays
    of _chain_columns, each captured on its deadline.  Refuses a demand
    already escaped at t_now, naming the first in ks order.  Ties go by
    (u, w, id).

    ks is a sized iterable of positions; a unit-step range, such as the
    event kernel's `outstanding` on the deadline, is read as a slice, and
    anything else by indexing.  One vectorised escape check, mask and
    lexsort per call; only the patience sort over the kept w runs in Python.
    """
    u, w, esc, ids, l_v = cols
    if isinstance(ks, range) and ks.step == 1:
        at, base = slice(ks.start, ks.stop), ks.start
    else:
        at, base = np.fromiter(ks, dtype=np.intp, count=len(ks)), None
    late = esc[at] <= t_now
    if late.any():
        raise ContractViolationError(
            f"demand {ids[at][late.argmax()]} already escaped at t={t_now}")
    t0v = t_now - l_v
    uk, wk = u[at], w[at]
    keep = np.flatnonzero((uk >= t0v - x) & (wk >= t0v + x))
    if not len(keep):
        return []
    pos = keep + base if base is not None else at[keep]
    pos = pos[np.lexsort((ids[pos], wk[keep], uk[keep]))]
    ws, pos = w[pos].tolist(), pos.tolist()

    # patience sorting for the longest nondecreasing subsequence in w
    tails_w: list[float] = []
    tails_at: list[int] = []
    prev = [-1] * len(pos)
    for idx, wv in enumerate(ws):
        k = bisect.bisect_right(tails_w, wv)
        if k > 0:
            prev[idx] = tails_at[k - 1]
        if k == len(tails_w):
            tails_w.append(wv)
            tails_at.append(idx)
        else:
            tails_w[k] = wv
            tails_at[k] = idx
    chain = []
    k = tails_at[-1]
    while k >= 0:
        chain.append(pos[k])
        k = prev[k]
    chain.reverse()
    return chain


def graph_to_dict(graph: ReachGraph) -> dict:
    """JSON-friendly dump of a graph plus its plan (CLI, goldens)."""
    plan = graph.plan
    return {
        "source": {"x": graph.source.x, "y": graph.source.y, "t": graph.source.t},
        "vertices": graph.vertices,
        "source_edges": graph.source_edges,
        "edges": {str(i): graph.edges[i] for i in sorted(graph.edges)},
        "longest_path": {"order": plan.order, "capture_times": plan.capture_times,
                         "length": plan.length},
    }
