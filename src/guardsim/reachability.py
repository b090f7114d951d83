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

from .core import VehicleState, _read_demands
from .errors import ContractViolationError, ParameterDomainError, RegimeError, is_number, \
    require_positive


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
        raise ContractViolationError(f"vehicle must sit on the deadline y={L}, got y={vehicle.y}")


def build_reach_graph(vehicle: VehicleState, demands, v: float, L: float) -> ReachGraph:
    """Reachability DAG from a vehicle on the deadline over unescaped demands.

    O(n^2); edge (i, j) iff i != j and |x_i - x_j| <= t_j - t_i, an exact
    duplicate (t, x) pair only from the smaller id to the larger; source
    edge to i iff the vehicle can reach abscissa x_i by the demand's
    deadline.  The plan is the one NCLP and LP follow from this vehicle
    state: a longest source-rooted path of these edges.  Checks as
    longest_chain_fast does.
    """
    _check_regime_and_state(vehicle, v, L)
    ts, xs, ids = _read_demands(demands)
    plan = _chain_plan(vehicle, ts, xs, ids, L / v)         # refuses an escaped demand
    topo = np.lexsort((ids, ts))
    ids, ts, xs = ids[topo].tolist(), ts[topo], xs[topo]

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
    longest-path length.  demands, Demand records in any time order, pass
    `DemandStream`'s reader, `core._columns`, with no order or range check:
    count ids, unique, and finite numbers for t_arr and x, not bools.
    """
    _check_regime_and_state(vehicle, v, L)
    return _chain_plan(vehicle, *_read_demands(demands), L / v)


def _chain_plan(vehicle: VehicleState, ts, xs, ids, l_v: float) -> PathPlan:
    """longest_chain_fast's PathPlan over the arrays (ts, xs, ids)."""
    chain = _chain(vehicle.x, vehicle.t, range(len(ids)), _chain_columns(ts, xs, ids, l_v))
    return PathPlan(order=ids[chain].tolist(), capture_times=(ts[chain] + l_v).tolist(),
                    length=len(chain))


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

    ks is a sized iterable of positions in any time order; a unit-step
    range, such as the event kernel's `outstanding` on the deadline, is
    read as a slice, and anything else by indexing.  One vectorised escape
    check over all of ks and one mask per call, then an argsort on u, and
    a lexsort by (u, w, id) only on a u tie (-0.0 == 0.0 and inf == inf
    count as ties): with no two u equal, the order by u alone is the
    (u, w, id) order.  Only the patience sort over the kept w runs in
    Python.  It records each demand's pile, and one backward walk picks
    the chain: a demand's predecessor is the latest earlier demand on the
    pile below.  Only the chain's positions leave numpy.
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
    uk = uk[keep]
    order = uk.argsort()
    us = uk[order]
    if (us[1:] == us[:-1]).any():       # a u tie: the order by u alone is not unique
        order = np.lexsort((ids[pos], wk[keep], uk))
    pos = pos[order]

    # patience sorting for the longest nondecreasing subsequence in w
    tails: list[float] = []
    piles = []
    for wv in w[pos].tolist():
        k = bisect.bisect_right(tails, wv)
        piles.append(k)
        if k == len(tails):
            tails.append(wv)
        else:
            tails[k] = wv
    # walk back from the last demand on the top pile, each time to the
    # latest earlier demand on the pile below
    piles.reverse()
    last, i, chain = len(piles) - 1, 0, []
    for k in range(len(tails) - 1, -1, -1):
        i = piles.index(k, i)
        chain.append(last - i)
    chain.reverse()
    return pos[chain].tolist()


def graph_to_dict(graph: ReachGraph) -> dict:
    """JSON-friendly dump of a graph plus its plan (CLI, goldens)."""
    if not isinstance(graph, ReachGraph):
        raise ParameterDomainError(f"expected a ReachGraph, got {graph!r}")
    plan = graph.plan
    return {
        "source": {"x": graph.source.x, "y": graph.source.y, "t": graph.source.t},
        "vertices": graph.vertices,
        "source_edges": graph.source_edges,
        "edges": {str(i): graph.edges[i] for i in sorted(graph.edges)},
        "longest_path": {"order": plan.order, "capture_times": plan.capture_times,
                         "length": plan.length},
    }
