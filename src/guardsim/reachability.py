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

from .core import VehicleState
from .errors import ContractViolationError, ParameterDomainError, RegimeError, is_number


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
    if v < 1.0:
        raise RegimeError(f"deadline reachability needs v >= 1, got v={v}")
    if not is_number(vehicle.x):
        raise ParameterDomainError(f"vehicle abscissa must be finite, got x={vehicle.x!r}")
    if not is_number(vehicle.t):
        raise ParameterDomainError(f"vehicle time must be finite, got t={vehicle.t!r}")
    if vehicle.y != L:
        raise ContractViolationError(
            f"vehicle must sit on the deadline y={L}, got y={vehicle.y}"
        )


def build_reach_graph(vehicle: VehicleState, demands, v: float, L: float) -> ReachGraph:
    """Reachability DAG from a vehicle on the deadline over unescaped demands.

    O(n^2); edge (i, j) iff i != j and |x_i - x_j| <= t_j - t_i, an exact
    duplicate (t, x) pair only from the smaller id to the larger; source
    edge to i iff the vehicle can reach abscissa x_i by the demand's
    deadline.  The plan is the one NCLP and LP follow from this vehicle
    state: a longest source-rooted path of these edges.
    """
    plan = longest_chain_fast(vehicle, demands, v, L)      # checks the input too
    order = sorted(demands, key=lambda d: (d.t_arr, d.id))
    ids = [d.id for d in order]
    ts = np.array([d.t_arr for d in order])
    xs = np.array([d.x for d in order])

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
    l_v, t_now = L / v, vehicle.t
    t0v = t_now - l_v
    u_s = t0v - vehicle.x
    w_s = t0v + vehicle.x
    items = []
    for d in demands:       # one pass: refuse an escaped demand, keep the reachable ones
        t, x = d.t_arr, d.x
        if t + l_v <= t_now:
            raise ContractViolationError(f"demand {d.id} already escaped at t={t_now}")
        u = t - x
        w = t + x
        if u >= u_s and w >= w_s:
            items.append((u, w, d.id, d))
    items.sort()                    # ids are unique: no Demand is compared
    if not items:
        return PathPlan(order=[], capture_times=[], length=0)

    # patience sorting for the longest nondecreasing subsequence in w
    tails_w: list[float] = []
    tails_at: list[int] = []
    prev = [-1] * len(items)
    for idx, (_u, w, _i, _d) in enumerate(items):
        k = bisect.bisect_right(tails_w, w)
        if k > 0:
            prev[idx] = tails_at[k - 1]
        if k == len(tails_w):
            tails_w.append(w)
            tails_at.append(idx)
        else:
            tails_w[k] = w
            tails_at[k] = idx
    chain = []
    k = tails_at[-1]
    while k >= 0:
        chain.append(k)
        k = prev[k]
    chain.reverse()
    order = [items[k][2] for k in chain]
    times = [items[k][3].t_arr + l_v for k in chain]
    return PathPlan(order=order, capture_times=times, length=len(order))


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
