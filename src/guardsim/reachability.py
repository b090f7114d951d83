"""Reachability graphs and longest-path planning for the fast-vehicle regime.

For v >= 1 the vehicle can guard the deadline y = L and intercept each
demand exactly when it gets there, so capturability reduces to a purely
combinatorial condition on (t_arr, x) pairs: demand j can follow demand i
iff |x_i - x_j| <= t_j - t_i.  That relation is a DAG and the best plan is
its longest source-rooted path.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .core import VehicleState
from .errors import ContractViolationError, ParameterDomainError, RegimeError


@dataclass
class ReachGraph:
    """Reachability DAG over a demand set, rooted at a vehicle vertex; made
    by build_reach_graph."""

    source: VehicleState
    vertices: list[int]                 # demand ids
    source_edges: list[int]             # ids directly reachable from the source
    edges: dict[int, list[int]]         # id -> sorted successor ids
    topo_order: list[int]               # ids by (t_arr, id); valid topological order
    # flat arrays in topo order, read by the vectorized DP
    _ts: np.ndarray = field(repr=False)
    _xs: np.ndarray = field(repr=False)
    _ids: np.ndarray = field(repr=False)
    _dls: np.ndarray = field(repr=False)    # deadlines t_arr + L/v


@dataclass
class PathPlan:
    """A feasible capture order: demand ids plus their scheduled instants."""

    order: list[int]
    capture_times: list[float]
    length: int


def _check_regime_and_state(vehicle: VehicleState, demands, v: float, L: float) -> None:
    if v < 1.0:
        raise RegimeError(f"deadline reachability needs v >= 1, got v={v}")
    if not math.isfinite(vehicle.x):
        raise ParameterDomainError(f"vehicle abscissa must be finite, got x={vehicle.x}")
    if not math.isfinite(vehicle.t):
        raise ParameterDomainError(f"vehicle time must be finite, got t={vehicle.t}")
    if vehicle.y != L:
        raise ContractViolationError(
            f"vehicle must sit on the deadline y={L}, got y={vehicle.y}"
        )
    for d in demands:
        if d.t_arr + L / v <= vehicle.t:
            raise ContractViolationError(
                f"demand {d.id} already escaped at t={vehicle.t}"
            )


def build_reach_graph(vehicle: VehicleState, demands, v: float, L: float) -> ReachGraph:
    """Reachability DAG from a vehicle on the deadline over unescaped demands.

    O(n^2); edge (i, j) iff i != j and |x_i - x_j| <= t_j - t_i, an exact
    duplicate (t, x) pair only from the smaller id to the larger; source
    edge to i iff the vehicle can reach abscissa x_i by the demand's
    deadline.
    """
    _check_regime_and_state(vehicle, demands, v, L)
    order = sorted(demands, key=lambda d: (d.t_arr, d.id))
    ids = np.array([d.id for d in order], dtype=np.intp)
    ts = np.array([d.t_arr for d in order])
    xs = np.array([d.x for d in order])
    dls = ts + L / v

    src_mask = np.abs(vehicle.x - xs) <= dls - vehicle.t
    edges: dict[int, list[int]] = {}
    n = len(order)
    for k in range(n):
        # prefix scan: topo order makes every admissible successor sit at
        # index > k (exact duplicates are adjacent and id-ordered)
        ok = np.abs(xs[k + 1:] - xs[k]) <= ts[k + 1:] - ts[k]
        edges[int(ids[k])] = [int(i) for i in ids[k + 1:][ok]]
    return ReachGraph(
        source=vehicle,
        vertices=sorted(int(i) for i in ids),
        source_edges=[int(i) for i in ids[src_mask]],
        edges=edges,
        topo_order=[int(i) for i in ids],
        _ts=ts, _xs=xs, _ids=ids, _dls=dls,
    )


def longest_path(graph: ReachGraph) -> PathPlan:
    """Maximum-cardinality source-rooted path by DP over the topo order.

    A vectorized prefix relaxation whose mask is the edge relation: j
    follows i iff |x_i - x_j| <= t_j - t_i, and an exact duplicate (t, x)
    pair only in id order, which the topo order keeps.
    Ties at each step go to the smallest predecessor id, and among final
    endpoints to the smallest id, so the plan is deterministic.
    """
    ids, ts, xs = graph._ids, graph._ts, graph._xs
    n = len(ids)
    # path length ending at k, -1 unreachable; topo index of its predecessor
    best = np.where(np.isin(ids, graph.source_edges), 1, -1)
    pred = np.full(n, -1, dtype=np.intp)
    for k in range(1, n):
        mask = (np.abs(xs[:k] - xs[k]) <= ts[k] - ts[:k]) & (best[:k] >= 1)
        if not mask.any():
            continue
        cand = best[:k][mask]
        top = cand.max()
        if top + 1 > best[k]:
            winners = np.flatnonzero(mask)[cand == top]
            pred[k] = winners[np.argmin(ids[winners])]
            best[k] = top + 1

    if n == 0 or best.max() < 1:
        return PathPlan(order=[], capture_times=[], length=0)
    ends = np.flatnonzero(best == best.max())
    k = int(ends[np.argmin(ids[ends])])
    rev = []
    while k >= 0:
        rev.append(k)
        k = int(pred[k])
    rev.reverse()
    return PathPlan(order=[int(ids[k]) for k in rev],
                    capture_times=[float(graph._dls[k]) for k in rev], length=len(rev))


def longest_chain_fast(vehicle: VehicleState, demands, v: float, L: float) -> PathPlan:
    """Longest capture plan in O(n log n) via the dominance form of the edges.

    Map each demand to (u, w) = (t - x, t + x); then j can follow i iff
    u_j >= u_i and w_j >= w_i, and the source constraint is dominance over
    the virtual pair built from (t0 - L/v, X).  Reachability from the source
    propagates along edges, so filtering to source-reachable demands and
    taking the longest coordinate-wise nondecreasing chain gives exactly the
    longest-path length.
    """
    _check_regime_and_state(vehicle, demands, v, L)
    t0v = vehicle.t - L / v
    u_s = t0v - vehicle.x
    w_s = t0v + vehicle.x
    items = []
    for d in demands:
        u = d.t_arr - d.x
        w = d.t_arr + d.x
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
    times = [items[k][3].t_arr + L / v for k in chain]
    return PathPlan(order=order, capture_times=times, length=len(order))


def graph_to_dict(graph: ReachGraph) -> dict:
    """JSON-friendly dump of a graph plus its longest path (CLI, goldens)."""
    plan = longest_path(graph)
    return {
        "source": {"x": graph.source.x, "y": graph.source.y, "t": graph.source.t},
        "vertices": graph.vertices,
        "source_edges": graph.source_edges,
        "edges": {str(i): graph.edges[i] for i in sorted(graph.edges)},
        "longest_path": {"order": plan.order, "capture_times": plan.capture_times,
                         "length": plan.length},
    }
