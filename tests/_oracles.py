"""Independent reference implementations used only by the test suite.

Each oracle recomputes a quantity by a different method than the package
(brute force, exhaustive enumeration, exact rational arithmetic) so that
agreement is evidence rather than tautology.  `lattice_stream` draws the
small streams the property tests run them on.  The definitions the package
only needs as checks live here too: demand positions and region counts,
the reachability predicate and the deadline edge relation, the graph DP
`longest_path` that checks the chain planner, `chain_reference`, that
planner in pure Python, `tour`, the closed tour built from emhp_heuristic,
and `ReferenceKernel`, a naive event kernel that the policies can run on in
place of `_EventKernel`, `gp_stepwise`, GP with one capture per plan run on
it, and `tf_reference` with its `tf_sweep`, TF by the rules its docstring
states, run on it too.
"""
from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import permutations, takewhile

import numpy as np
from hypothesis import strategies as st

from guardsim import (ContractViolationError, Demand, DemandStream, ParameterDomainError,
                      PathPlan, RegimeError, RunResult, TraceEvent, build_reach_graph,
                      emhp_heuristic, tmhp)
from guardsim.deadline_policies import _check_start, _run


# ---------------------------------------------------------------------------
# random inputs


def lattice_stream(data, env, max_size=8, min_size=0):
    """Draw, with hypothesis's `data`, a stream on the 0.5 lattice: min_size
    to max_size arrivals among 0, 0.5, ..., 20 at abscissae 0, 0.5, ..., W.
    Deadlines and reach checks are then exact, and events often coincide."""
    ks = sorted(data.draw(st.sets(st.integers(0, 40), min_size=min_size, max_size=max_size)))
    xs = data.draw(st.lists(st.integers(0, int(2 * env.W)),
                            min_size=len(ks), max_size=len(ks)))
    return DemandStream(env, 0, [Demand(i, 0.5 * k, 0.5 * x)
                                 for i, (k, x) in enumerate(zip(ks, xs))])


# ---------------------------------------------------------------------------
# kinematics and spatial statistics


def demand_position(demand: Demand, v: float, t: float) -> tuple[float, float]:
    """Demand position (x, v*(t - t_arr)); negative ordinate before arrival."""
    return (demand.x, v * (t - demand.t_arr))


def region_count(stream: DemandStream, rect, t: float) -> int:
    """Count demands whose position at time t lies in the closed rectangle.

    rect is (xmin, xmax, ymin, ymax) and should sit inside [0,W] x [0, v*t];
    counting assumes nothing has been serviced before t.
    """
    xmin, xmax, ymin, ymax = rect
    if xmin > xmax or ymin > ymax:
        raise ParameterDomainError(f"rect {rect!r} has negative extent")
    v = stream.env.v
    count = 0
    for d in stream.demands:
        y = v * (t - d.t_arr)
        if xmin <= d.x <= xmax and ymin <= y <= ymax:
            count += 1
    return count


def meet_time_bisect(px: float, py: float, qx: float, qy: float, v: float) -> float:
    """Time for a unit-speed pursuer at (px, py) to meet a point that starts
    at (qx, qy) and moves straight up at speed v < 1.

    Solves |(qx, qy + v t) - (px, py)| = t by bisection, independent of any
    closed form.  Returns a root accurate to ~1e-13 absolute.
    """
    def gap(t: float) -> float:
        dx = qx - px
        dy = qy + v * t - py
        return math.sqrt(dx * dx + dy * dy) - t

    lo, hi = 0.0, 1.0
    while gap(hi) > 0.0:
        hi *= 2.0
        if hi > 1e18:
            raise AssertionError("no meet found; check v < 1")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# reachability graphs


def is_reachable(vehicle, demand_pos, v: float) -> bool:
    """Can a unit-speed vehicle at `vehicle` meet a demand at `demand_pos`
    before it crosses the vehicle's ordinate?

    Both arguments are (x, y) pairs with vehicle y >= demand y.  True iff
    v*|X - x| <= Y - y; boundary equality counts as reachable.
    """
    X, Y = vehicle
    x, y = demand_pos
    return v * abs(X - x) <= Y - y


def deadline_edge(demand_i: Demand, demand_j: Demand) -> bool:
    """Can j be captured on the deadline after capturing i on the deadline?

    True iff |x_i - x_j| <= t_j - t_i and i != j.  Exact duplicate (t, x)
    pairs are oriented from the smaller id to keep the relation acyclic.
    """
    if demand_i.id == demand_j.id:
        return False
    dt = demand_j.t_arr - demand_i.t_arr
    if abs(demand_j.x - demand_i.x) > dt:
        return False
    if dt == 0.0 and demand_i.x == demand_j.x:
        return demand_i.id < demand_j.id
    return True


def brute_reach_edges(arrivals, env_W, env_L, env_v, start, t0):
    """All edges of the reachability graph by direct inequality checks.

    arrivals: list of (id, t_arr, x).  Returns (source_edges, edges) as
    sorted lists of ids / id pairs.  Mirrors the published definitions with
    no shared code: a demand i is reachable from the start (X, L) at time t0
    iff |X - x_i| <= t_i + L/v - t0, and j follows i iff the horizontal gap
    fits in the deadline gap, |x_i - x_j| <= t_j - t_i, with exact (t, x)
    duplicates keeping only the smaller-id to larger-id edge.
    """
    X, _Y = start
    source_edges = []
    for (i, t_i, x_i) in arrivals:
        if abs(X - x_i) <= (t_i + env_L / env_v) - t0:
            source_edges.append(i)
    edges = []
    for (i, t_i, x_i) in arrivals:
        for (j, t_j, x_j) in arrivals:
            if i == j:
                continue
            if (t_i, x_i) == (t_j, x_j):
                if i < j:
                    edges.append((i, j))
                continue
            if t_j >= t_i and abs(x_i - x_j) <= t_j - t_i:
                # exclude the degenerate reverse direction of equal deadlines
                if t_j == t_i and j < i:
                    continue
                edges.append((i, j))
    return sorted(source_edges), sorted(edges)


def longest_source_path_enum(source_edges, edges, ids):
    """Length of the longest source-rooted path by DFS over all simple paths.

    Exponential; for n <= 10 test instances only.
    """
    succ = {i: [] for i in ids}
    for (i, j) in edges:
        succ[i].append(j)
    best = 0

    def walk(node, depth):
        nonlocal best
        best = max(best, depth)
        for nxt in succ[node]:
            walk(nxt, depth + 1)

    for s in source_edges:
        walk(s, 1)
    return best


def longest_path(vehicle, demands, v: float, L: float) -> PathPlan:
    """Longest source-rooted path of build_reach_graph's DAG, the oracle for
    longest_chain_fast: a DP over the graph's own source_edges and edges in
    its topo_order, with no arithmetic on (t, x).

    Each vertex takes its predecessor of greatest length, the smallest id
    among equal ones; the path ends at the smallest id of greatest length.
    Capture times are the deadlines t_arr + L/v.
    """
    g = build_reach_graph(vehicle, demands, v, L)
    preds: dict[int, list[int]] = {j: [] for j in g.topo_order}
    for i, out in g.edges.items():
        for j in out:
            preds[j].append(i)
    src = set(g.source_edges)
    best: dict[int, int] = {}           # path length ending at the id, 0 unreachable
    pred: dict[int, int | None] = {}
    for j in g.topo_order:              # every predecessor of j comes before it
        reached = [(best[i], -i) for i in preds[j] if best[i] > 0]
        if reached:
            top, neg = max(reached)
            best[j], pred[j] = top + 1, -neg
        else:
            best[j], pred[j] = int(j in src), None
    if not any(best.values()):
        return PathPlan(order=[], capture_times=[], length=0)
    k = max(best, key=lambda j: (best[j], -j))
    order = []
    while k is not None:
        order.append(k)
        k = pred[k]
    order.reverse()
    deadline = {d.id: d.t_arr + L / v for d in demands}
    return PathPlan(order=order, capture_times=[deadline[i] for i in order],
                    length=len(order))


def chain_reference(x: float, t_now: float, ks, t_arr, xs, ids, l_v: float) -> list[int]:
    """The chain planner `reachability._chain` in pure Python, the oracle of
    its numpy front end: positions, in capture order, of a longest plan
    from abscissa x on the deadline at t_now over the demands at positions
    ks of the lists (t_arr, xs, ids), each captured at t_arr + l_v.

    One pass over ks in order refuses the first demand already escaped at
    t_now and keeps those dominating the source in (u, w) = (t - x, t + x);
    a tuple sort by (u, w, id) and a patience sort over w give the chain.
    """
    t0v = t_now - l_v
    u_s = t0v - x
    w_s = t0v + x
    items = []
    for k in ks:
        t, xk = t_arr[k], xs[k]
        if t + l_v <= t_now:
            raise ContractViolationError(f"demand {ids[k]} already escaped at t={t_now}")
        u = t - xk
        w = t + xk
        if u >= u_s and w >= w_s:
            items.append((u, w, ids[k], k))
    items.sort()
    if not items:
        return []
    tails_w: list[float] = []
    tails_at: list[int] = []
    prev = [-1] * len(items)
    for idx, (_u, w, _i, _k) in enumerate(items):
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
        chain.append(items[k][3])
        k = prev[k]
    chain.reverse()
    return chain


def check_plan(plan, vehicle, demands, v, L, tol=1e-9):
    """Unit-speed feasibility of a deadline capture plan, from the definitions.

    The plan captures demand order[k] on the deadline y = L at
    capture_times[k].  Asserts: the lengths agree and no demand repeats;
    each capture time is exactly t_arr + L/v; the vehicle, at abscissa
    vehicle.x on the deadline at vehicle.t, reaches the first demand in
    time (the source is reachable); and every hop has |dx| <= dt.
    """
    by_id = {d.id: d for d in demands}
    assert vehicle.y == L, f"vehicle off the deadline: {vehicle}"
    assert plan.length == len(plan.order) == len(plan.capture_times)
    assert len(set(plan.order)) == plan.length, f"repeated demand: {plan.order}"
    x, t = vehicle.x, vehicle.t
    for i, t_cap in zip(plan.order, plan.capture_times):
        d = by_id[i]
        assert t_cap == d.t_arr + L / v, f"demand {i} not captured at its deadline"
        assert abs(d.x - x) <= t_cap - t + tol, f"demand {i} out of reach from x={x}, t={t}"
        x, t = d.x, t_cap


def gp_choice(outstanding, t, x, L, v):
    """The demand greedy pursuit chases from (x, L) at t, or None.

    The reference rule, over numpy arrays and independent of the order of
    `outstanding`: among the demands the vehicle can reach by their
    deadlines, |x - x_i| <= (t_i + L/v) - t, take those with the smallest
    deadline and, among them, the smallest id.
    """
    ds = list(outstanding)
    xs = np.array([d.x for d in ds])
    dls = np.array([d.t_arr for d in ds]) + L / v
    ok = np.abs(x - xs) <= dls - t
    if not ok.any():
        return None
    idx = np.flatnonzero(ok)
    dl = dls[idx]
    cand = idx[dl == dl.min()]
    return ds[int(cand[np.argmin([ds[i].id for i in cand])])]


# ---------------------------------------------------------------------------
# tour lengths


_PERM_CACHE = {}


def _perm_array(n: int) -> np.ndarray:
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(list(permutations(range(n))), dtype=np.intp)
    return _PERM_CACHE[n]


def emhp_brute(s, points, f):
    """Exact fixed-endpoint path s -> points -> f by trying every order.

    Accumulates each candidate length leg by leg, left to right, with
    sqrt(dx*dx + dy*dy) legs, so the float result of the best order is the
    same sequential running sum an exact solver minimizes.
    Returns (length, order) with ties broken by lexicographically smallest
    permutation (np.argmin takes the first minimum; permutations enumerate
    in lexicographic order).
    """
    P, lengths = emhp_brute_lengths(s, points, f)
    best = int(np.argmin(lengths))
    return float(lengths[best]), [int(i) for i in P[best]]


def emhp_brute_lengths(s, points, f):
    """Every order of points (rows of P, lexicographic) and the length of
    the path s -> points in that order -> f, summed as in emhp_brute."""
    n = len(points)
    P = _perm_array(n)
    all_pts = np.vstack([np.asarray(s, dtype=float)[None, :],
                         np.asarray(points, dtype=float),
                         np.asarray(f, dtype=float)[None, :]])
    D = all_pts[:, None, :] - all_pts[None, :, :]
    D = np.sqrt(D[..., 0] ** 2 + D[..., 1] ** 2)
    lengths = D[0, P[:, 0] + 1].copy()
    for k in range(1, n):
        lengths += D[P[:, k - 1] + 1, P[:, k] + 1]
    lengths += D[P[:, n - 1] + 1, n + 1]
    return P, lengths


def _dense_dist_matrix(all_pts: np.ndarray) -> np.ndarray:
    diff = all_pts[:, None, :] - all_pts[None, :, :]
    return np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)


def _dense_nn_order(D: np.ndarray, first: int) -> list[int]:
    """Nearest-neighbor order over the rows of D, seeded with first."""
    n = len(D)
    order = [first]
    left = np.ones(n, dtype=bool)
    left[first] = False
    cur = first
    for _ in range(n - 1):
        row = D[cur].copy()
        row[~left] = np.inf
        cur = int(np.argmin(row))
        left[cur] = False
        order.append(cur)
    return order


def _dense_two_opt_rows(D: np.ndarray, seq: np.ndarray, budget: int,
                        closed: bool) -> int:
    """Vectorized 2-opt sweeps on seq (node ids into D), best move per row.

    Open paths keep seq[0] and seq[-1] fixed; closed tours fix seq[0] as the
    anchor and include the wraparound edge.
    """
    m = len(seq)
    hi = m if closed else m - 1          # reversal segment may end at hi-1
    improved = True
    while improved and budget > 0:
        improved = False
        for i in range(1, hi - 1):
            a_prev, a = seq[i - 1], seq[i]
            B = seq[i:hi]                # candidates seq[i..hi-1] as segment end
            Bn = np.empty_like(B)
            Bn[:-1] = seq[i + 1:hi]
            Bn[-1] = seq[0] if closed and hi == m else seq[hi]
            deltas = D[a_prev, B] + D[a, Bn] - D[a_prev, a] - D[B, Bn]
            k = int(np.argmin(deltas))
            if deltas[k] < -1e-12:
                j = i + k
                seq[i:j + 1] = seq[i:j + 1][::-1]
                budget -= 1
                improved = True
                if budget <= 0:
                    break
    return budget


def _dense_nn_path(D: np.ndarray, n: int) -> list[int]:
    """Nearest-neighbor s -> points -> f path as rows of D (s = 0, f = n+1),
    from the point closest to s."""
    order = _dense_nn_order(D[1:n + 1, 1:n + 1], int(np.argmin(D[0, 1:n + 1])))
    return [0] + [i + 1 for i in order] + [n + 1]


def emhp_heuristic_dense(s, points, f):
    """The large-n emhp_heuristic path before neighbour lists, on a dense
    (n+2)^2 distance matrix.

    Nearest neighbor from the point closest to s, then full-row 2-opt on
    matrix lookups, then a left-to-right fold of the path length.  The
    package's neighbour-list search must come within a fixed factor of it
    in total length.
    """
    n = len(points)
    all_pts = np.array([tuple(s)] + [tuple(p) for p in points] + [tuple(f)], dtype=float)
    D = _dense_dist_matrix(all_pts)
    seq = np.array(_dense_nn_path(D, n), dtype=np.intp)
    _dense_two_opt_rows(D, seq, 50 * n * n, closed=False)
    return [int(k) - 1 for k in seq[1:-1]], fold_length(all_pts, seq)


def tour_two_opt_dense(points, seed_point: int = 0):
    """Closed nearest-neighbor + 2-opt tour on a dense distance matrix."""
    pts = np.array([tuple(p) for p in points], dtype=float)
    n = len(pts)
    if n < 2:
        return list(range(n)), 0.0
    D = _dense_dist_matrix(pts)
    seq = np.array(_dense_nn_order(D, seed_point), dtype=np.intp)
    _dense_two_opt_rows(D, seq, 50 * n * n, closed=True)
    length = float(D[seq[:-1], seq[1:]].sum() + D[seq[-1], seq[0]])
    return [int(i) for i in seq], length


def fold_length(coords, seq) -> float:
    """Length of the path through coords[seq[0]], coords[seq[1]], ...,
    legs added left to right."""
    P = np.asarray(coords, dtype=float)[list(seq)]
    legs = np.sqrt((P[:-1, 0] - P[1:, 0]) ** 2 + (P[:-1, 1] - P[1:, 1]) ** 2)
    total = legs[0]
    for leg in legs[1:]:
        total += leg
    return float(total)


def emhp_nn_start(s, points, f) -> list[int]:
    """The nearest-neighbor s -> points -> f path that emhp_heuristic
    starts from, as node ids (s = 0, point i = i + 1, f = n + 1)."""
    n = len(points)
    all_pts = np.array([tuple(s)] + [tuple(p) for p in points] + [tuple(f)], dtype=float)
    return _dense_nn_path(_dense_dist_matrix(all_pts), n)


def emhp_nn_starts(s, points, f, starts: int) -> list[list[int]]:
    """The nearest-neighbor s -> points -> f paths that emhp_heuristic
    searches from when it tries several starts, as node ids: one from each
    of the `starts` points nearest s, in stable (distance, index) order."""
    n = len(points)
    all_pts = np.array([tuple(s)] + [tuple(p) for p in points] + [tuple(f)], dtype=float)
    D = _dense_dist_matrix(all_pts)
    firsts = np.argsort(D[0, 1:n + 1], kind="stable")[:starts]
    return [[0] + [i + 1 for i in _dense_nn_order(D[1:n + 1, 1:n + 1], int(c))] + [n + 1]
            for c in firsts]


def tour(points: list, anchor: int = 0):
    """Closed tour from points[anchor] through the others and back: the
    package's emhp_heuristic path between two copies of the anchor (a
    helper, not an independent method).  Returns emhp_heuristic's (order,
    length); order indexes the points without the anchor."""
    return emhp_heuristic(points[anchor], points[:anchor] + points[anchor + 1:],
                          points[anchor])


def _point_dist(P):
    """Distance between points u and w of P as sqrt(dx*dx + dy*dy)."""
    def d(u, w):
        dx = P[u][0] - P[w][0]
        dy = P[u][1] - P[w][1]
        return math.sqrt(dx * dx + dy * dy)
    return d


def knn_brute(coords, k: int):
    """The k nearest other points of each point by exhaustive comparison,
    as (distance, index) pairs in (distance, index) order."""
    P = [(float(x), float(y)) for x, y in coords]
    d = _point_dist(P)
    return [sorted((d(a, c), c) for c in range(len(P)) if c != a)[:k]
            for a in range(len(P))]


def improving_candidate_moves(coords, seq, k: int = 10, tol: float = 1e-9):
    """Candidate moves of the neighbour-list local search that shorten the
    path seq (node ids into coords; first and last fixed) by more than tol.

    A candidate joins a node a to one of its k nearest nodes c (knn_brute):
    - 2-opt: a's edge a-b to its successor (or predecessor) and c's edge on
      the same side, c-e, become a-c and b-e; tried while |ac| < |ab|.
    - Or-opt: 1-3 consecutive inner nodes with a at one end leave prev-nxt
      and go in, a beside c, on a path edge at c that touches none of them;
      tried while |ac| < |prev first| + |last nxt| - |prev nxt|.
    Each delta is summed from the changed legs.  Returns (kind, a, c,
    delta) tuples, empty at a local optimum.
    """
    d = _point_dist([(float(x), float(y)) for x, y in coords])
    near = knn_brute(coords, k)
    m = len(seq)
    pos = {node: k for k, node in enumerate(seq)}
    found = []
    for a in seq:
        p = pos[a]
        for dac, c in near[a]:
            q = pos[c]
            for step in (1, -1):
                if 0 <= p + step < m and 0 <= q + step < m:
                    b, e = seq[p + step], seq[q + step]
                    if c != b and e != a and dac < d(a, b):
                        delta = (dac + d(b, e)) - (d(a, b) + d(c, e))
                        if delta < -tol:
                            found.append(("2-opt", a, c, delta))
        if p in (0, m - 1):
            continue
        for ell in (1, 2, 3):
            for i in {p, p - ell + 1}:
                j = i + ell - 1
                if i < 1 or j > m - 2:
                    continue
                seg = seq[i:j + 1]
                far = seg[-1] if seg[0] == a else seg[0]
                prev, nxt = seq[i - 1], seq[j + 1]
                gain = (d(prev, seg[0]) + d(seg[-1], nxt)) - d(prev, nxt)
                for dac, c in near[a]:
                    q = pos[c]
                    if not dac < gain or i <= q <= j:
                        continue
                    # the segment goes in on the path edge c-o, a beside c
                    for r in (q + 1, q - 1):
                        if not 0 <= r < m or i - 1 <= min(q, r) <= j:
                            continue
                        o = seq[r]
                        cost = (dac + d(far, o)) - d(c, o)
                        if cost - gain < -tol:
                            found.append(("or-opt", a, c, cost - gain))
    return found


# ---------------------------------------------------------------------------
# error function


def erf_exact_rational(x: float, terms: int = 120) -> float:
    """erf by Maclaurin partial sums in exact rational arithmetic.

    The input is converted to an exact Fraction, every term is exact, and
    only the final value is rounded to float.  For |x| <= 3, 120 terms put
    the truncation error far below 1e-30.
    """
    xf = Fraction(x)
    x2 = xf * xf
    total = Fraction(0)
    c = xf
    for n in range(terms):
        total += c / (2 * n + 1)
        c *= -x2
        c /= n + 1
    # 2/sqrt(pi) applied in floats at the very end
    return float(total) * 2.0 / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# trace validation


def check_trace(events, env, stream, start, tol=1e-9):
    """Structural audit of a policy trace.

    events: list of dicts with keys t, event, demand_id, vehicle_x.
    Asserts: nondecreasing times, vehicle_x within [0, W] when present,
    vehicle horizontal speed <= 1 between consecutive position reports,
    every capture is of a demand that arrived and had not yet escaped or
    been captured, every demand resolves at most once, capture events
    happen at or before the demand's escape time, and escapes come in
    arrival order (each demand escapes L/v after it arrives), also when
    several fall on one instant.
    """
    last_t = -math.inf
    last_pos = (start[0], None)
    resolved = {}
    arrived = set()
    by_id = {d.id: d for d in stream.demands}
    rank = {d.id: k for k, d in enumerate(stream.demands)}   # arrival order
    last_escaped = -1
    for ev in events:
        t = ev["t"]
        assert t >= last_t - tol, f"time went backwards at {ev}"
        kind = ev["event"]
        if ev.get("vehicle_x") is not None:
            x = ev["vehicle_x"]
            assert -tol <= x <= env.W + tol, f"vehicle left the strip: {ev}"
            px, pt = last_pos
            if pt is not None:
                assert abs(x - px) <= (t - pt) + tol, f"vehicle too fast: {ev}"
            last_pos = (x, t)
        if kind == "arrival":
            arrived.add(ev["demand_id"])
        elif kind in ("capture", "escape"):
            i = ev["demand_id"]
            assert i in arrived, f"{kind} before arrival: {ev}"
            assert i not in resolved, f"{kind} after resolution: {ev}"
            resolved[i] = kind
            d = by_id[i]
            esc = d.t_arr + env.L / env.v
            if kind == "capture":
                assert t <= esc + tol, f"capture after escape time: {ev}"
            else:
                assert abs(t - esc) <= tol, f"escape at wrong time: {ev}"
                assert rank[i] > last_escaped, f"escape out of arrival order: {ev}"
                last_escaped = rank[i]
        last_t = t
    return resolved


# ---------------------------------------------------------------------------
# event kernel


class ReferenceKernel:
    """The event kernel as the `_EventKernel` docstring defines it, naively.

    It has the interface the policies use (`env`, `start`, `stream`, `l_v`,
    `t_esc`, `arrived`, `outstanding`, `advance`, `commit`,
    `recompute`, `finish`), names a demand by its position in the stream,
    keeps one state per position and finds each next event in `advance` by
    scanning every position, O(n) per event.  An event is the earliest of:
    the escape, at t_arr + L/v, of an outstanding demand that is not
    protected, and the arrival of a demand not yet arrived.  At one instant
    an escape comes first, and escapes go in arrival order.  Vehicle
    abscissae come from the two documented leg formulas.  `commit` walks
    its captures one at a time.  On the deadline it protects them all, then
    slides to each one's abscissa, advances to its deadline and captures
    it; with `_replans` it logs a recompute after each capture but the
    last.  In the strip it takes each capture's (instant, duration) from
    `legs`: it requires the target to be outstanding where the last leg
    ended and the instant not to go back, protects that target alone,
    crosses the leg and captures it.  With a `cut` (leg, t_stop, x_stop) it
    then crosses that leg through t_stop, arrivals at t_stop included, and
    waits at x_stop.
    """

    def __init__(self, stream, start, trace, strip=False):
        env = stream.env
        if (env.v < 1.0) != strip:
            raise RegimeError(f"v={env.v} does not fit strip={strip}")
        self.env, self.strip, self.stream = env, strip, stream
        self.start = _check_start(env, start, strip)
        self.l_v = env.L / env.v
        self.t_esc = [t + self.l_v for t in stream.t_arr]
        self.state = ["pending"] * len(stream)
        self.outstanding = {}       # admitted in time order, so in arrival order
        self.protected = set()
        self.events = [] if trace else None
        self.n_capt = self.n_esc = 0
        self.leg = (0.0, self.start[0], self.start[0], 0.0)

    @property
    def arrived(self) -> int:
        return sum(state != "pending" for state in self.state)

    def _x_at(self, t):
        t0, x_from, x_to, dur = self.leg
        if self.strip:      # a straight segment crossed in dur
            frac_dur = min(max(t - t0, 0.0), dur)
            return x_from if dur <= 0.0 else x_from + frac_dur / dur * (x_to - x_from)
        if t >= t0 + dur:   # waiting at x_to
            return x_to
        return x_from + (t - t0) if x_to >= x_from else x_from - (t - t0)

    def advance(self, t_end, inclusive_arrivals):
        t_arr = self.stream.t_arr
        while True:
            best = None         # (time, 0 for an escape and 1 for an arrival, position)
            for k, state in enumerate(self.state):
                if state == "outstanding" and k not in self.protected:
                    key = (t_arr[k] + self.l_v, 0, k)
                    if key[0] > t_end:
                        continue
                elif state == "pending":
                    key = (t_arr[k], 1, k)
                    if key[0] > t_end or (key[0] == t_end and not inclusive_arrivals):
                        continue
                else:
                    continue
                if best is None or key < best:
                    best = key
            if best is None:
                return
            t, kind, k = best
            if kind == 0:
                self.state[k] = "escaped"
                del self.outstanding[k]
                self.n_esc += 1
            else:
                self.state[k] = "outstanding"
                self.outstanding[k] = None
            if self.events is not None:
                self.events.append(TraceEvent(t, ("escape", "arrival")[kind],
                                              self.stream.ids[k], self._x_at(t)))

    def _capture(self, k, t):
        if self.state[k] != "outstanding":
            raise ContractViolationError(
                f"demand {self.stream.ids[k]} is not outstanding at t={t}")
        self.state[k] = "captured"
        del self.outstanding[k]
        self.protected.discard(k)
        self.n_capt += 1
        if self.events is not None:
            self.events.append(TraceEvent(t, "capture", self.stream.ids[k], self.stream.x[k]))

    def commit(self, ks, t, x, legs=None, cut=None, _replans=False):
        if legs is None:
            self.protected.update(ks)       # NCLP commits demands yet to arrive
        for n, k in enumerate(ks, 1):
            x_k = self.stream.x[k]
            if legs is None:
                t_cap, dur = self.t_esc[k], abs(x_k - x)
            else:
                t_cap, dur = legs[n - 1]
                if self.state[k] != "outstanding" or not t <= t_cap:
                    raise ContractViolationError(
                        f"cannot commit demand {self.stream.ids[k]} at t={t_cap}")
                self.protected.add(k)
            self.leg = (t, x, x_k, dur)
            self.advance(t_cap, False)
            self._capture(k, t_cap)
            if _replans and n < len(ks):    # GP's chain replans at each capture
                self.recompute(t_cap, x_k)
            t, x = t_cap, x_k
        if cut is not None:
            self.leg, t_stop, x_stop = cut
            self.advance(t_stop, True)
            self.leg = (t_stop, x_stop, x_stop, 0.0)
        else:
            self.leg = (t, x, x, 0.0)
        return t, x

    def recompute(self, t, x):
        if self.events is not None:
            self.events.append(TraceEvent(t, "recompute", None, x))

    def finish(self):
        self.advance(math.inf, True)
        assert self.n_capt + self.n_esc == len(self.state)
        assert set(self.state) <= {"captured", "escaped"}
        return RunResult(self.n_capt, self.n_esc, trace=self.events)


def gp_stepwise(stream, start_x=None, trace=False):
    """GP as it ran before it planned whole chains, the oracle of `run_gp`:
    each planner call returns one capture, the reachable outstanding demand
    with the earliest deadline and the smallest id among equal ones, and
    `_run` commits it alone and replans at its capture instant, all on
    `ReferenceKernel`."""
    sim = ReferenceKernel(stream, start_x, trace)
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


def tf_sweep(pos, t, targets, stream, t_stop):
    """One TF sweep by the rules of `run_tf`'s docstring, in two passes: the
    chain of intercepts through targets as if the budget never ran out,
    which skips each target that escapes at or before the previous capture
    instant, and then the cut of that chain at its first intercept past
    t_stop.  It returns what `tmhp._sweep` returns, (ks, legs, end, t_end,
    cut), and meets each target by the same closed form."""
    v, l_v = stream.env.v, stream.env.L / stream.env.v
    chain = []                  # (k, leg start, vehicle there, leg duration, aim point)
    for k in targets:
        t_arr, x = stream.t_arr[k], stream.x[k]
        if t_arr + l_v <= t:
            continue
        y = v * (t - t_arr)
        T = tmhp._intercept_time(pos, (x, y), v)
        chain.append((k, t, pos, T, (x, y + v * T)))
        pos, t = chain[-1][4], t + T
    kept = list(takewhile(lambda c: c[1] + c[3] <= t_stop, chain))
    ks, legs = [c[0] for c in kept], [(c[1] + c[3], c[3]) for c in kept]
    if len(kept) == len(chain):
        return ks, legs, pos, t, None
    _, t0, p, T, aim = chain[len(kept)]
    frac = (t_stop - t0) / T
    end = (p[0] + frac * (aim[0] - p[0]), p[1] + frac * (aim[1] - p[1]))
    return ks, legs, end, t_stop, (t0, p[0], aim[0], T)


def tf_reference(stream, start=None, trace=False):
    """TF as `run_tf`'s docstring states it, the oracle of `run_tf`, on
    `ReferenceKernel`.  At each plan instant t the ready demands are the
    outstanding ones with v (t - t_arr) <= L/2; the path ends at the lowest
    of them, the smallest id among equally low ones, and `tmhp._plan`
    orders the others, handed to it in arrival order; the sweep is
    `tf_sweep`'s with the budget ending at t + L/(2v), committed at once
    and followed by an advance to its end.  With no ready demand the
    vehicle waits for the next arrival.  `run_tf` hands the planner the
    others in another order, so the two agree where the planner's path
    does not depend on the order of its points."""
    sim = ReferenceKernel(stream, start, trace, strip=True)
    v, L = stream.env.v, stream.env.L
    t_arr, xs, ids = stream.t_arr, stream.x, stream.ids
    pos, t = sim.start, 0.0
    while True:
        ready = [k for k in sim.outstanding if v * (t - t_arr[k]) <= L / 2]
        if not ready:
            if sim.arrived == len(stream):
                return sim.finish()
            t = t_arr[sim.arrived]
            sim.advance(t, True)
            continue
        finish = min(ready, key=lambda k: (v * (t - t_arr[k]), ids[k]))
        others = [k for k in ready if k != finish]
        P = np.array([pos] + [(xs[k], v * (t - t_arr[k])) for k in others + [finish]])
        order, _, _ = tmhp._plan(P, v)
        sim.recompute(t, pos[0])
        ks, legs, end, t_end, cut = tf_sweep(pos, t, [others[j] for j in order] + [finish],
                                             stream, t + L / (2 * v))
        sim.commit(ks, t, pos[0], legs, cut and (cut, t_end, end[0]))
        sim.advance(t_end, True)
        pos, t = end, t_end
