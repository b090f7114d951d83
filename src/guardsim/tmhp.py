"""Translational minimum Hamiltonian paths and the slow-demand policy.

For 0 < v < 1 every demand can be chased down individually.  The linear map
g(x, y) = (x / sqrt(1 - v^2), y / (1 - v^2)) turns the moving-target path
problem into a static one: the time to traverse targets in a given order
equals the Euclidean path length between the transformed initial points
plus a telescoping drift term v*(y_f - y_s)/(1 - v^2) that depends only on
the endpoints.  The TF policy repeatedly plans such a path through the
lower half of the strip and follows it for L/(2v) time units.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import DemandStream
from .deadline_policies import RunResult, _EventKernel
from .errors import _FLOAT_MAX, ContractViolationError, ParameterDomainError, SizeLimitError, \
    is_number

EXACT_SOLVER_CAP = 13        # Held-Karp subset table stays under 2^13 * 13 cells

_IMPROVE_EPS = 1e-12         # accepted local-search moves must beat this
_SMALL_HEURISTIC_CAP = 64    # up to this, complete candidate lists and several starts
_STARTS = 8                  # starts of a small search; 4 miss acceptance 09's 1.05 gate
_NEIGHBOURS = 10             # candidate list length of the large-n search
_NEIGHBOUR_CHUNK = 1 << 13   # candidate pairs _neighbours examines at once


def _check_speed(v: float) -> None:
    if not (is_number(v) and 0 < v < 1):
        raise ParameterDomainError(f"translation speed must lie in (0, 1), got {v!r}")


def _finite_xy(point, name: str):
    """point as two numbers (x, y); anything else raises."""
    try:
        x, y = point
    except (TypeError, ValueError):
        x = y = None
    if not (is_number(x) and is_number(y)):
        raise ParameterDomainError(f"{name}: expected finite (x, y) coordinates, got {point!r}")
    return x, y


def g_map(point, v: float):
    """(x, y) -> (x / sqrt(1 - v^2), y / (1 - v^2)); distance-to-time map."""
    _check_speed(v)
    x, y = _finite_xy(point, "point")
    c = 1.0 - v * v
    return (x / math.sqrt(c), y / c)


def g_inv(point, v: float):
    """Inverse of g_map."""
    _check_speed(v)
    x, y = _finite_xy(point, "point")
    c = 1.0 - v * v
    return (x * math.sqrt(c), y * c)


def intercept_time(vehicle, target_initial, v: float) -> float:
    """Minimum time for a unit-speed vehicle to meet a target that starts at
    target_initial and translates up at speed v < 1.

    Moving straight toward (x, y + v*T) for the returned T meets the target
    exactly; the aim point sits at distance exactly T from the vehicle.
    """
    _check_speed(v)
    a, b = _finite_xy(vehicle, "vehicle"), _finite_xy(target_initial, "target_initial")
    _check_spread(np.array([a, b], dtype=float), "intercept_time")
    return _intercept_time(a, b, v)


def _intercept_time(vehicle, target_initial, v: float) -> float:
    X, Y = vehicle
    x, y = target_initial
    c = 1.0 - v * v
    dy = Y - y
    return (math.sqrt(c * (X - x) ** 2 + dy * dy) - v * dy) / c


# ---------------------------------------------------------------------------
# fixed-endpoint Hamiltonian paths (static space)


def _path_points(s, points, f, caller: str) -> np.ndarray:
    """s, points and f as the rows of one float array; points is read once,
    and anything but an iterable of finite (x, y) pairs raises, as do points
    spread too far for _check_spread."""
    try:
        rows = [s, *points, f]
    except TypeError:
        raise ParameterDomainError(
            f"{caller}: expected a sequence of (x, y) pairs, got {points!r}") from None
    P = np.array([_finite_xy(p, caller) for p in rows], dtype=float)
    _check_spread(P, caller)
    return P


def _check_spread(P: np.ndarray, caller: str) -> None:
    """Raise unless the rows of P span wx by wy, wx^2 + wy^2 <= float max / 8:
    squares of distances, and of sums of two legs, then stay finite."""
    (lx, ly), (hx, hy) = P.min(axis=0).tolist(), P.max(axis=0).tolist()
    wx, wy = hx - lx, hy - ly
    if not wx * wx + wy * wy <= _FLOAT_MAX / 8:
        raise ParameterDomainError(
            f"{caller}: points spread {wx!r} by {wy!r}; need wx^2 + wy^2 <= float max / 8")


def emhp_exact(s, points, f):
    """Optimal s -> points -> f path by Held-Karp, one subset size at a time.

    Returns (order, length); order indexes into points.  Accumulation is
    sequential left to right, so the length is bit-identical to minimizing
    the same running sum over all permutations.  Ties take the smallest
    point index at each reconstruction step.
    """
    P = _path_points(s, points, f, "emhp_exact")
    if len(P) - 2 > EXACT_SOLVER_CAP:
        raise SizeLimitError(
            f"exact solver capped at {EXACT_SOLVER_CAP} points, got {len(P) - 2}; "
            "use emhp_heuristic"
        )
    return _held_karp(P)


def _held_karp(P: np.ndarray):
    """emhp_exact's path through the rows of P: s, the points, then f."""
    n = len(P) - 2
    D = np.array([_dists(x, y, P[:, 0], P[:, 1]) for x, y in P.tolist()])
    if n == 0:
        return [], float(D[0, 1])
    d = D[1:-1, 1:-1]

    full = (1 << n) - 1
    has = ((np.arange(full + 1)[:, None] >> np.arange(n)) & 1).astype(bool)  # j in mask
    size = has.sum(axis=1)
    # g[mask, j]: cheapest running sum from s over exactly mask, ending at j
    # (inf where j is not in mask); parent[mask, j]: the point before j
    g = np.full((full + 1, n), np.inf)
    parent = np.full((full + 1, n), -1)
    g[1 << np.arange(n), np.arange(n)] = D[0, 1:-1]
    for k in range(2, n + 1):
        layer = size == k
        for j in range(n):
            nm = np.flatnonzero(layer & has[:, j])
            cand = g[nm ^ (1 << j)] + d[:, j]       # cand[r, i]: nm[r] by way of i, then j
            parent[nm, j] = cand.argmin(axis=1)     # the first minimum: the smallest i
            g[nm, j] = cand.min(axis=1)
    total = g[full] + D[1:-1, -1]
    end = int(total.argmin())
    order, mask, i = [], full, end
    while i >= 0:
        order.append(i)
        mask, i = mask ^ (1 << i), int(parent[mask, i])
    order.reverse()
    return order, float(total[end])


def _dists(px, py, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Distances from (px, py) to each (X[k], Y[k]).

    Done in place.  emhp_exact's table and the neighbour lists take their
    distances from here and _local_search repeats the same operations, so
    a leg has one value, bit for bit, wherever it is computed.
    """
    dx = px - X
    dx *= dx
    dy = py - Y
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _nearest(px, py, X: np.ndarray, Y: np.ndarray) -> int:
    """Index of the point nearest to (px, py), the first of equal minima."""
    return int(np.argmin(_dists(px, py, X, Y)))


def _nn_path(X: np.ndarray, Y: np.ndarray, nbr: list, head: list[int], last: int) -> list[int]:
    """Nearest-neighbor path: head, then from head[-1] on to the nearest
    unvisited node each step, through every node but last, then last.

    nbr holds _neighbours' lists, exact and ordered by (distance, index)
    with _dists' arithmetic, so a step takes the first unvisited node of
    the current node's list: with complete lists that is the nearest
    unvisited node, first of equal distances.  Only a step whose list is
    all visited scans every node.  O(n * k) plus O(n) per such step.
    """
    left = [True] * len(X)
    for c in (*head, last):
        left[c] = False
    Xv, Yv = X.copy(), Y.copy()
    Xv[last] = Yv[last] = np.inf
    seq = list(head)
    hidden = 0               # seq[:hidden] already sit at infinity in Xv, Yv
    cur = seq[-1]
    for _ in range(len(X) - len(seq) - 1):
        for c in nbr[cur]:
            if left[c]:
                break
        else:
            Xv[seq[hidden:]] = Yv[seq[hidden:]] = np.inf
            hidden = len(seq)
            c = _nearest(X[cur], Y[cur], Xv, Yv)
        left[c] = False
        seq.append(c)
        cur = c
    seq.append(last)
    return seq


def _neighbours(X: np.ndarray, Y: np.ndarray, k: int):
    """The k nearest other points of each point (X[i], Y[i]), nearest first.

    Distance ties go to the smaller index, so the lists are exact and
    deterministic.  Points are bucketed on a uniform grid of about two points
    a cell.  A point collects the cells within R of its own (R = 2 at first)
    and keeps its k nearest candidates when the k-th lies within R cell
    widths, since no point outside those cells is closer; the others retry
    with R doubled.  A row of candidates, held in index order, is ranked by
    numpy's default (unstable) argsort, which orders equal distances either
    way.  Only a row whose first k + 1 sorted distances hold an equal
    adjacent pair (a tie, or two inf pads) can come out differently from a
    stable sort, so only those rows are sorted again, stably: without such
    a pair the k nearest and their order are unique.  Returns (index,
    distance) arrays of shape (m, k), with k cut to m - 1.  Memory is
    O(m * k) plus the candidates of a chunk.
    """
    m = len(X)
    k = min(k, m - 1)
    wx, wy = float(X.max() - X.min()), float(Y.max() - Y.min())
    h = max(math.sqrt(2.0 * wx * wy / m), 2.0 * max(wx, wy) / m) or 1.0
    cx = ((X - X.min()) / h).astype(np.intp)
    cy = ((Y - Y.min()) / h).astype(np.intp)
    gx, gy = int(cx.max()) + 1, int(cy.max()) + 1
    by_cell = np.argsort(cx * gy + cy, kind="stable")
    # points of cells c0..c1-1 are by_cell[start[c0]:start[c1]]
    start = np.zeros(gx * gy + 1, dtype=np.intp)
    np.cumsum(np.bincount(cx * gy + cy, minlength=gx * gy), out=start[1:])
    # cell coordinates may round across a cell border by a few ulps
    slack = 1e-9 * (h + float(np.abs(X).max()) + float(np.abs(Y).max()))
    idx = np.empty((m, k), dtype=np.intp)
    dist = np.empty((m, k))
    todo = np.arange(m)
    R = 2
    while len(todo):
        # per point, one run of by_cell for each cell column within R
        cols = cx[todo, None] + np.arange(-R, R + 1)
        inside = (cols >= 0) & (cols < gx)
        cols = np.clip(cols, 0, gx - 1) * gy
        lo = start[cols + np.maximum(cy[todo, None] - R, 0)]
        cnt = start[cols + np.minimum(cy[todo, None] + R, gy - 1) + 1] - lo
        cnt[~inside] = 0
        per_point = cnt.sum(axis=1)
        full = R >= max(gx, gy)
        failed = []
        # chunks of points with similar candidate counts pad little
        by_count = np.argsort(per_point, kind="stable")
        for rows in np.array_split(by_count, -(-len(todo) * max(int(per_point.max()), k)
                                              // _NEIGHBOUR_CHUNK)):
            pts, per = todo[rows], per_point[rows]
            c, first = cnt[rows].ravel(), lo[rows].ravel()
            ends = np.cumsum(c)
            cand = by_cell[np.repeat(first - ends + c, c) + np.arange(ends[-1])]
            row = np.repeat(np.arange(len(rows)), per)
            col = np.arange(len(cand)) - np.repeat(np.cumsum(per) - per, per)
            # rows of candidates, padded with (inf, m); order by (distance, index)
            C = np.full((len(rows), max(int(per.max()), k)), m, dtype=np.intp)
            C[row, col] = cand
            C.sort(axis=1)
            src = pts[:, None]
            D = _dists(X[src], Y[src], X[np.minimum(C, m - 1)], Y[np.minimum(C, m - 1)])
            D[(C == src) | (C == m)] = np.inf
            o = np.argsort(D, axis=1)[:, :k + 1]
            Ds = np.take_along_axis(D, o, axis=1)
            # only rows with an equal adjacent pair can differ from a stable
            # sort; re-sorting them leaves their sorted distances as they are
            tie = (Ds[:, 1:] == Ds[:, :-1]).any(axis=1)
            if tie.any():
                o[tie] = np.argsort(D[tie], axis=1, kind="stable")[:, :k + 1]
            o, D = o[:, :k], Ds[:, :k]
            # too few candidates leave an inf k-th distance, which fails
            ok = np.ones(len(rows), dtype=bool) if full else D[:, -1] <= R * h - slack
            idx[pts[ok]] = np.take_along_axis(C, o, axis=1)[ok]
            dist[pts[ok]] = D[ok]
            failed.append(pts[~ok])
        todo = np.concatenate(failed)
        R *= 2
    return idx, dist


def _improvable(X, Y, seq, E, nbr, nbd) -> list[int]:
    """Nodes from which _local_search has an improving move, in path order.

    The same candidate moves, pruning and float expressions as the node
    examination in _local_search, evaluated for every node at once in
    numpy: seq is the path as node ids, E its leg lengths and nbr, nbd the
    neighbour lists of _neighbours, of shape (m, k).  Each move type is one
    flat pair scan: a limit per node a, the length the move's pruning
    compares |ac| with (0 or -inf where a has no such move), selects the
    pairs (a, c) with nbd < limit by one flatnonzero over the (m, k) lists;
    the range and identity tests and the gain run on those pairs only.
    Memory is O(m * k).
    """
    m, k = nbd.shape
    # path data padded by 3 at each end: S[p + 3] = seq[p], L[p + 3] = E[p]
    S = np.array(seq[:1] * 3 + seq + seq[-1:] * 3)
    L = np.array([0.0] * 3 + E + [0.0] * 4)
    XS, YS = X[S], Y[S]
    P = np.empty(m, dtype=np.intp)               # padded position of each node
    P[S[3:m + 3]] = np.arange(3, m + 3)
    Q = P[nbr].ravel()                           # padded position of each listed c
    D = nbd.ravel()

    def dist(u, w):
        dx = XS[u] - XS[w]
        dy = YS[u] - YS[w]
        return np.sqrt(dx * dx + dy * dy)

    found = np.zeros(m + 6, dtype=bool)          # by padded position
    # 2-opt: a-b and c-e give way to a-c and b-e; an end node's missing
    # edge reads a pad leg of 0, which no |ac| undercuts
    for step in (1, -1):
        back = int(step < 0)
        dab = L[P - back]
        f = np.flatnonzero(nbd < dab[:, None])
        a, q = f // k, Q[f]
        p = P[a]
        b, e = p + step, q + step
        ok = (3 <= e) & (e < m + 3) & (S[q] != S[b]) & (S[e] != a)
        ok &= (D[f] + dist(b, e)) - (dab[a] + L[q - back]) < -_IMPROVE_EPS
        found[p[ok]] = True
    # Or-opt: seq[i..j] leaves prev-nxt and goes in beside c; a segment
    # must lie inside the path, between its first and last node
    for lo, hi in ((0, 0), (0, 1), (-1, 0), (0, 2), (-2, 0)):
        i, j = P + lo, P + hi
        gain = (L[i - 1] + L[j]) - dist(i - 1, j + 1)
        gain[(i < 4) | (j > m + 1)] = -np.inf
        f = np.flatnonzero(nbd < gain[:, None])
        a, q, dac = f // k, Q[f], D[f]
        p = P[a]
        i, j, gain = p + lo, p + hi, gain[a]
        t = j if lo == 0 else i                  # the end away from a
        after_c = ((q <= i - 2) | ((j < q) & (q < m + 2))) & (
            ((dac + dist(t, q + 1)) - L[q]) - gain < -_IMPROVE_EPS)
        before_c = (((3 < q) & (q < i)) | (q > j + 1)) & (
            ((dist(q - 1, t) + dac) - L[q - 1]) - gain < -_IMPROVE_EPS)
        found[p[after_c | before_c]] = True
    return S[np.flatnonzero(found)].tolist()


def _local_search(X: np.ndarray, Y: np.ndarray, seq: list[int], budget: int,
                  near_idx: np.ndarray, near_d: np.ndarray, nbr: list) -> int:
    """2-opt and Or-opt over nearest-neighbour candidates, in place.

    X, Y hold the coordinates by node id and seq the path as node ids; its
    first and last nodes stay fixed.  near_idx, near_d are _neighbours'
    lists over X, Y and nbr is near_idx as Python lists: the 10 nearest
    nodes in a large search, every other node in a small one.  A move is
    tried only when one of its new edges joins a node a to a node c on a's
    list, and only while |ac| is shorter than what a's side of the move
    removes:
    - 2-opt: a's edge to its successor b (or predecessor) and c's edge on
      the same side, c-e, give way to a-c and b-e;
    - Or-opt: a segment of 1-3 nodes with a at one end moves next to c,
      between c and its successor or between c's predecessor and c, in the
      orientation that puts a beside c.
    Nodes wait in a queue (don't-look bits).  A node's first improving move
    is applied, and the nodes of the changed edges go back on the queue.
    A reversal also flips which moves are valid at nodes whose own edges
    did not change, so the queue alone can stop early: it starts with, and
    whenever it empties is refilled with, the nodes that _improvable finds.
    On return no candidate move shortens the path by more than
    _IMPROVE_EPS, unless the accepted-move budget ran out.  Memory is
    O(m * k) for lists of k nodes.  Returns the unspent budget.
    """
    m = len(seq)
    nbd = near_d.tolist()
    xs, ys = X.tolist(), Y.tolist()
    pos = [0] * m
    for k, a in enumerate(seq):
        pos[a] = k

    def d(a, b):
        dx = xs[a] - xs[b]
        dy = ys[a] - ys[b]
        return math.sqrt(dx * dx + dy * dy)

    E = [d(a, b) for a, b in zip(seq, seq[1:])]     # E[k] = |seq[k] seq[k+1]|

    def place(lo, hi):
        for k in range(lo, hi + 1):
            pos[seq[k]] = k

    def two_opt(a):
        p = pos[a]
        near = nbd[a][0]
        for step, back in ((1, 0), (-1, 1)):   # a's successor edge, then its predecessor edge
            if not 0 <= p + step < m:
                continue
            dab = E[p - back]
            if near >= dab:                     # the loop below would stop at its first c
                continue
            b = seq[p + step]
            xb, yb = xs[b], ys[b]
            for c, dac in zip(nbr[a], nbd[a]):
                if dac >= dab:
                    break
                q = pos[c]
                if not 0 <= q + step < m:
                    continue
                e = seq[q + step]
                if c == b or e == a:
                    continue
                dx = xb - xs[e]
                dy = yb - ys[e]
                dbe = math.sqrt(dx * dx + dy * dy)
                if (dac + dbe) - (dab + E[q - back]) < -_IMPROVE_EPS:
                    lo, hi = (p, q) if p < q else (q, p)
                    lo, hi = lo + 1 - back, hi - back
                    # lo >= 1: p and q both have a neighbour on the step side
                    seq[lo:hi + 1] = seq[hi:lo - 1:-1]
                    E[lo:hi] = E[hi - 1:lo - 1:-1]
                    E[lo - 1], E[hi] = (dbe, dac) if back else (dac, dbe)
                    place(lo, hi)
                    return a, b, c, e
        return None

    def or_opt(a):
        p = pos[a]
        if p == 0 or p == m - 1:
            return None
        near = nbd[a][0]
        # segments seq[i..j] of 1-3 nodes with a at one end
        for i, j in ((p, p), (p, p + 1), (p - 1, p), (p, p + 2), (p - 2, p)):
            if i < 1 or j > m - 2:
                continue
            # the loop below tries c only while |ac| < gain = cut - |prev nxt|
            cut = E[i - 1] + E[j]
            room = cut - near
            if room <= 0.0:
                continue
            prev, nxt = seq[i - 1], seq[j + 1]
            dx = xs[prev] - xs[nxt]
            dy = ys[prev] - ys[nxt]
            dpn = dx * dx + dy * dy
            if dpn > (room + 1e-9 * cut) ** 2:     # gain < |ac| for every c
                continue
            dpn = math.sqrt(dpn)
            gain = cut - dpn
            t = seq[j] if i == p else seq[i]      # the end away from a
            xt, yt = xs[t], ys[t]
            move = None
            for c, dac in zip(nbr[a], nbd[a]):
                if dac >= gain:
                    break
                q = pos[c]
                # c, a .. t, w: between c and its successor w
                if q <= i - 2 or j < q < m - 1:
                    w = seq[q + 1]
                    dx = xt - xs[w]
                    dy = yt - ys[w]
                    if ((dac + math.sqrt(dx * dx + dy * dy)) - E[q]) - gain < -_IMPROVE_EPS:
                        move = q, i == p          # (insert after, keep path order)
                        break
                # w, t .. a, c: between c's predecessor w and c
                if 0 < q < i or q > j + 1:
                    w = seq[q - 1]
                    dx = xs[w] - xt
                    dy = ys[w] - yt
                    if ((math.sqrt(dx * dx + dy * dy) + dac) - E[q - 1]) - gain < -_IMPROVE_EPS:
                        move = q - 1, i != p
                        break
            if move is None:
                continue
            r, forward = move
            u, w = seq[r], seq[r + 1]
            block, inner = seq[i:j + 1], E[i:j]
            if not forward:
                block.reverse()
                inner.reverse()
            joined = [d(u, block[0])] + inner + [d(block[-1], w)]
            if r < i:
                seq[r + 1:j + 1] = block + seq[r + 1:i]
                E[r:j + 1] = joined + E[r + 1:i - 1] + [dpn]
                place(r + 1, j)
            else:
                seq[i:r + 1] = seq[j + 1:r + 1] + block
                E[i - 1:r + 1] = [dpn] + E[j + 1:r] + joined
                place(i, r)
            return prev, nxt, a, t, u, w
        return None

    queue = deque()
    queued = [False] * m
    moved = True
    while budget > 0:
        if not queue:
            if not moved:        # only if _improvable and the examination disagree
                break
            moved = False
            queue.extend(_improvable(X, Y, seq, E, near_idx, near_d))
            for a in queue:
                queued[a] = True
            continue
        a = queue.popleft()
        queued[a] = False
        touched = two_opt(a) or or_opt(a)
        if touched:
            budget -= 1
            moved = True
            for t in touched:
                if not queued[t]:
                    queued[t] = True
                    queue.append(t)
    return budget


def _fold_length(P: np.ndarray) -> float:
    """Length of the path through the rows of P, legs added left to right."""
    return float(np.add.accumulate(_dists(P[:-1, 0], P[:-1, 1], P[1:, 0], P[1:, 1]))[-1])


def emhp_heuristic(s, points, f):
    """Good s -> points -> f path: nearest-neighbor starts plus local search.

    One loop at every size: for each of the _STARTS points c nearest s, a
    nearest-neighbor path s, c, ... (_nn_path), then _local_search, 2-opt
    and Or-opt moves whose new edge joins a node to one of its listed
    nearest neighbours; the strictly shortest path wins.  The size only
    sets two constants: up to 64 points the lists are complete and there
    are 8 starts; above 64 they hold the 10 nearest neighbours and there
    is 1 start, O(10 n) plus an O(n) scan per step whose list is all
    visited, in O(10 n) memory.  The accepted-move budget is 50*n^2,
    shared by the starts.  Never better than emhp_exact, usually equal for
    small n.
    """
    return _start_and_search(_path_points(s, points, f, "emhp_heuristic"))


def _start_and_search(P: np.ndarray):
    """emhp_heuristic's path through the rows of P: s, the points, then f."""
    n = len(P) - 2
    if n == 0:
        return [], _fold_length(P)              # s -> f
    X, Y = P[:, 0], P[:, 1]
    small = n <= _SMALL_HEURISTIC_CAP
    near_idx, near_d = _neighbours(X, Y, n + 1 if small else _NEIGHBOURS)
    nbr = near_idx.tolist()
    budget = 50 * n * n
    best = None
    firsts = np.argsort(_dists(X[0], Y[0], X[1:-1], Y[1:-1]), kind="stable")
    for c in firsts[:_STARTS if small else 1]:
        cand = _nn_path(X, Y, nbr, [0, int(c) + 1], n + 1)
        budget = _local_search(X, Y, cand, budget, near_idx, near_d, nbr)
        length = _fold_length(P[cand])
        if best is None or length < best:
            seq, best = cand, length
        if budget <= 0:
            break
    return [k - 1 for k in seq[1:-1]], best


# ---------------------------------------------------------------------------
# translational instances


@dataclass(frozen=True)
class TmhpInstance:
    """Moving-target path problem: start s, targets, finish f, speed v.

    Coordinates are target positions at the instance's reference instant;
    f is the final target (not repeated in points).
    """

    s: tuple
    points: tuple
    f: tuple
    v: float

    def __post_init__(self):
        _check_speed(self.v)
        try:
            points = tuple(self.points)     # a generator is read once, here
        except TypeError:
            raise ParameterDomainError(
                f"points: expected a sequence of (x, y) pairs, got {self.points!r}") from None
        object.__setattr__(self, "points", points)
        for name, pts in (("s", [self.s]), ("points", points), ("f", [self.f])):
            for p in pts:
                _finite_xy(p, name)


@dataclass(frozen=True)
class TmhpSolution:
    order: tuple          # visiting order, indexes into instance.points
    duration: float       # executed travel time, s through points to f
    emhp_length: float    # static path length in transformed space


def tmhp_solve(instance: TmhpInstance) -> TmhpSolution:
    """Plan in transformed space, then execute with chained intercepts.

    The executed duration must equal emhp_length + v*(y_f - y_s)/(1 - v^2)
    for the same order to 1e-9 max(1, |duration|) max(1, legs / 1000), as
    rounding grows with both; a violation raises (broken kinematics).
    """
    if not isinstance(instance, TmhpInstance):
        raise ParameterDomainError(f"tmhp_solve: expected a TmhpInstance, got {instance!r}")
    P = np.array([instance.s, *instance.points, instance.f], dtype=float)
    order, duration, length = _plan(P, instance.v)
    return TmhpSolution(order=tuple(order), duration=duration, emhp_length=length)


def _plan(P: np.ndarray, v: float):
    """tmhp_solve's (order, duration, emhp_length) on checked input: the
    rows of P are the finite coordinates of s, the points, then f, and
    0 < v < 1."""
    c = 1.0 - v * v
    with np.errstate(over="ignore"):     # a row mapped to inf fails the spread check
        G = P / (math.sqrt(c), c)        # g_map of every row, bit for bit
    _check_spread(G, "tmhp_solve")
    order, length = (_held_karp if len(P) - 2 <= EXACT_SOLVER_CAP else _start_and_search)(G)
    rows = P.tolist()
    pos, tau = rows[0], 0.0
    for x, y in [rows[k + 1] for k in order] + rows[-1:]:
        tau += _intercept_time(pos, (x, y + v * tau), v)
        pos = (x, y + v * tau)
    drift = v * (rows[-1][1] - rows[0][1]) / c
    if abs(tau - (length + drift)) > 1e-9 * max(1.0, abs(tau)) * max(1.0, (len(order) + 1) / 1000):
        raise ContractViolationError(
            f"duration {tau} deviates from transformed length + drift "
            f"{length + drift}; intercept chain is inconsistent"
        )
    return order, tau, length


# ---------------------------------------------------------------------------
# TF policy


def run_tf(stream: DemandStream, start=None, trace: bool = False) -> RunResult:
    """Repeatedly sweep the lower half strip along a planned path.

    Each sweep plans at t a path from the vehicle through the ready demands,
    the outstanding ones with v (t - t_arr) <= L/2, that ends at the lowest,
    the smallest id among equally low ones.  It captures each target at its
    intercept if that is at or before t + L/(2v), skips one that escaped at
    or before the previous capture instant, and cuts at t + L/(2v) the
    first leg that would end later.  A sweep is one kernel commit and one
    advance.  start is the vehicle's (x, y), by default (W/2, L/2).
    """
    sim = _EventKernel(stream, start, trace, strip=True)
    v, L = sim.env.v, sim.env.L
    t_arr, xs, ids, t_esc = stream.t_arr, stream.x, stream.ids, sim.t_esc
    pos, t = sim.start, 0.0
    while True:
        ready = [k for k in sim.outstanding if v * (t - t_arr[k]) <= L / 2.0]
        if not ready:
            if sim.arrived == len(t_arr):
                return sim.finish()     # anything left can only escape
            t = t_arr[sim.arrived]
            sim.advance(t, True)
            continue

        ready.sort(key=lambda k: (v * (t - t_arr[k]), ids[k]))
        finish, others = ready[0], ready[1:]
        P = np.array([pos] + [(xs[k], v * (t - t_arr[k])) for k in others + [finish]],
                     dtype=float)
        order, _, _ = _plan(P, v)
        sim.recompute(t, pos[0])
        ks, legs, end, t_end, cut = _sweep(pos, t, [others[j] for j in order] + [finish],
                                           t_arr, xs, t_esc, v, t + L / (2.0 * v))
        sim.commit(ks, t, pos[0], legs, cut and (cut, t_end, end[0]))
        sim.advance(t_end, True)
        pos, t = end, t_end


def _sweep(pos, t, targets, t_arr, xs, t_esc, v: float, t_stop: float):
    """run_tf's sweep through targets, in order, from the vehicle at pos at
    t: (ks, legs, end, t_end, cut), the captured positions, their (capture
    instant, leg duration), and where the vehicle ends.  That is the last
    capture, with cut None, or the point end at t_end = t_stop on the cut
    leg, cut = (t0, x_from, x_to, dur)."""
    ks, legs = [], []
    for k in targets:
        if t_esc[k] <= t:
            continue            # escaped at or before the previous capture
        y = v * (t - t_arr[k])
        T = _intercept_time(pos, (xs[k], y), v)
        t_meet, aim = t + T, (xs[k], y + v * T)
        if t_meet <= t_stop:
            ks.append(k)
            legs.append((t_meet, T))
            pos, t = aim, t_meet
            continue
        frac = (t_stop - t) / T         # budget spent mid-leg: stop on the segment
        end = (pos[0] + frac * (aim[0] - pos[0]), pos[1] + frac * (aim[1] - pos[1]))
        return ks, legs, end, t_stop, (t, pos[0], aim[0], T)
    return ks, legs, pos, t, None
