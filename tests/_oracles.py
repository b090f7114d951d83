"""Independent reference implementations used only by the test suite.

Each oracle recomputes a quantity by a different method than the package
(brute force, exhaustive enumeration, exact rational arithmetic) so that
agreement is evidence rather than tautology.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

import numpy as np


# ---------------------------------------------------------------------------
# kinematics


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
    best = int(np.argmin(lengths))
    return float(lengths[best]), [int(i) for i in P[best]]


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


def emhp_heuristic_dense(s, points, f):
    """The large-n emhp_heuristic path on a dense (n+2)^2 distance matrix.

    Nearest neighbor from the point closest to s, then full-row 2-opt on
    matrix lookups, then a left-to-right fold of the path length.  The
    package's matrix-free kernel must return the same (order, length) bit
    for bit.
    """
    n = len(points)
    all_pts = np.array([tuple(s)] + [tuple(p) for p in points] + [tuple(f)], dtype=float)
    D = _dense_dist_matrix(all_pts)
    order = _dense_nn_order(D[1:n + 1, 1:n + 1], int(np.argmin(D[0, 1:n + 1])))
    seq = np.array([0] + [i + 1 for i in order] + [n + 1], dtype=np.intp)
    _dense_two_opt_rows(D, seq, 50 * n * n, closed=False)
    total = D[seq[0], seq[1]]
    for k in range(1, len(seq) - 1):
        total += D[seq[k], seq[k + 1]]
    return [int(k) - 1 for k in seq[1:-1]], float(total)


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
    been captured, every demand resolves at most once, and capture events
    happen at or before the demand's escape time.
    """
    last_t = -math.inf
    last_pos = (start[0], None)
    resolved = {}
    arrived = set()
    by_id = {d.id: d for d in stream.demands}
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
        last_t = t
    return resolved
