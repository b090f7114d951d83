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

import heapq
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .core import Demand, DemandStream
from .deadline_policies import RunResult, TraceEvent
from .errors import (ContractViolationError, ParameterDomainError, RegimeError,
                     SizeLimitError)

EXACT_SOLVER_CAP = 13        # Held-Karp subset table stays under 2^13 * 13 cells

_IMPROVE_EPS = 1e-12         # accepted local-search moves must beat this
_SMALL_HEURISTIC_CAP = 64    # above this, drop or-opt and use matrix-free 2-opt


def _check_speed(v: float) -> None:
    if not isinstance(v, (int, float)) or isinstance(v, bool) or \
            not 0.0 < float(v) < 1.0:
        raise ParameterDomainError(f"translation speed must lie in (0, 1), got {v!r}")


def g_map(point, v: float):
    """(x, y) -> (x / sqrt(1 - v^2), y / (1 - v^2)); distance-to-time map."""
    _check_speed(v)
    x, y = point
    c = 1.0 - v * v
    return (x / math.sqrt(c), y / c)


def g_inv(point, v: float):
    """Inverse of g_map."""
    _check_speed(v)
    x, y = point
    c = 1.0 - v * v
    return (x * math.sqrt(c), y * c)


def intercept_time(vehicle, target_initial, v: float) -> float:
    """Minimum time for a unit-speed vehicle to meet a target that starts at
    target_initial and translates up at speed v < 1.

    Moving straight toward (x, y + v*T) for the returned T meets the target
    exactly; the aim point sits at distance exactly T from the vehicle.
    """
    _check_speed(v)
    X, Y = vehicle
    x, y = target_initial
    c = 1.0 - v * v
    dy = Y - y
    return (math.sqrt(c * (X - x) ** 2 + dy * dy) - v * dy) / c


# ---------------------------------------------------------------------------
# fixed-endpoint Hamiltonian paths (static space)


def _dist_matrix(all_pts: np.ndarray) -> np.ndarray:
    diff = all_pts[:, None, :] - all_pts[None, :, :]
    return np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)


def _path_length(D: np.ndarray, n: int, order) -> float:
    """Fold s -> order -> f left to right; indices are point indices 0..n-1."""
    total = D[0, order[0] + 1] if order else D[0, n + 1]
    for k in range(1, len(order)):
        total += D[order[k - 1] + 1, order[k] + 1]
    if order:
        total += D[order[-1] + 1, n + 1]
    return float(total)


def emhp_exact(s, points, f):
    """Optimal s -> points -> f path by Held-Karp over subsets.

    Returns (order, length); order indexes into points.  Accumulation is
    sequential left to right, so the length is bit-identical to minimizing
    the same running sum over all permutations.  Ties take the smallest
    point index at each reconstruction step.
    """
    n = len(points)
    if n > EXACT_SOLVER_CAP:
        raise SizeLimitError(
            f"exact solver capped at {EXACT_SOLVER_CAP} points, got {n}; "
            "use emhp_heuristic"
        )
    all_pts = np.array([tuple(s)] + [tuple(p) for p in points] + [tuple(f)], dtype=float)
    D = _dist_matrix(all_pts)
    if n == 0:
        return [], float(D[0, 1])
    d = [[float(D[i + 1, j + 1]) for j in range(n)] for i in range(n)]
    d_s = [float(D[0, j + 1]) for j in range(n)]
    d_f = [float(D[j + 1, n + 1]) for j in range(n)]

    size = 1 << n
    INF = math.inf
    # g[mask][i]: cheapest running sum from s over exactly mask, ending at i
    g = [[INF] * n for _ in range(size)]
    parent = [[-1] * n for _ in range(size)]
    for i in range(n):
        g[1 << i][i] = d_s[i]
    for mask in range(size):
        row = g[mask]
        for i in range(n):
            gi = row[i]
            if gi == INF or not (mask >> i) & 1:
                continue
            di = d[i]
            for j in range(n):
                if (mask >> j) & 1:
                    continue
                nm = mask | (1 << j)
                cand = gi + di[j]
                if cand < g[nm][j]:
                    g[nm][j] = cand
                    parent[nm][j] = i
    full = size - 1
    best_len = INF
    best_end = -1
    for i in range(n):
        total = g[full][i] + d_f[i]
        if total < best_len:
            best_len = total
            best_end = i
    order = []
    mask, i = full, best_end
    while i >= 0:
        order.append(i)
        mask, i = mask ^ (1 << i), parent[mask][i]
    order.reverse()
    return order, float(best_len)


def _dists(px, py, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Distances from (px, py) to each (X[k], Y[k]).

    The operations of _dist_matrix in the same order, done in place, so each
    value equals the matrix entry bit for bit (the matrix is exactly
    symmetric, and x ** 2 is x * x).
    """
    dx = px - X
    dx *= dx
    dy = py - Y
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _edge_lengths(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Lengths of the legs (X[k], Y[k]) -> (X[k+1], Y[k+1])."""
    return _dists(X[:-1], Y[:-1], X[1:], Y[1:])


def _nn_order(X: np.ndarray, Y: np.ndarray, first: int) -> list[int]:
    """Nearest-neighbor order over the points (X[k], Y[k]), seeded with first.

    A visited point moves to infinity, so its distance is inf, as in a
    masked matrix row; argmin takes the first of equal minima.
    """
    X, Y = X.copy(), Y.copy()
    order = [first]
    cur = first
    for _ in range(len(X) - 1):
        px, py = X[cur], Y[cur]
        X[cur] = Y[cur] = np.inf
        cur = int(np.argmin(_dists(px, py, X, Y)))
        order.append(cur)
    return order


def _descent_small(D: np.ndarray, n: int, order: list[int], budget: int) -> int:
    """2-opt plus segment relocation (or-opt), first improvement, in place."""
    seq = [0] + [i + 1 for i in order] + [n + 1]
    m = len(seq)
    improved = True
    while improved and budget > 0:
        improved = False
        # 2-opt: reverse seq[i..j], endpoints fixed
        for i in range(1, m - 1):
            for j in range(i + 1, m - 1):
                delta = (D[seq[i - 1], seq[j]] + D[seq[i], seq[j + 1]]
                         - D[seq[i - 1], seq[i]] - D[seq[j], seq[j + 1]])
                if delta < -_IMPROVE_EPS:
                    seq[i:j + 1] = seq[i:j + 1][::-1]
                    budget -= 1
                    improved = True
                    if budget <= 0:
                        break
            if budget <= 0:
                break
        if improved:
            continue
        # or-opt: move a 1-3 segment elsewhere, either orientation
        for ell in (1, 2, 3):
            if ell > m - 2:
                break
            for a in range(1, m - 1 - ell + 1):
                prev, nxt = seq[a - 1], seq[a + ell]
                seg = seq[a:a + ell]
                gain_rm = (D[prev, seg[0]] + D[seg[-1], nxt] - D[prev, nxt])
                rest = seq[:a] + seq[a + ell:]
                for p in range(len(rest) - 1):
                    u, w = rest[p], rest[p + 1]
                    base = D[u, w]
                    for head, tail, rev in ((seg[0], seg[-1], False),
                                            (seg[-1], seg[0], True)):
                        delta = (D[u, head] + D[tail, w] - base) - gain_rm
                        if delta < -_IMPROVE_EPS:
                            mid = seg[::-1] if rev else seg
                            seq = rest[:p + 1] + mid + rest[p + 1:]
                            budget -= 1
                            improved = True
                            break
                    if improved:
                        break
                if improved:
                    break
            if improved or budget <= 0:
                break
    order[:] = [k - 1 for k in seq[1:-1]]
    return budget


def _two_opt(X: np.ndarray, Y: np.ndarray, seq: np.ndarray, budget: int) -> int:
    """Matrix-free 2-opt on an open path, best move per row, in place.

    X, Y hold the coordinates in path order and seq the node ids; the first
    and last entries stay fixed.  Row i reverses seq[i..j] for the j that
    minimizes the length change.  Edge lengths E[k] = |seq[k] seq[k+1]| are
    kept up to date, so a row computes only the distances from its two
    endpoints, and a row without a move hands its second array to the next
    row as the first.  Memory is O(n).  Returns the unspent move budget.
    """
    m = len(X)
    E = _edge_lengths(X, Y)
    improved = True
    while improved and budget > 0:
        improved = False
        d1 = None                        # |seq[i-1] seq[j]| for j = i..m-2
        for i in range(1, m - 2):
            if d1 is None:
                d1 = _dists(X[i - 1], Y[i - 1], X[i:-1], Y[i:-1])
            d2 = _dists(X[i], Y[i], X[i + 1:], Y[i + 1:])    # |seq[i] seq[j+1]|
            deltas = d1 + d2             # ((d1 + d2) - E[i-1]) - E[j]; the order fixes rounding
            deltas -= E[i - 1]
            deltas -= E[i:]
            k = int(deltas.argmin())
            if deltas[k] < -_IMPROVE_EPS:
                j = i + k
                seq[i:j + 1] = seq[i:j + 1][::-1]
                X[i:j + 1] = X[i:j + 1][::-1]
                Y[i:j + 1] = Y[i:j + 1][::-1]
                E[i:j] = E[i:j][::-1]
                E[i - 1], E[j] = d1[k], d2[k]
                budget -= 1
                improved = True
                d1 = None
                if budget <= 0:
                    break
            else:
                d1 = d2[:-1]
    return budget


def emhp_heuristic(s, points, f):
    """Good s -> points -> f path: nearest-neighbor starts plus local search.

    Small instances try several construction seeds and polish with 2-opt and
    segment relocation; large ones run one seed with a matrix-free 2-opt,
    O(n) memory.  The accepted-move budget is 50*n^2.  Never better than
    emhp_exact, usually equal for small n.
    """
    n = len(points)
    all_pts = np.array([tuple(s)] + [tuple(p) for p in points] + [tuple(f)], dtype=float)
    X, Y = all_pts[1:n + 1, 0], all_pts[1:n + 1, 1]
    if n <= _SMALL_HEURISTIC_CAP:
        D = _dist_matrix(all_pts)
        if n == 0:
            return [], float(D[0, 1])
        if n == 1:
            return [0], _path_length(D, n, [0])
        budget = 50 * n * n
        seeds = list(np.argsort(D[0, 1:n + 1], kind="stable")[:min(4, n)])
        best_order, best_len = None, math.inf
        for c in seeds:
            order = _nn_order(X, Y, int(c))
            budget = _descent_small(D, n, order, budget)
            length = _path_length(D, n, order)
            if length < best_len:
                best_order, best_len = order, length
            if budget <= 0:
                break
        return best_order, best_len
    first = int(np.argmin(_dists(all_pts[0, 0], all_pts[0, 1], X, Y)))
    seq = np.array([0] + [i + 1 for i in _nn_order(X, Y, first)] + [n + 1],
                   dtype=np.intp)
    X, Y = all_pts[seq, 0], all_pts[seq, 1]
    _two_opt(X, Y, seq, 50 * n * n)
    # accumulate adds left to right, as _path_length does
    length = float(np.add.accumulate(_edge_lengths(X, Y))[-1])
    return [int(k) - 1 for k in seq[1:-1]], length


def tour_two_opt(points, seed_point: int = 0):
    """Closed tour over all points: nearest neighbor plus matrix-free 2-opt.

    The tour is the open path from seed_point back to itself, so the same
    2-opt kernel runs in O(n) memory.  Returns (order, length).  Used for
    spot checks against the expected sqrt(n * A) scaling of optimal tours
    over uniform points.
    """
    pts = np.array([tuple(p) for p in points], dtype=float)
    n = len(pts)
    if n < 2:
        return list(range(n)), 0.0
    seq = np.array(_nn_order(pts[:, 0], pts[:, 1], seed_point) + [seed_point],
                   dtype=np.intp)
    X, Y = pts[seq, 0], pts[seq, 1]
    _two_opt(X, Y, seq, 50 * n * n)
    E = _edge_lengths(X, Y)
    return [int(i) for i in seq[:-1]], float(E[:-1].sum() + E[-1])


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


@dataclass(frozen=True)
class TmhpSolution:
    order: tuple          # visiting order, indexes into instance.points
    duration: float       # executed travel time, s through points to f
    emhp_length: float    # static path length in transformed space


def tmhp_solve(instance: TmhpInstance) -> TmhpSolution:
    """Plan in transformed space, then execute with chained intercepts.

    The executed duration must equal emhp_length + v*(y_f - y_s)/(1 - v^2)
    to 1e-9 for the same visiting order; this identity is checked on every
    call and a violation raises (it would mean broken kinematics).
    """
    v = instance.v
    ts = g_map(instance.s, v)
    tf_ = g_map(instance.f, v)
    tpts = [g_map(p, v) for p in instance.points]
    if len(tpts) <= EXACT_SOLVER_CAP:
        order, length = emhp_exact(ts, tpts, tf_)
    else:
        order, length = emhp_heuristic(ts, tpts, tf_)

    pos = tuple(instance.s)
    tau = 0.0
    for idx in order:
        x, y = instance.points[idx]
        T = intercept_time(pos, (x, y + v * tau), v)
        tau += T
        pos = (x, y + v * tau)
    x, y = instance.f
    tau += intercept_time(pos, (x, y + v * tau), v)

    drift = v * (instance.f[1] - instance.s[1]) / (1.0 - v * v)
    if abs(tau - (length + drift)) > 1e-9:
        raise ContractViolationError(
            f"duration {tau} deviates from transformed length + drift "
            f"{length + drift}; intercept chain is inconsistent"
        )
    return TmhpSolution(order=tuple(order), duration=tau, emhp_length=length)


# ---------------------------------------------------------------------------
# TF policy


def run_tf(stream: DemandStream, start=None, trace: bool = False) -> RunResult:
    """Repeatedly sweep the lower half strip along a planned path.

    Each iteration plans a path from the vehicle through every outstanding
    demand at ordinate <= L/2, ending at the lowest one, and follows it for
    at most L/(2v) time units; a leg cut off by the budget is abandoned
    mid-flight.  Captures happen only at planned intercepts.
    """
    env = stream.env
    if env.v >= 1.0:
        raise RegimeError(f"the TF policy needs v < 1, got v={env.v}")
    v, L = env.v, env.L
    pos = (env.W / 2.0, L / 2.0) if start is None else (float(start[0]), float(start[1]))
    t = 0.0
    demands = [replace(d) for d in stream]
    by_id = {d.id: d for d in demands}
    pending = deque(demands)
    outstanding: dict[int, Demand] = {}
    esc_heap: list[tuple[float, int]] = []
    events: list[TraceEvent] | None = [] if trace else None
    n_capt = n_esc = 0
    # current motion leg, for positions at event times
    leg = (0.0, pos, pos, 0.0)     # (t0, from, aim, T)

    def emit(at, kind, demand_id, vx):
        if events is not None:
            events.append(TraceEvent(at, kind, demand_id, vx))

    def pos_at(at):
        t0, p0, aim, T = leg
        if T <= 0.0:
            return p0
        frac = min(max(at - t0, 0.0), T) / T
        return (p0[0] + frac * (aim[0] - p0[0]), p0[1] + frac * (aim[1] - p0[1]))

    def admit(d):
        pending.popleft()
        d.mark_outstanding()
        outstanding[d.id] = d
        heapq.heappush(esc_heap, (d.escape_time(env), d.id))
        emit(d.t_arr, "arrival", d.id, pos_at(d.t_arr)[0])

    def advance(t_end, inclusive_arrivals, protect=None):
        """Fire escapes and admissions chronologically up to t_end."""
        nonlocal n_esc
        stash = []
        while True:
            t_e, i_e = math.inf, -1
            while esc_heap:
                te, ie = esc_heap[0]
                d = by_id[ie]
                if d.resolve_time is not None:
                    heapq.heappop(esc_heap)
                    continue
                if ie == protect:
                    stash.append(heapq.heappop(esc_heap))
                    continue
                t_e, i_e = te, ie
                break
            t_a = pending[0].t_arr if pending else math.inf
            if i_e >= 0 and t_e <= t_end and t_e <= t_a:
                heapq.heappop(esc_heap)
                d = outstanding.pop(i_e)
                d.mark_escaped(t_e)
                n_esc += 1
                emit(t_e, "escape", i_e, pos_at(t_e)[0])
                continue
            arr_ok = (t_a <= t_end) if inclusive_arrivals else (t_a < t_end)
            if arr_ok and t_a < t_e:
                admit(pending[0])
                continue
            break
        for entry in stash:
            heapq.heappush(esc_heap, entry)

    while True:
        ready = [d for d in outstanding.values() if v * (t - d.t_arr) <= L / 2.0]
        if not ready:
            if pending:
                t_next = pending[0].t_arr
                leg = (t, pos, pos, 0.0)
                advance(t_next, inclusive_arrivals=True)
                t = t_next
                continue
            # nothing arriving; anything left can only escape
            leg = (t, pos, pos, 0.0)
            advance(math.inf, inclusive_arrivals=True)
            break

        ready.sort(key=lambda d: (v * (t - d.t_arr), d.id))
        finish = ready[0]
        others = ready[1:]
        inst = TmhpInstance(
            s=pos,
            points=tuple((d.x, v * (t - d.t_arr)) for d in others),
            f=(finish.x, v * (t - finish.t_arr)),
            v=v,
        )
        sol = tmhp_solve(inst)
        emit(t, "recompute", None, pos[0])
        targets = [others[k] for k in sol.order] + [finish]
        t_stop = t + L / (2.0 * v)

        for d in targets:
            if d.resolve_time is not None:
                continue          # escaped at the budget boundary mid-path
            now = (d.x, v * (t - d.t_arr))
            T = intercept_time(pos, now, v)
            t_meet = t + T
            aim = (d.x, now[1] + v * T)
            leg = (t, pos, aim, T)
            if t_meet <= t_stop:
                advance(t_meet, inclusive_arrivals=False, protect=d.id)
                pos, t = aim, t_meet
                outstanding.pop(d.id)
                d.mark_captured(t_meet)
                n_capt += 1
                emit(t_meet, "capture", d.id, d.x)
            else:
                # budget exhausted mid-leg: stop on the segment and abandon
                # the chase (if the target is exactly at the deadline now,
                # its escape fires like any other)
                rem = t_stop - t
                advance(t_stop, inclusive_arrivals=True)
                frac = rem / T
                pos = (pos[0] + frac * (aim[0] - pos[0]),
                       pos[1] + frac * (aim[1] - pos[1]))
                t = t_stop
                break
        else:
            # path completed within budget; admit anything that landed at t
            leg = (t, pos, pos, 0.0)
            advance(t, inclusive_arrivals=True)

    if n_capt + n_esc != len(demands):
        raise ContractViolationError(
            f"{n_capt} captures + {n_esc} escapes != {len(demands)} demands")
    return RunResult(n_capt, n_esc, trace=events)
