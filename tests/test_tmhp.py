"""g-transform, intercept timing, Hamiltonian path solvers, TF policy."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardsim import (
    Demand,
    DemandStream,
    ParameterDomainError,
    RegimeError,
    SizeLimitError,
    TmhpInstance,
    emhp_exact,
    emhp_heuristic,
    g_inv,
    g_map,
    generate_stream,
    intercept_time,
    make_env,
    run_tf,
    tmhp_solve,
)

from guardsim import tmhp
from guardsim.tmhp import _improvable, _local_search, _neighbours

from ._oracles import (check_trace, emhp_brute, emhp_brute_lengths, emhp_heuristic_dense,
                       emhp_nn_start, emhp_nn_starts, fold_length, improving_candidate_moves,
                       knn_brute, tour, tour_two_opt_dense)


def test_g_map_identity_limit():
    x, y = g_map((2.0, -3.0), v=1e-9)
    assert abs(x - 2.0) < 1e-6 and abs(y + 3.0) < 1e-6


def test_g_map_frozen_point():
    # 1/sqrt(0.64) = 1.25, 1/0.64 = 1.5625
    x, y = g_map((3.0, 4.0), v=0.6)
    assert abs(x - 3.75) < 1e-12 and abs(y - 6.25) < 1e-12


def test_g_round_trip():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        p = (float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
        v = float(rng.uniform(0.01, 0.99))
        q = g_inv(g_map(p, v), v)
        worst = max(worst, abs(q[0] - p[0]), abs(q[1] - p[1]))
    assert worst < 1e-12


def test_g_map_preserves_coordinate_order():
    pts = [(-2.0, 1.0), (0.5, 3.0), (4.0, -1.0)]
    for v in (0.2, 0.7):
        tx = [g_map(p, v) for p in pts]
        for i in range(len(pts)):
            for j in range(len(pts)):
                assert (pts[i][0] < pts[j][0]) == (tx[i][0] < tx[j][0])
                assert (pts[i][1] < pts[j][1]) == (tx[i][1] < tx[j][1])


def test_speed_domain_errors():
    for v in (0.0, 1.0, 1.3, -0.2, True):
        with pytest.raises(ParameterDomainError):
            g_map((1.0, 1.0), v)
        with pytest.raises(ParameterDomainError):
            intercept_time((0.0, 1.0), (0.0, 0.0), v)


BAD_POINTS = [
    (math.nan, 1.0), (0.0, math.inf), (-math.inf, 2.0), (1.0,), (1.0, 2.0, 3.0),
    "ab", ("x", 1.0), None, 5.0,
]


@pytest.mark.parametrize("bad", BAD_POINTS)
def test_point_maps_reject_bad_coordinates(bad):
    with pytest.raises(ParameterDomainError, match="^point: "):
        g_map(bad, 0.5)
    with pytest.raises(ParameterDomainError, match="^point: "):
        g_inv(bad, 0.5)
    with pytest.raises(ParameterDomainError, match="^vehicle: "):
        intercept_time(bad, (0.0, 0.0), 0.5)
    with pytest.raises(ParameterDomainError, match="^target_initial: "):
        intercept_time((0.0, 0.0), bad, 0.5)


@pytest.mark.parametrize("bad", BAD_POINTS)
def test_path_solvers_reject_bad_coordinates(bad):
    pts = [(float(i), float(i % 7)) for i in range(80)]
    for solver, n in ((emhp_exact, 5), (emhp_heuristic, 5), (emhp_heuristic, 80)):
        match = f"^{solver.__name__}: "
        for args in ((bad, pts[:n], (1.0, 1.0)), ((0.0, 0.0), pts[:n] + [bad], (1.0, 1.0)),
                     ((0.0, 0.0), pts[:n], bad)):
            with pytest.raises(ParameterDomainError, match=match):
                solver(*args)
    # s, points and f all of one wrong arity
    for solver in (emhp_exact, emhp_heuristic):
        with pytest.raises(ParameterDomainError):
            solver((0.0, 0.0, 9.0), [(3.0, 4.0, 1.0)], (3.0, 4.0, 7.0))
        with pytest.raises(ParameterDomainError):
            solver((0.0,), [(1.0,)], (3.0,))


def test_intercept_time_euclidean_limit():
    T = intercept_time((0.0, 0.0), (3.0, -4.0), v=1e-12)
    assert abs(T - 5.0) < 1e-9


def test_intercept_time_frozen_case():
    # vertical chase-down: target 1 below, closing speed 1 + v relative...
    # the travel-time formula gives (1 - 0.5)/0.75 = 2/3, and the aim point
    # (0, -1 + 0.5*(2/3)) = (0, -2/3) sits exactly 2/3 away
    T = intercept_time((0.0, 0.0), (0.0, -1.0), v=0.5)
    assert abs(T - 2.0 / 3.0) < 1e-15
    aim_y = -1.0 + 0.5 * T
    assert abs(abs(aim_y) - T) < 1e-15


def test_intercept_kinematics():
    # straight-line motion toward (x, y + vT) meets the target at time T
    rng = np.random.default_rng(32)
    for _ in range(300):
        v = float(rng.uniform(0.02, 0.98))
        P = (float(rng.uniform(-5, 15)), float(rng.uniform(-10, 10)))
        q = (float(rng.uniform(-5, 15)), float(rng.uniform(-10, 10)))
        T = intercept_time(P, q, v)
        aim = (q[0], q[1] + v * T)
        dist = math.sqrt((aim[0] - P[0]) ** 2 + (aim[1] - P[1]) ** 2)
        assert T >= 0.0
        assert abs(dist - T) <= 1e-9      # vehicle arrives exactly when target does


def test_emhp_exact_empty_and_collinear():
    order, length = emhp_exact((0.0, 0.0), [], (3.0, 4.0))
    assert order == [] and length == 5.0
    pts = [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
    order, length = emhp_exact((0.0, 0.0), pts, (4.0, 0.0))
    assert order == [0, 1, 2] and length == 4.0


def test_emhp_exact_matches_brute_force():
    rng = np.random.default_rng(33)
    for _ in range(150):
        n = int(rng.integers(1, 9))
        pts = [tuple(p) for p in rng.random((n, 2)) * 10]
        s = tuple(rng.random(2) * 10)
        f = tuple(rng.random(2) * 10)
        order, length = emhp_exact(s, pts, f)
        blen, border = emhp_brute(s, pts, f)
        assert length == blen             # exact float equality, same fold order
        assert order == border


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 7), step=st.sampled_from([0.5, 1.0]))
def test_emhp_exact_matches_brute_force_on_lattices(data, n, step):
    # few lattice sites, so duplicate points and equal-length orders occur
    site = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
        lambda p: (step * p[0], step * p[1]))
    s, f = data.draw(site), data.draw(site)
    pts = data.draw(st.lists(site, min_size=n, max_size=n))
    order, length = emhp_exact(s, pts, f)
    P, lengths = emhp_brute_lengths(s, pts, f)
    blen, border = emhp_brute(s, pts, f)
    assert length == blen
    assert sorted(order) == list(range(n))
    assert fold_length([s] + pts + [f], [0] + [k + 1 for k in order] + [n + 1]) == length
    if (lengths == blen).sum() == 1:
        assert order == border


def test_emhp_exact_size_cap():
    pts = [(float(i), 0.0) for i in range(14)]
    with pytest.raises(SizeLimitError):
        emhp_exact((0.0, 0.0), pts, (15.0, 0.0))


def test_emhp_heuristic_small_equals_exact():
    rng = np.random.default_rng(34)
    for _ in range(150):
        n = int(rng.integers(0, 4))
        pts = [tuple(p) for p in rng.random((n, 2)) * 10]
        s = tuple(rng.random(2) * 10)
        f = tuple(rng.random(2) * 10)
        _, hl = emhp_heuristic(s, pts, f)
        _, el = emhp_exact(s, pts, f)
        assert hl == el


def test_emhp_heuristic_quality_and_ordering():
    rng = np.random.default_rng(35)
    for _ in range(40):
        pts = [tuple(p) for p in rng.random((10, 2)) * 10]
        s = tuple(rng.random(2) * 10)
        f = tuple(rng.random(2) * 10)
        _, hl = emhp_heuristic(s, pts, f)
        _, el = emhp_exact(s, pts, f)
        assert el <= hl <= 1.05 * el


def test_emhp_heuristic_convex_arc():
    # points on a circular arc between s and f: crossings all removed
    s, f = (-1.0, 0.0), (1.0, 0.0)
    angles = [160, 130, 100, 70, 40, 20]
    shuffled = [3, 0, 5, 1, 4, 2]
    pts = [(math.cos(math.radians(angles[i])), math.sin(math.radians(angles[i])))
           for i in shuffled]
    order, length = emhp_heuristic(s, pts, f)
    visited = [angles[shuffled[i]] for i in order]
    assert visited == sorted(visited, reverse=True)
    _, el = emhp_exact(s, pts, f)
    assert length == el


def _cloud(n, seed, grid):
    """n points in [0, 10)^2; grid > 0 snaps them to a grid-spaced lattice,
    which makes duplicate points, collinear runs and tied distances."""
    pts = np.random.default_rng(seed).random((n + 2, 2)) * 10
    if grid:
        pts = np.round(pts / grid) * grid
    return [tuple(map(float, p)) for p in pts]


_GRIDS = st.sampled_from([0.0, 0.5, 1.0, 2.5])


def _check_path(s, pts, f, k=10):
    # a permutation, its left-to-right length, no longer than the
    # nearest-neighbor start, and no improving move left among candidates
    # joining a node to one of its k nearest
    order, length = emhp_heuristic(s, pts, f)
    n = len(pts)
    assert sorted(order) == list(range(n))
    coords = [s] + pts + [f]
    seq = [0] + [i + 1 for i in order] + [n + 1]
    assert length == fold_length(coords, seq)
    assert length <= fold_length(coords, emhp_nn_start(s, pts, f))
    assert improving_candidate_moves(coords, seq, k=k) == []


@settings(max_examples=25, deadline=None)
@given(n=st.integers(65, 400), seed=st.integers(0, 2**32 - 1), grid=_GRIDS,
       closed=st.booleans())
def test_emhp_heuristic_large_local_optimum(n, seed, grid, closed):
    # closed: f = s, the path of a closed tour
    pts = _cloud(n, seed, grid)
    s, f = pts.pop(), pts.pop()
    _check_path(s, pts, s if closed else f)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), grid=_GRIDS,
       closed=st.booleans())
def test_emhp_heuristic_small_local_optimum(n, seed, grid, closed):
    # up to 64 points the candidate lists are complete
    pts = _cloud(n, seed, grid)
    s, f = pts.pop(), pts.pop()
    _check_path(s, pts, s if closed else f, k=n + 1)


@pytest.mark.parametrize("pts", [
    [(3.0, 4.0)] * 120,                                   # all identical
    [(0.25 * ((7 * i) % 150), 2.0) for i in range(150)],  # one line, shuffled
    [(float(i % 9), float(i % 9)) for i in range(100)],   # a diagonal, repeated
], ids=["identical", "line", "diagonal"])
def test_local_search_degenerate_clouds(pts):
    _check_path(pts[0], pts[1:-1], pts[-1])
    _check_path(pts[1], pts[:1] + pts[2:], pts[1])      # a closed tour through pts


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1), grid=_GRIDS,
       spread=st.sampled_from([(1.0, 1.0), (1.0, 1e-3), (1e4, 1.0)]))
def test_neighbours_equal_brute_force(n, seed, grid, spread):
    pts = np.array(_cloud(n, seed, grid)[:n]) * spread
    idx, dist = _neighbours(pts[:, 0], pts[:, 1], 10)
    brute = knn_brute(pts, 10)
    assert idx.tolist() == [[c for _, c in row] for row in brute]
    assert dist.tolist() == [[dc for dc, _ in row] for row in brute]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 300), seed=st.integers(0, 2**32 - 1), grid=_GRIDS)
def test_improvable_nodes_match_oracle(n, seed, grid):
    # on the nearest-neighbor start: the nodes the vectorised scan flags are
    # those with an improving candidate move, at the kernel's own threshold
    pts = _cloud(n, seed, grid)
    s, f = pts.pop(), pts.pop()
    coords = np.array([s] + pts + [f])
    seq = emhp_nn_start(s, pts, f)
    E = [fold_length(coords, [a, b]) for a, b in zip(seq, seq[1:])]
    nbr, nbd = _neighbours(coords[:, 0], coords[:, 1], 10)
    flagged = _improvable(coords[:, 0], coords[:, 1], seq, E, nbr, nbd)
    moves = improving_candidate_moves(coords, seq, tol=1e-12)
    assert set(flagged) == {a for _, a, _, _ in moves}


def test_heuristic_length_within_one_percent_of_dense_reference():
    # fixed seeds: in total over the grid, the neighbour-list search is at
    # most 1% longer than the full-row 2-opt it replaced, open and closed
    path = ref_path = closed = ref_closed = 0.0
    for n in (20, 40, 64, 100, 300, 700, 1500):
        for seed in range(3):
            for grid in (0.0, 0.5):
                pts = _cloud(n, seed, grid)
                s, f = pts.pop(), pts.pop()
                path += emhp_heuristic(s, pts, f)[1]
                ref_path += emhp_heuristic_dense(s, pts, f)[1]
                closed += tour(pts)[1]
                ref_closed += tour_two_opt_dense(pts)[1]
    assert path <= 1.01 * ref_path
    assert closed <= 1.01 * ref_closed


def _starts(call):
    """The starts that call hands to _local_search, as node ids, in order;
    the search itself is skipped."""
    starts = []

    def record(X, Y, seq, budget, *lists):
        starts.append(list(seq))
        return budget

    with mock.patch.object(tmhp, "_local_search", record):
        call()
    return starts


def _large_start(call):
    """The one start that call's large-n path hands to _local_search."""
    (start,) = _starts(call)
    return start


def _counting_fallback(calls):
    """A stand-in for tmhp._nearest, the full scan of the start, that counts
    its calls."""
    nearest = tmhp._nearest

    def counted(*args):
        calls.append(args)
        return nearest(*args)

    return mock.patch.object(tmhp, "_nearest", counted)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(65, 600), seed=st.integers(0, 2**32 - 1), grid=_GRIDS)
def test_emhp_large_start_equals_nn_oracle(n, seed, grid):
    pts = _cloud(n, seed, grid)
    s, f = pts.pop(), pts.pop()
    assert _large_start(lambda: emhp_heuristic(s, pts, f)) == emhp_nn_start(s, pts, f)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), grid=_GRIDS)
def test_emhp_small_starts_equal_nn_oracle(n, seed, grid):
    # up to 64 points: one nearest-neighbor path from each of the 8 points
    # nearest s, in (distance, index) order
    pts = _cloud(n, seed, grid)
    s, f = pts.pop(), pts.pop()
    assert _starts(lambda: emhp_heuristic(s, pts, f)) == emhp_nn_starts(s, pts, f, 8)


def test_nn_start_fallback_matches_oracle():
    # tight clusters of 15 points, far apart and shuffled: before the walk
    # leaves a cluster, every one of a point's 10 nearest is visited, so the
    # start must scan all points
    rng = np.random.default_rng(5)
    centres = [(0.0, 0.0), (90.0, 5.0), (10.0, 80.0), (70.0, 60.0), (40.0, 30.0),
               (140.0, 90.0)]
    cloud = np.array([(cx, cy) for cx, cy in centres for _ in range(15)])
    cloud += rng.random(cloud.shape)
    pts = [tuple(map(float, p)) for p in rng.permutation(cloud)]
    s, f = pts.pop(), pts.pop()
    calls = []
    with _counting_fallback(calls):
        start = _large_start(lambda: emhp_heuristic(s, pts, f))
    assert len(calls) >= len(centres) - 1
    assert start == emhp_nn_start(s, pts, f)


def test_emhp_heuristic_equals_oracle_start_then_search_3000_points():
    n = 3000
    pts = _cloud(n, 2024, 0.0)
    s, f = pts.pop(), pts.pop()
    coords = np.array([s] + pts + [f])
    X, Y = coords[:, 0], coords[:, 1]
    seq = emhp_nn_start(s, pts, f)
    idx, dist = _neighbours(X, Y, 10)
    _local_search(X, Y, seq, 50 * n * n, idx, dist, idx.tolist())
    assert emhp_heuristic(s, pts, f) == ([k - 1 for k in seq[1:-1]],
                                         fold_length(coords, seq))


def test_tmhp_solve_empty_points():
    inst = TmhpInstance(s=(1.0, 5.0), points=(), f=(4.0, 1.0), v=0.3)
    sol = tmhp_solve(inst)
    assert sol.order == ()
    assert abs(sol.duration - intercept_time((1.0, 5.0), (4.0, 1.0), 0.3)) < 1e-12


@pytest.mark.parametrize("field, value", [
    ("s", (math.nan, 1.0)), ("s", (0.0, math.inf)), ("f", (-math.inf, 0.0)),
    ("points", ((1.0, 2.0), (math.nan, 3.0))), ("points", ((1.0, 2.0, 3.0),)),
    ("f", ("x", 1.0)), ("points", (5.0,)), ("points", 5),
])
def test_tmhp_instance_rejects_bad_coordinates(field, value):
    raw = dict(s=(1.0, 5.0), points=((2.0, 2.0),), f=(4.0, 1.0), v=0.3)
    raw[field] = value
    with pytest.raises(ParameterDomainError, match=f"^{field}: "):
        tmhp_solve(TmhpInstance(**raw))


def test_tmhp_instance_reads_a_generator_once():
    # points is stored as a tuple, so the check does not use a generator up
    gen = TmhpInstance(s=(0, 0), points=((x, 1.0) for x in (1.0, 2.0)), f=(3, 3), v=0.5)
    tup = TmhpInstance(s=(0, 0), points=((1.0, 1.0), (2.0, 1.0)), f=(3, 3), v=0.5)
    assert gen == tup
    assert tmhp_solve(gen) == tmhp_solve(tup)
    assert tmhp_solve(gen).order == (0, 1)


def test_heuristics_reject_non_finite_points():
    pts = [(float(i), float(i % 7)) for i in range(80)]
    for bad in ((math.nan, 1.0), (2.0, math.inf)):
        for n in (5, 80):                           # small and large search
            with pytest.raises(ParameterDomainError):
                emhp_heuristic((0.0, 0.0), pts[:n] + [bad], (1.0, 1.0))
        with pytest.raises(ParameterDomainError):
            emhp_exact((0.0, 0.0), pts[:5] + [bad], (1.0, 1.0))


def test_tmhp_identity_random():
    rng = np.random.default_rng(36)
    for v in (0.1, 0.3, 0.6, 0.9):
        for _ in range(30):
            n = int(rng.integers(0, 9))
            pts = tuple(tuple(p) for p in rng.random((n, 2)) * 8)
            s = tuple(rng.random(2) * 8)
            f = tuple(rng.random(2) * 8)
            sol = tmhp_solve(TmhpInstance(s=s, points=pts, f=f, v=v))
            seq = ([g_map(s, v)] + [g_map(pts[i], v) for i in sol.order]
                   + [g_map(f, v)])
            static = sum(math.sqrt((b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2)
                         for a, b in zip(seq, seq[1:]))
            drift = v * (f[1] - s[1]) / (1.0 - v * v)
            assert abs(sol.duration - (static + drift)) <= 1e-9
            assert abs(sol.emhp_length - static) <= 1e-9


def test_tmhp_executed_trajectory_meets_targets():
    # chase each target in order; every meet lands on the translated point
    rng = np.random.default_rng(37)
    for _ in range(25):
        n = 8
        pts = tuple(tuple(p) for p in rng.random((n, 2)) * 8)
        s = tuple(rng.random(2) * 8)
        f = tuple(rng.random(2) * 8)
        sol = tmhp_solve(TmhpInstance(s=s, points=pts, f=f, v=0.3))
        pos, t = s, 0.0
        for i in list(sol.order) + [-1]:
            q0 = f if i == -1 else pts[i]
            now = (q0[0], q0[1] + 0.3 * t)        # target position at departure
            T = intercept_time(pos, now, 0.3)
            aim = (now[0], now[1] + 0.3 * T)      # target position at t + T
            hop = math.sqrt((aim[0] - pos[0]) ** 2 + (aim[1] - pos[1]) ** 2)
            assert abs(hop - T) <= 1e-9           # vehicle lands on the target
            t += T
            pos = aim
        assert abs(t - sol.duration) <= 1e-9


def test_run_tf_regime_error():
    env = make_env(W=10, L=20, v=2.0, lam=1)
    s = DemandStream(env, 0, [Demand(0, 1.0, 5.0)])
    with pytest.raises(RegimeError):
        run_tf(s)


def test_run_tf_single_demand():
    env = make_env(W=10, L=20, v=0.5, lam=0.1)
    s = DemandStream(env, 0, [Demand(0, 1.0, 7.0)])
    res = run_tf(s)
    assert res.n_capt == 1 and res.capture_fraction == 1.0


def test_run_tf_budget_interrupt_hand_trace():
    # three demands; the second iteration's path to the far side gets cut by
    # the half-sweep budget, so the abandoned demand crosses L/2 and escapes
    env = make_env(W=10, L=20, v=0.9, lam=0.5)
    s = DemandStream(env, 0, [Demand(0, 0.1, 5.0), Demand(1, 0.2, 0.2),
                              Demand(2, 0.3, 9.8)])
    res = run_tf(s, trace=True)
    assert res.n_capt == 2 and res.n_esc == 1
    events = [e.to_dict() for e in res.trace]
    resolved = check_trace(events, env, s, start=(5.0,))
    assert resolved[0] == "capture" and resolved[1] == "capture"
    assert resolved[2] == "escape"
    esc_ev = [e for e in events if e["event"] == "escape"][0]
    assert abs(esc_ev["t"] - (0.3 + env.L / env.v)) <= 1e-9


def test_run_tf_conservation_and_trace():
    env = make_env(W=10.0, L=20.0, v=0.4, lam=0.8)
    for seed in range(5):
        s = generate_stream(env, 60, seed=seed)
        res = run_tf(s, trace=True)
        assert res.n_capt + res.n_esc == 60
        resolved = check_trace([e.to_dict() for e in res.trace], env, s,
                               start=(5.0,))
        assert len(resolved) == 60


def test_run_tf_easy_regime_captures_nearly_all():
    # v lambda W well under 1: the sweep outruns the trickle of arrivals
    env = make_env(W=10.0, L=20.0, v=0.01, lam=1.0)
    fracs = []
    for seed in range(3):
        s = generate_stream(env, 300, seed=seed)
        fracs.append(run_tf(s).capture_fraction)
    assert np.mean(fracs) >= 0.95


def test_run_tf_custom_start():
    env = make_env(W=10, L=20, v=0.5, lam=0.1)
    s = DemandStream(env, 0, [Demand(0, 1.0, 7.0)])
    res = run_tf(s, start=(7.0, 10.0))
    assert res.n_capt == 1
