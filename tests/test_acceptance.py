"""Acceptance suite: one test per criterion, one printed verdict line each.

Statistical criteria use the desk-scale replication counts stated with each
check; oracle criteria are exact.  Criterion 14 is informational and never
gates.  Each test prints "ACCEPTANCE nn PASS|FAIL ..." before asserting, so
the verdict survives into the report even when the assert fires.
"""
import math
import time

import numpy as np
import pytest

from guardsim import (
    Demand,
    VehicleState,
    build_reach_graph,
    causal_upper_bound,
    erf,
    generate_stream,
    intercept_time,
    longest_chain_fast,
    longest_path,
    lp_lower_bound,
    make_env,
    run_gp,
    run_lp,
    run_nclp,
    run_tf,
    tf_lower_bound,
    tmhp_solve,
    TmhpInstance,
    emhp_exact,
    emhp_heuristic,
)

from ._oracles import (
    brute_reach_edges,
    check_trace,
    emhp_brute,
    erf_exact_rational,
    longest_source_path_enum,
    region_count,
    tour,
)

BETA = 0.7120
FAST_LAMS = (0.5, 1.0, 2.0)


def _report(cid: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {cid:02d} {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def lp_nclp_sweep():
    """Shared 10 x 2000 LP/NCLP sweep over lambda in {0.5, 1, 2} (criteria 2-4)."""
    t0 = time.perf_counter()
    rows = {}
    for lam in FAST_LAMS:
        env = make_env(W=120.0, L=500.0, v=2.0, lam=lam)
        lp, ncl = [], []
        for k in range(10):
            stream = generate_stream(env, 2000, seed=k)
            lp.append(run_lp(stream, eta=1.0).capture_fraction)
            ncl.append(run_nclp(stream).capture_fraction)
        lp, ncl = np.array(lp), np.array(ncl)
        rows[lam] = {
            "lp_mean": lp.mean(), "lp_se": lp.std(ddof=1) / math.sqrt(10),
            "nclp_mean": ncl.mean(), "nclp_se": ncl.std(ddof=1) / math.sqrt(10),
        }
    return rows, time.perf_counter() - t0


def test_criterion_01_per_stream_dominance():
    t0 = time.perf_counter()
    worst = 0
    for k in range(100):
        env = make_env(W=120.0, L=500.0, v=2.0, lam=FAST_LAMS[k % 3])
        s = generate_stream(env, 500, seed=k)
        top = run_nclp(s).n_capt
        if run_lp(s, eta=1.0).n_capt > top or run_gp(s).n_capt > top:
            worst += 1
    elapsed = time.perf_counter() - t0
    ok = worst == 0 and elapsed < 30.0
    assert _report(1, ok, f"NCLP dominated LP and GP on 100/100 streams, "
                          f"violations={worst}, {elapsed:.1f}s (limit 30s)")


def test_criterion_02_lp_near_optimality(lp_nclp_sweep):
    rows, elapsed = lp_nclp_sweep
    ratios = {lam: rows[lam]["lp_mean"] / rows[lam]["nclp_mean"]
              for lam in FAST_LAMS}
    ok = all(r >= 0.95 for r in ratios.values()) and elapsed < 120.0
    detail = ", ".join(f"lam={lam}: LP/NCLP={r:.4f}" for lam, r in ratios.items())
    assert _report(2, ok, f"{detail}, sweep took {elapsed:.1f}s (limit 120s)")


def test_criterion_03_lp_analytic_lower_bound(lp_nclp_sweep):
    rows, _ = lp_nclp_sweep
    checks = []
    for lam in FAST_LAMS:
        bound = lp_lower_bound(lam, 120.0)
        checks.append(rows[lam]["lp_mean"] >= bound - 2 * rows[lam]["lp_se"])
    detail = ", ".join(
        f"lam={lam}: mean={rows[lam]['lp_mean']:.4f} vs bound="
        f"{lp_lower_bound(lam, 120.0):.4f}" for lam in FAST_LAMS)
    assert _report(3, all(checks), detail)


def test_criterion_04_lp_competitive_factor(lp_nclp_sweep):
    rows, _ = lp_nclp_sweep
    factor = 1.0 - 2.0 * 120.0 / 500.0          # 0.52
    checks, details = [], []
    for lam in FAST_LAMS:
        r = rows[lam]
        slack = 2.0 * math.sqrt(r["lp_se"] ** 2 + (factor * r["nclp_se"]) ** 2)
        checks.append(r["lp_mean"] >= factor * r["nclp_mean"] - slack)
        details.append(f"lam={lam}: {r['lp_mean']:.4f} >= "
                       f"{factor * r['nclp_mean']:.4f}")
    assert _report(4, all(checks), ", ".join(details))


def test_criterion_05_longest_path_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(50)
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(0, 11))
        ts = np.sort(rng.random(n) * 15)
        xs = rng.random(n) * 8
        demands = [Demand(i, float(ts[i]), float(xs[i])) for i in range(n)]
        v = float(1.0 + rng.random() * 2.0)
        L = float(4.0 + rng.random() * 30.0)
        veh = VehicleState(float(rng.random() * 8), L, 0.0)
        plan = longest_path(build_reach_graph(veh, demands, v, L))
        src, edges = brute_reach_edges([(d.id, d.t_arr, d.x) for d in demands],
                                       8.0, L, v, (veh.x, veh.y), 0.0)
        if plan.length != longest_source_path_enum(src, edges,
                                                   [d.id for d in demands]):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 10.0
    assert _report(5, ok, f"DP == enumeration on {1000 - bad}/1000 instances, "
                          f"{elapsed:.1f}s (limit 10s)")


def test_criterion_06_fast_chain_equivalence():
    rng = np.random.default_rng(60)
    bad = 0
    for _ in range(200):
        n = 300
        ts = np.sort(rng.random(n) * 120)
        xs = rng.random(n) * 40
        demands = [Demand(i, float(ts[i]), float(xs[i])) for i in range(n)]
        v = float(1.0 + rng.random() * 2.0)
        L = float(30.0 + rng.random() * 200.0)
        veh = VehicleState(float(rng.random() * 40), L, 0.0)
        a = longest_path(build_reach_graph(veh, demands, v, L)).length
        b = longest_chain_fast(veh, demands, v, L).length
        if a != b:
            bad += 1
    assert _report(6, bad == 0,
                   f"chain == DP length on {200 - bad}/200 instances at n=300")


def test_criterion_07_tmhp_identity():
    rng = np.random.default_rng(70)
    worst = 0.0
    for v in (0.1, 0.3, 0.6, 0.9):
        for _ in range(50):
            n = int(rng.integers(0, 11))
            pts = tuple(tuple(p) for p in rng.random((n, 2)) * 8)
            s = tuple(rng.random(2) * 8)
            f = tuple(rng.random(2) * 8)
            sol = tmhp_solve(TmhpInstance(s=s, points=pts, f=f, v=v))
            drift = v * (f[1] - s[1]) / (1.0 - v * v)
            worst = max(worst, abs(sol.duration - (sol.emhp_length + drift)))
    assert _report(7, worst <= 1e-9,
                   f"max identity residual {worst:.2e} over 200 instances "
                   f"(tolerance 1e-9)")


def test_criterion_08_intercept_kinematics():
    rng = np.random.default_rng(80)
    worst = 0.0
    for _ in range(1000):
        v = float(rng.uniform(0.02, 0.98))
        P = (float(rng.uniform(-5, 15)), float(rng.uniform(-10, 10)))
        q = (float(rng.uniform(-5, 15)), float(rng.uniform(-10, 10)))
        T = intercept_time(P, q, v)
        aim = (q[0], q[1] + v * T)
        hop = math.sqrt((aim[0] - P[0]) ** 2 + (aim[1] - P[1]) ** 2)
        worst = max(worst, abs(hop - T))        # vehicle-target gap at time T
    assert _report(8, worst <= 1e-9,
                   f"max meet error {worst:.2e} over 1000 configurations "
                   f"(tolerance 1e-9)")


def test_criterion_09_emhp_oracles():
    rng = np.random.default_rng(90)
    exact_bad = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        pts = [tuple(p) for p in rng.random((n, 2)) * 10]
        s = tuple(rng.random(2) * 10)
        f = tuple(rng.random(2) * 10)
        _, length = emhp_exact(s, pts, f)
        blen, _ = emhp_brute(s, pts, f)
        if length != blen:
            exact_bad += 1
    worst_ratio = 1.0
    for _ in range(100):
        pts = [tuple(p) for p in rng.random((10, 2)) * 10]
        s = tuple(rng.random(2) * 10)
        f = tuple(rng.random(2) * 10)
        _, hl = emhp_heuristic(s, pts, f)
        _, el = emhp_exact(s, pts, f)
        worst_ratio = max(worst_ratio, hl / el)
    ok = exact_bad == 0 and worst_ratio <= 1.05
    assert _report(9, ok, f"Held-Karp == brute force on {500 - exact_bad}/500, "
                          f"heuristic worst ratio {worst_ratio:.4f} (limit 1.05)")


@pytest.mark.slow
def test_criterion_10_tf_bound_sandwich():
    # The bounds are steady-state statements, so each run is scored only on
    # demands arriving in [2B, t_last - B), B = L/(2v) the sweep budget: this
    # drops the start-up sweeps and the drain after the last arrival.  A
    # stream of ceil(6*lam*B) demands spans six budgets.  Neither bound
    # depends on L; L=25 keeps plans near lam*B <= 1600 points, where L=200
    # would need a dense distance matrix of several GB.
    t0 = time.perf_counter()
    W, L, v = 100.0, 25.0, 0.05
    B = L / (2.0 * v)
    results = []
    miscounted = 0
    for lam in (1.6, 3.2, 6.4):                  # v*lam*W in {8, 16, 32}
        env = make_env(W=W, L=L, v=v, lam=lam)
        # 2400, 4800, 9600; the epsilon absorbs 6*1.6*250 = 2400.0000000000005
        n = math.ceil(6 * lam * B - 1e-9)
        fr = []
        for k in range(10):
            stream = generate_stream(env, n, seed=100 + k)
            res = run_tf(stream, trace=True)
            events = [e.to_dict() for e in res.trace]
            resolved = check_trace(events, env, stream, start=(W / 2.0,))
            miscounted += sum(e["event"] == "capture"
                              for e in events) != res.n_capt
            t_last = stream.demands[-1].t_arr
            window = [d.id for d in stream.demands
                      if 2 * B <= d.t_arr < t_last - B]
            fr.append(sum(resolved[i] == "capture" for i in window)
                      / len(window))
        fr = np.array(fr)
        mean, se = fr.mean(), fr.std(ddof=1) / math.sqrt(10)
        lo = tf_lower_bound(env.v, lam, env.W)
        up = causal_upper_bound(env.v, lam, env.W)
        results.append((lam, n, mean, se, lo, up,
                        0.85 * lo <= mean, mean <= up + 2 * se))
    elapsed = time.perf_counter() - t0
    ok = (all(lo_ok and up_ok for *_, lo_ok, up_ok in results)
          and miscounted == 0 and elapsed < 180.0)
    detail = "; ".join(
        f"lam={lam} n={n}: mean={m:.3f}+-{se:.3f} vs [0.85*{lo:.3f}, "
        f"{up:.3f}+2se]{'' if (l and u) else ' VIOLATED'}"
        for lam, n, m, se, lo, up, l, u in results)
    assert _report(10, ok, f"L={L:g}, window t_arr in [2B, t_last-B) with "
                           f"B={B:g}; {detail}; capture events != n_capt in "
                           f"{miscounted}/30 runs; {elapsed:.0f}s (limit 180s)")


def test_criterion_11_bound_ratio_identity():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(500):
        v = float(rng.uniform(0.01, 0.99))
        W = float(rng.uniform(1.0, 50.0))
        lam = float((4.0 + rng.uniform(0.5, 60.0)) / (v * W))   # past both knees
        ratio = causal_upper_bound(v, lam, W) / tf_lower_bound(v, lam, W)
        worst = max(worst, abs(ratio - 2.0 * BETA))
    assert _report(11, worst <= 1e-12,
                   f"max |ratio - 2*0.7120| = {worst:.2e} (tolerance 1e-12)")


def test_criterion_12_erf_accuracy():
    worst = 0.0
    for k in range(-30, 31):
        x = 0.1 * k
        worst = max(worst, abs(erf(x) - erf_exact_rational(x)))
    assert _report(12, worst <= 1e-10,
                   f"max |erf - oracle| = {worst:.2e} on 0.1k, k=-30..30")


def test_criterion_13_stream_spatial_statistics():
    env = make_env(W=10.0, L=20.0, v=0.5, lam=1.0)
    rect = (2.0, 7.0, 3.0, 8.0)                 # area 25 in a 10 x 20 strip
    mu = env.lam * 25.0 / (env.v * env.W)       # areal intensity times area
    counts = np.array([region_count(generate_stream(env, 50, seed=s), rect, 20.0)
                       for s in range(2000)])
    se = counts.std(ddof=1) / math.sqrt(2000)
    ratio = counts.mean() / counts.var(ddof=1)
    ok = abs(counts.mean() - mu) <= 3 * se and 0.9 <= ratio <= 1.1
    assert _report(13, ok, f"mean={counts.mean():.3f} vs {mu:.3f} "
                           f"(3se={3 * se:.3f}), mean/var={ratio:.3f}")


def test_criterion_14_bhh_spot_check_informational():
    rng = np.random.default_rng(140)
    pts = [tuple(p) for p in rng.random((2000, 2))]
    _, length = tour(pts)
    expect = BETA * math.sqrt(2000.0)
    dev = abs(length - expect) / expect
    _report(14, dev <= 0.15,
            f"INFORMATIONAL emhp_heuristic closed tour {length:.2f} vs {expect:.2f} "
            f"(deviation {100 * dev:.1f}%, non-gating)")
    assert True                                  # never gates
