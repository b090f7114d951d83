"""The event loop shared by both regimes, pinned from outside.

The golden digests are SHA-256 sums of the JSONL traces of seeded runs.  A
change to event order, to a vehicle position or to any float in a trace
changes them, so a refactor of the event loop must leave them as they are.
They pin this platform's floats (IEEE 754 doubles, numpy's planners).

The hand traces pin the order of simultaneous events in each regime, and a
property test runs all four policies over streams on a 0.5 lattice, where
events often coincide.  Property tests run every policy on `_EventKernel`
and on `_oracles.ReferenceKernel`, which applies the documented rules by
brute force, and require the same trace; TF must also give the trace of
`_oracles.tf_reference`, TF by its docstring's rules, and its sweep
function that of the oracle's sweep.  Others scale a stream by a power of
two and require the same trace, scaled.  A generated stream and the same
stream rebuilt from its records must run alike, and no run may build a
`Demand` record: runs read the stream's columns, and untraced NCLP and LP
runs leave a generated stream's ids and x columns unbuilt.
"""
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardsim import (
    ContractViolationError,
    Demand,
    DemandStream,
    ParameterDomainError,
    PathPlan,
    VehicleState,
    generate_stream,
    make_env,
    run_gp,
    run_lp,
    run_nclp,
    run_tf,
    write_trace_jsonl,
)
from guardsim import deadline_policies, tmhp
from guardsim.deadline_policies import _EventKernel

from ._oracles import (ReferenceKernel, check_plan, check_trace, gp_choice, gp_stepwise,
                       lattice_stream, longest_path, tf_reference, tf_sweep)

DEADLINE_ENV = make_env(W=120.0, L=500.0, v=2.0, lam=0.25)
STRIP_ENV = make_env(W=100.0, L=25.0, v=0.05, lam=1.6)
# the benchmark's tf_dense geometry: plans of about 3 250 points, so the
# large-n heuristic (neighbour lists, flat pair scans, 2-opt and Or-opt) is
# pinned bit for bit
TF_DENSE_ENV = make_env(W=100, L=200, v=0.05, lam=1.6)

# (name, policy run, n_capt, n_esc, SHA-256 of the JSONL trace); NCLP plans
# with the chain at both sizes (nclp_graph is named for a graph DP, now the
# tests' oracle, that once planned its 250 demands: same length, another path)
GOLDEN = [
    ("nclp_graph", lambda: run_nclp(generate_stream(DEADLINE_ENV, 250, seed=3), trace=True),
     56, 194,
     "59ccd7aa3207dcf4ad32e7050e4b458240d3a40f5b05b3bdc1b1ba0ab6d508a5"),
    ("nclp_chain", lambda: run_nclp(generate_stream(DEADLINE_ENV, 700, seed=4), trace=True),
     166, 534,
     "4e2b76c4f9618f238dc01b32a070d621bd74fed26f522e49a408db170e9c836b"),
    ("lp_eta_half", lambda: run_lp(generate_stream(DEADLINE_ENV, 700, seed=5), eta=0.5,
                                   trace=True),
     164, 536,
     "0aa79a85074c82e2ef8ef5c0b76f01ebfd61b513c517ae3072a9c1c280d0b4a6"),
    ("gp", lambda: run_gp(generate_stream(DEADLINE_ENV, 700, seed=6), trace=True),
     141, 559,
     "788bd79159c9a5c38b623f57d440e3892b64d5550477c17995d3616babb4d343"),
    # the densest point of the benchmark's deadline sweep: the run is one
    # greedy chain of 132 captures, committed at once, so the arrivals
    # between its captures are logged inside that one commit
    ("gp_dense", lambda: run_gp(generate_stream(make_env(W=120, L=500, v=2, lam=2.0), 2000,
                                                seed=8), trace=True),
     132, 1868,
     "1b58810dbd50aeee30c1db580e655afd9db67769b35f4c648986bcaa8e05382d"),
    ("tf", lambda: run_tf(generate_stream(STRIP_ENV, 600, seed=7), trace=True),
     403, 197,
     "52e640dc17e0d92c06a14fe0e5a49561f79be2409ac1bc6b0d89f5b000ba7636"),
    ("tf_large", lambda: run_tf(generate_stream(TF_DENSE_ENV, 20000, seed=0), trace=True),
     10907, 9093,
     "239e76ea57887b9eabc0b6860aef9a15b0b003d98f7c171aca06b4a01bd08237"),
]


@pytest.mark.parametrize("name, run, n_capt, n_esc, digest", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_golden_trace_digest(tmp_path, name, run, n_capt, n_esc, digest):
    res = run()
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(res, str(path))
    assert (res.n_capt, res.n_esc) == (n_capt, n_esc)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _trace(res):
    return [(e.event, e.demand_id, e.t, e.vehicle_x) for e in res.trace]


DEADLINE_TIE_ENV = make_env(W=10.0, L=10.0, v=2.0, lam=1.0)


@pytest.mark.parametrize("runner", [run_lp, run_gp])
def test_deadline_arrival_at_capture_instant(runner):
    # demand 1 arrives at t=6, the instant demand 0 is captured on the
    # deadline: capture, recompute, arrival, recompute
    s = DemandStream(DEADLINE_TIE_ENV, 0, [Demand(0, 1.0, 5.0), Demand(1, 6.0, 7.0)])
    assert _trace(runner(s, start_x=5.0, trace=True)) == [
        ("recompute", None, 0.0, 5.0),
        ("arrival", 0, 1.0, 5.0),
        ("recompute", None, 1.0, 5.0),
        ("capture", 0, 6.0, 5.0),
        ("recompute", None, 6.0, 5.0),
        ("arrival", 1, 6.0, 5.0),
        ("recompute", None, 6.0, 5.0),
        ("capture", 1, 11.0, 7.0),
        ("recompute", None, 11.0, 7.0),
    ]


def test_nclp_arrival_at_capture_instant():
    # NCLP plans once, so nothing is recomputed at the capture instant
    s = DemandStream(DEADLINE_TIE_ENV, 0, [Demand(0, 1.0, 5.0), Demand(1, 6.0, 7.0)])
    assert _trace(run_nclp(s, start_x=5.0, trace=True)) == [
        ("recompute", None, 0.0, 5.0),
        ("arrival", 0, 1.0, 5.0),
        ("capture", 0, 6.0, 5.0),
        ("arrival", 1, 6.0, 5.0),
        ("capture", 1, 11.0, 7.0),
    ]


# L/v = 2**20: the two arrival times differ by less than half an ulp of
# 2**20 + 1, so both demands reach the deadline at the same instant
ESCAPE_TIE_ENV = make_env(W=10.0, L=2.0 ** 20, v=1.0, lam=1.0)
T_TIE = 2.0 ** 20 + 1.0


@pytest.mark.parametrize("runner, replans", [(run_nclp, False), (run_lp, True),
                                             (run_gp, True)])
def test_deadline_escape_at_capture_instant(runner, replans):
    s = DemandStream(ESCAPE_TIE_ENV, 0, [Demand(0, 1.0, 2.0),
                                         Demand(1, 1.0 + 2.0 ** -40, 8.0)])
    assert s[0].escape_time(ESCAPE_TIE_ENV) == s[1].escape_time(ESCAPE_TIE_ENV) == T_TIE
    expected = [
        ("recompute", None, 0.0, 2.0),
        ("arrival", 0, 1.0, 2.0),
        ("recompute", None, 1.0, 2.0),
        ("arrival", 1, 1.0 + 2.0 ** -40, 2.0),
        ("escape", 1, T_TIE, 2.0),
        ("capture", 0, T_TIE, 2.0),
        ("recompute", None, T_TIE, 2.0),
    ]
    if not replans:
        expected = [e for e in expected if e[0] != "recompute" or e[2] == 0.0]
    assert _trace(runner(s, start_x=2.0, trace=True)) == expected


# L/v = 2**-60 is below half an ulp of the arrival times 1 and 2, so each
# demand escapes at its own arrival instant
SAME_INSTANT_ENV = make_env(W=10.0, L=2.0 ** -60, v=1.0, lam=1.0)


@pytest.mark.parametrize("runner, replans", [(run_nclp, False), (run_lp, True),
                                             (run_gp, True)])
def test_deadline_escape_at_its_own_arrival_instant(runner, replans):
    # both demands lie within reach of the start, but no plan can capture a
    # demand that escapes as it arrives, NCLP's one plan at t = 0 included;
    # each arrival comes before its own escape
    s = DemandStream(SAME_INSTANT_ENV, 0, [Demand(0, 1.0, 5.0), Demand(1, 2.0, 5.5)])
    assert [d.escape_time(SAME_INSTANT_ENV) for d in s] == [1.0, 2.0]
    expected = [
        ("recompute", None, 0.0, 5.0),
        ("arrival", 0, 1.0, 5.0),
        ("escape", 0, 1.0, 5.0),
        ("recompute", None, 1.0, 5.0),
        ("arrival", 1, 2.0, 5.0),
        ("escape", 1, 2.0, 5.0),
        ("recompute", None, 2.0, 5.0),
    ]
    if not replans:
        expected = [e for e in expected if e[0] != "recompute" or e[2] == 0.0]
    for res in _on_both_kernels(lambda: runner(s, trace=True)):
        assert (res.n_capt, res.n_esc) == (0, 2)
        assert _trace(res) == expected


@pytest.mark.parametrize("runner", [run_lp, run_gp])
def test_deadline_escapes_at_one_instant_fire_in_arrival_order(runner):
    # three demands reach the deadline at T_TIE, ids descending in arrival
    # order; demand 2 arrives alone, so LP and GP commit to it and wait at
    # x = 2, where they cannot capture the others too: 1 and 0 escape, in
    # arrival order, before the capture
    s = DemandStream(ESCAPE_TIE_ENV, 0, [Demand(2, 1.0, 2.0),
                                         Demand(1, 1.0 + 2.0 ** -40, 5.0),
                                         Demand(0, 1.0 + 2.0 ** -39, 8.0)])
    assert {d.escape_time(ESCAPE_TIE_ENV) for d in s} == {T_TIE}
    expected = [
        ("recompute", None, 0.0, 2.0),
        ("arrival", 2, 1.0, 2.0),
        ("recompute", None, 1.0, 2.0),
        ("arrival", 1, 1.0 + 2.0 ** -40, 2.0),
        ("arrival", 0, 1.0 + 2.0 ** -39, 2.0),
        ("escape", 1, T_TIE, 2.0),
        ("escape", 0, T_TIE, 2.0),
        ("capture", 2, T_TIE, 2.0),
        ("recompute", None, T_TIE, 2.0),
    ]
    assert _trace(runner(s, start_x=2.0, trace=True)) == expected


def test_tf_arrival_at_capture_instant():
    # the vehicle sits 6 above demand 0 in its column and closes at 1 + v,
    # so it captures at t = 6 / 1.5 = 4, when demand 1 arrives:
    # capture, arrival, recompute
    env = make_env(W=10.0, L=20.0, v=0.5, lam=1.0)
    s = DemandStream(env, 0, [Demand(0, 0.0, 5.0), Demand(1, 4.0, 5.0)])
    trace = _trace(run_tf(s, start=(5.0, 6.0), trace=True))
    assert trace[:5] == [
        ("arrival", 0, 0.0, 5.0),
        ("recompute", None, 0.0, 5.0),
        ("capture", 0, 4.0, 5.0),
        ("arrival", 1, 4.0, 5.0),
        ("recompute", None, 4.0, 5.0),
    ]
    assert [e[:2] for e in trace[5:]] == [("capture", 1)]


def test_tf_escape_at_capture_instant():
    # Demand 1 is planned at the capture of demand 0, behind the long leg to
    # demand 2, and the half-sweep budget cuts that leg; both are abandoned.
    # The next sweep captures demand 3.  Demand 1 is the path's end point,
    # so it does not change the motion: its arrival is set so that it
    # escapes at the instant demand 3 is captured.  The escape comes first.
    env = make_env(W=100.0, L=20.0, v=0.5, lam=1.0)
    base = [Demand(0, 50.0, 60.0), Demand(2, 52.0, 0.0), Demand(3, 70.0, 62.0)]
    ref = run_tf(DemandStream(env, 0, base), start=(50.0, 0.0), trace=True)
    t_meet = [e.t for e in ref.trace if e.event == "capture" and e.demand_id == 3][0]
    t_arr = t_meet - env.L / env.v
    assert 52.0 < t_arr < 61.5 and t_arr + env.L / env.v == t_meet
    s = DemandStream(env, 0, base[:2] + [Demand(1, t_arr, 0.0)] + base[2:])
    trace = _trace(run_tf(s, start=(50.0, 0.0), trace=True))
    assert [e[:2] for e in trace] == [
        ("arrival", 0), ("recompute", None), ("arrival", 2), ("arrival", 1),
        ("capture", 0), ("recompute", None), ("arrival", 3), ("recompute", None),
        ("escape", 2), ("escape", 1), ("capture", 3),
    ]
    assert trace[-2][2] == trace[-1][2] == t_meet


def test_tf_finish_tie_goes_to_the_smallest_id():
    # Two demands in one column arrive 1e-300 apart.  The first sweep, to
    # the first one alone, is cut at t = L/(2v) = 2, where 2 - 1e-300 rounds
    # to 2: both stand at exactly L/2, ready and equally low.  The path ends
    # at the smaller id, captured last, at the instant and point of the other.
    env = make_env(W=10.0, L=2.0, v=0.5, lam=1.0)
    for first, second in ((1, 0), (0, 1)):
        s = DemandStream(env, 0, [Demand(first, 0.0, 8.0), Demand(second, 1e-300, 8.0)])
        res = run_tf(s, start=(5.0, 1.0), trace=True)
        assert [e[:2] for e in _trace(res)] == [
            ("arrival", first), ("recompute", None), ("arrival", second),
            ("recompute", None), ("capture", 1), ("capture", 0)]
        _assert_same_run(res, tf_reference(s, start=(5.0, 1.0), trace=True))


# (v, L) per regime; on the 0.5 lattice escapes often coincide with
# arrivals and captures
FAST_VL = [(1.0, 1.0), (1.0, 2.5), (2.0, 5.0)]
SLOW_VL = [(0.5, 2.0), (0.5, 4.0)]
LATTICE_RUNS = {
    "nclp": lambda s, x0, eta, trace=True: run_nclp(s, start_x=x0, trace=trace),
    "lp": lambda s, x0, eta, trace=True: run_lp(s, start_x=x0, eta=eta, trace=trace),
    "gp": lambda s, x0, eta, trace=True: run_gp(s, start_x=x0, trace=trace),
    "tf": lambda s, x0, eta, trace=True: run_tf(s, start=(x0, s.env.L / 2.0), trace=trace),
}


@pytest.mark.parametrize("policy", sorted(LATTICE_RUNS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_lattice_streams_conserve_and_pass_the_audit(policy, data):
    v, L = data.draw(st.sampled_from(SLOW_VL if policy == "tf" else FAST_VL))
    env = make_env(W=5.0, L=L, v=v, lam=1.0)
    stream = lattice_stream(data, env)
    x0 = 0.5 * data.draw(st.integers(0, 10))
    res = LATTICE_RUNS[policy](stream, x0, data.draw(st.sampled_from([0.5, 1.0])))
    assert res.n_capt + res.n_esc == len(stream)
    resolved = check_trace([e.to_dict() for e in res.trace], env, stream, start=(x0,))
    assert len(resolved) == len(stream)
    assert sum(e.event == "capture" for e in res.trace) == res.n_capt


def _shuffled_ids(data, stream):
    ids = data.draw(st.permutations(range(len(stream))))
    return DemandStream(stream.env, stream.seed,
                        [Demand(i, d.t_arr, d.x) for i, d in zip(ids, stream)])


def _escape_tie_stream(data):
    # arrivals 1 + k 2**-40 (or 2 + k 2**-40) with k < 128 lie within half
    # an ulp of 2**20 + 1, so they all reach the deadline at T_TIE (or
    # T_TIE + 1); ids are shuffled, so the id order differs from the
    # arrival order
    ks = sorted(data.draw(st.sets(st.integers(0, 255), min_size=1, max_size=8)))
    ts = [1.0 + (k // 128) + (k % 128) * 2.0 ** -40 for k in ks]
    xs = data.draw(st.lists(st.integers(0, 20), min_size=len(ks), max_size=len(ks)))
    stream = _shuffled_ids(data, DemandStream(ESCAPE_TIE_ENV, 0, [
        Demand(j, t, 0.5 * x) for j, (t, x) in enumerate(zip(ts, xs))]))
    assert {d.escape_time(ESCAPE_TIE_ENV) for d in stream} <= {T_TIE, T_TIE + 1.0}
    return stream


@pytest.mark.parametrize("policy", ["nclp", "lp", "gp"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_escape_ties_fire_in_arrival_order(policy, data):
    # the audit checks escapes against the arrival order
    stream = _escape_tie_stream(data)
    x0 = 0.5 * data.draw(st.integers(0, 20))
    res = LATTICE_RUNS[policy](stream, x0, data.draw(st.sampled_from([0.5, 1.0])))
    resolved = check_trace([e.to_dict() for e in res.trace], ESCAPE_TIE_ENV, stream,
                           start=(x0,))
    assert len(resolved) == len(stream) == res.n_capt + res.n_esc


@pytest.mark.parametrize("policy", sorted(LATTICE_RUNS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_untraced_runs_count_as_traced_runs(policy, data):
    # a traced run also logs each kernel call and builds its trace from
    # that log after the run, while an untraced one keeps no log; the
    # benchmark runs untraced, the other tests traced, so the two must
    # resolve every demand alike.  Half or more of the 41 lattice instants
    # see an arrival, so arrivals often fall on capture instants, where a
    # log-dependent kernel could part the two
    if policy != "tf" and data.draw(st.booleans()):
        stream, x0 = _escape_tie_stream(data), 0.5 * data.draw(st.integers(0, 20))
    else:
        v, L = data.draw(st.sampled_from(SLOW_VL if policy == "tf" else FAST_VL))
        env = make_env(W=5.0, L=L, v=v, lam=1.0)
        stream = _shuffled_ids(data, lattice_stream(data, env, max_size=41, min_size=20))
        x0 = 0.5 * data.draw(st.integers(0, 10))
    eta = data.draw(st.sampled_from([0.5, 1.0]))
    traced = LATTICE_RUNS[policy](stream, x0, eta)
    untraced = LATTICE_RUNS[policy](stream, x0, eta, trace=False)
    assert untraced.trace is None
    assert (untraced.n_capt, untraced.n_esc) == (traced.n_capt, traced.n_esc)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_gp_chases_the_oracle_choice(data):
    # replay the trace: after each recompute the next capture or recompute
    # is the capture of the reference choice, or a recompute (or the end)
    # when nothing is reachable; ids are shuffled, so the id order differs
    # from the arrival order
    v, L = data.draw(st.sampled_from(FAST_VL))
    env = make_env(W=5.0, L=L, v=v, lam=1.0)
    stream = _shuffled_ids(data, lattice_stream(data, env, max_size=12))
    x0 = 0.5 * data.draw(st.integers(0, 10))
    trace = run_gp(stream, start_x=x0, trace=True).trace
    check_trace([e.to_dict() for e in trace], env, stream, start=(x0,))
    by_id = {d.id: d for d in stream}
    outstanding = {}
    for k, e in enumerate(trace):
        if e.event == "arrival":
            outstanding[e.demand_id] = by_id[e.demand_id]
        elif e.event in ("capture", "escape"):
            del outstanding[e.demand_id]
        else:
            want = gp_choice(outstanding.values(), e.t, e.vehicle_x, L, v)
            nxt = next(((f.event, f.demand_id) for f in trace[k + 1:]
                        if f.event in ("capture", "recompute")), None)
            if want is None:
                assert nxt in (("recompute", None), None)
            else:
                assert nxt == ("capture", want.id)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lp_commits_the_ceil_of_a_longest_plan(data):
    # replay the trace: at each recompute, rebuild the outstanding set and
    # the vehicle state; the captures up to the next recompute are
    # ceil(eta n) of them, n the length of a longest plan by the graph DP
    # oracle, and a feasible chain from that state.  With L/v = 10 about
    # half of a lattice stream is outstanding at once, so plans of odd
    # length 5 or more are common; there eta = 1/2 rounds half to even in
    # round() but up in ceil
    v, L = data.draw(st.sampled_from(FAST_VL + [(1.0, 10.0), (2.0, 20.0)]))
    env = make_env(W=5.0, L=L, v=v, lam=1.0)
    stream = _shuffled_ids(data, lattice_stream(data, env, max_size=16, min_size=8))
    x0 = 0.5 * data.draw(st.integers(0, 10))
    eta = data.draw(st.sampled_from([0.5, 1.0]))
    trace = run_lp(stream, start_x=x0, eta=eta, trace=True).trace
    check_trace([e.to_dict() for e in trace], env, stream, start=(x0,))
    by_id = {d.id: d for d in stream}
    outstanding = {}
    for k, e in enumerate(trace):
        if e.event == "arrival":
            outstanding[e.demand_id] = by_id[e.demand_id]
        elif e.event in ("capture", "escape"):
            del outstanding[e.demand_id]
        else:
            vehicle = VehicleState(e.vehicle_x, L, e.t)
            n = longest_path(vehicle, list(outstanding.values()), v, L).length
            captures = []
            for f in trace[k + 1:]:
                if f.event == "recompute":
                    break
                if f.event == "capture":
                    captures.append(f)
            assert len(captures) == math.ceil(eta * n)
            check_plan(PathPlan([f.demand_id for f in captures], [f.t for f in captures],
                                len(captures)), vehicle, list(outstanding.values()), v, L)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_gp_chains_run_as_one_capture_per_plan(data):
    # run_gp plans a whole greedy chain per call and moves its own copies of
    # the cursors; the oracle plans one capture per call on the reference
    # kernel.  Lattice streams put arrivals on capture instants, and the
    # escape-tie streams give equal deadlines; ids are shuffled
    if data.draw(st.booleans()):
        stream, x0 = _escape_tie_stream(data), 0.5 * data.draw(st.integers(0, 20))
    else:
        v, L = data.draw(st.sampled_from(FAST_VL))
        env = make_env(W=5.0, L=L, v=v, lam=1.0)
        stream = _shuffled_ids(data, lattice_stream(data, env, max_size=24, min_size=4))
        x0 = 0.5 * data.draw(st.integers(0, 10))
    _assert_same_run(run_gp(stream, start_x=x0, trace=True),
                     gp_stepwise(stream, start_x=x0, trace=True))
    res, ref = run_gp(stream, start_x=x0), gp_stepwise(stream, start_x=x0)
    assert (res.n_capt, res.n_esc) == (ref.n_capt, ref.n_esc)


def test_gp_equal_deadlines_go_to_the_smallest_id():
    # demands 5 and 3 arrive one ulp apart, and their deadlines round to the
    # same instant; the later arrival has the smaller id, so GP chases it
    env = make_env(W=10.0, L=500.0, v=2.0, lam=1.0)
    s = DemandStream(env, 0, [Demand(9, 0.5, 5.0), Demand(5, 1.0, 5.25),
                              Demand(3, math.nextafter(1.0, 2.0), 5.25)])
    assert s[1].escape_time(env) == s[2].escape_time(env) == 251.0
    trace = _trace(run_gp(s, start_x=5.0, trace=True))
    assert [e[:3] for e in trace if e[0] in ("capture", "escape")] == [
        ("capture", 9, 250.5), ("escape", 5, 251.0), ("capture", 3, 251.0)]


BAD_START_X = [math.nan, math.inf, -math.inf, -1e6, -0.5, 10.5, "left", (5.0,), True, "3"]


@pytest.mark.parametrize("runner", [run_nclp, run_lp, run_gp])
@pytest.mark.parametrize("start_x", BAD_START_X, ids=repr)
def test_deadline_start_must_lie_on_the_deadline(runner, start_x):
    s = generate_stream(make_env(W=10.0, L=20.0, v=2.0, lam=1.0), 50, seed=0)
    with pytest.raises(ParameterDomainError, match="start"):
        runner(s, start_x=start_x)


@pytest.mark.parametrize("runner", [run_nclp, run_lp, run_gp])
def test_deadline_start_at_either_end(runner):
    s = generate_stream(make_env(W=10.0, L=20.0, v=2.0, lam=1.0), 50, seed=0)
    for x0 in (0.0, 10.0):
        res = runner(s, start_x=x0, trace=True)
        assert res.trace[0].vehicle_x == x0 and res.n_resolved == 50


@pytest.mark.parametrize("policy", sorted(LATTICE_RUNS))
def test_no_trace_logs_a_negative_zero(policy):
    # a start or an abscissa of -0.0 is taken as 0.0, so a trace never logs
    # -0.0 and 0.0 at one instant
    v, L = (0.5, 20.0) if policy == "tf" else (2.0, 500.0)
    env = make_env(W=10.0, L=L, v=v, lam=1.0)
    for first in (Demand(0, 0.0, 3.0), Demand(0, -0.0, -0.0)):
        stream = DemandStream(env, 0, [first, Demand(1, 1.0, 5.0)])
        for res in _on_both_kernels(lambda: LATTICE_RUNS[policy](stream, -0.0, 1.0)):
            assert any(e.t == 0.0 for e in res.trace)
            assert all(math.copysign(1.0, e.vehicle_x) == 1.0 for e in res.trace)


BAD_TF_STARTS = [(50.0, 1e9), (1.0, 2.0, 3.0), (5.0,), (math.nan, 1.0), (1.0, math.inf),
                 (-1.0, 5.0), (101.0, 5.0), (5.0, -1.0), 5.0, "ab", ("1", "2"), (True, 2.0)]


@pytest.mark.parametrize("start", BAD_TF_STARTS, ids=repr)
def test_tf_start_must_be_a_point_of_the_strip(start):
    s = generate_stream(make_env(W=100.0, L=200.0, v=0.05, lam=1.6), 50, seed=0)
    with pytest.raises(ParameterDomainError, match="start"):
        run_tf(s, start=start)


def test_tf_start_at_the_strip_corners():
    s = generate_stream(make_env(W=100.0, L=200.0, v=0.05, lam=1.6), 50, seed=0)
    for start in ((0.0, 0.0), (100.0, 200.0), [100, 0]):
        res = run_tf(s, start=start, trace=True)
        assert res.trace[0].vehicle_x == start[0] and res.n_resolved == 50


@pytest.mark.parametrize("runner, v", [(run_nclp, 2.0), (run_lp, 2.0), (run_gp, 2.0),
                                       (run_tf, 0.05)])
@pytest.mark.parametrize("trace", ["no", "", 1, 0, None], ids=repr)
def test_trace_must_be_a_bool(runner, v, trace):
    # any truthy value once kept a trace, "no" among them
    s = generate_stream(make_env(W=10.0, L=20.0, v=v, lam=1.0), 50, seed=0)
    with pytest.raises(ParameterDomainError, match="trace"):
        runner(s, trace=trace)


def test_kernel_rejects_a_capture_of_a_demand_not_outstanding():
    s = DemandStream(DEADLINE_ENV, 0, [Demand(0, 1.0, 50.0), Demand(1, 3.0, 70.0)])
    sim = _EventKernel(s, None, False)
    sim.advance(3.0, True)
    assert sim.commit([0], 3.0, 60.0) == (251.0, 50.0)
    with pytest.raises(ContractViolationError, match="position 0"):
        sim.commit([0], 251.0, 50.0)      # already captured
    s = DemandStream(STRIP_CONTRACT_ENV, 0, [Demand(0, 1.0, 5.0), Demand(1, 3.0, 7.0)])
    sim = _EventKernel(s, None, False, strip=True)
    sim.advance(2.0, True)
    with pytest.raises(ContractViolationError, match="position 1"):
        sim.commit([1], 2.0, 5.0, [(4.0, 2.0)])     # has not arrived yet
    # a commit is checked whole before it changes any state, traced or not
    for trace in (False, True):
        _check_commit_contract(trace)
        _check_strip_commit_contract(trace)


def _kernel_state(sim):
    return (sim.arrived, sim._passed, bytes(sim._mark), sim.n_capt, sim.n_esc,
            repr(sim.log))


def _check_commit_contract(trace):
    # L/v = 250: the deadlines are 251, 503 and 505; demand 0 is resolved
    s = DemandStream(DEADLINE_ENV, 0, [Demand(0, 1.0, 50.0), Demand(1, 253.0, 70.0),
                                       Demand(2, 255.0, 60.0)])
    sim = _EventKernel(s, None, trace)
    assert sim.commit([0], 1.0, 50.0) == (251.0, 50.0)
    sim.advance(253.0, True)
    before = _kernel_state(sim)
    for ks in ([1, 0],                    # 0 is already resolved
               [1, 1], [1, 2, 1],         # 1 appears twice
               [2, 1],                    # capture instants go back in time
               [1, 3], [-1]):             # no such position
        with pytest.raises(ContractViolationError, match="commit"):
            sim.commit(ks, 253.0, 70.0)
        assert _kernel_state(sim) == before
    # demand 2 has not arrived at t = 253, but it arrives before its capture
    # instant, as NCLP's demands do
    assert sim.commit([1, 2], 253.0, 70.0) == (505.0, 60.0)
    assert (sim.n_capt, sim.arrived, sim.finish().n_esc) == (3, 3, 0)
    # L/v below half an ulp of t_arr: the demand escapes as it arrives, so it
    # cannot arrive before its capture instant
    env = make_env(W=10.0, L=2.0 ** -60, v=1.0, lam=1.0)
    sim = _EventKernel(DemandStream(env, 0, [Demand(0, 1.0, 5.0)]), None, trace)
    before = _kernel_state(sim)
    with pytest.raises(ContractViolationError, match="commit"):
        sim.commit([0], 0.0, 5.0)
    assert _kernel_state(sim) == before


COMMIT_ENV = make_env(W=120.0, L=500.0, v=2.0, lam=1.0)      # L/v = 250, start x = 60


def _vehicle_at_arrivals(sim):
    return [e.vehicle_x for e in sim.finish().trace if e.event == "arrival"]


@pytest.mark.parametrize("kernel", [_EventKernel, ReferenceKernel])
def test_a_direct_commit_traces_from_its_own_place(kernel):
    # no recompute at the commit's (t, x) comes first, so the log's last
    # entry is the start (or another place): the leg into the first
    # capture starts where the commit says the vehicle is, at t, as on the
    # reference kernel (it once started at the last entry, 59.0 here)
    sim = kernel(DemandStream(COMMIT_ENV, 0, [Demand(0, 1.0, 50.0)]), None, True)
    sim.commit([0], 1.0, 50.0)
    assert _vehicle_at_arrivals(sim) == [50.0]
    s = DemandStream(COMMIT_ENV, 0, [Demand(0, 0.5, 40.0), Demand(1, 1.0, 50.0),
                                     Demand(2, 3.0, 70.0)])
    for recompute in (False, True):
        sim = kernel(s, None, True)
        if recompute:
            sim.recompute(0.2, 55.0)
        sim.commit([1], 1.0, 50.0)
        # the arrival at 0.5, before the commit's t, lies on the leg's line
        # back in time (59.5, 59.0 and 57.0 from the start, 54.7, 54.2 and
        # 52.2 from the recompute, when legs started at the last entry)
        assert _vehicle_at_arrivals(sim) == [49.5, 50.0, 50.0]


STRIP_CONTRACT_ENV = make_env(W=10.0, L=2.0, v=0.5, lam=1.0)     # L/v = 4


def _check_strip_commit_contract(trace):
    # escape instants 4, 5, 5.5 and 10; the sweep at t = 2 finds demand 0
    # resolved, 1 and 2 outstanding and 3 yet to arrive.  A commit takes
    # each capture's (instant, leg duration).
    s = DemandStream(STRIP_CONTRACT_ENV, 0, [Demand(0, 0.0, 1.0), Demand(1, 1.0, 2.0),
                                             Demand(2, 1.5, 3.0), Demand(3, 6.0, 4.0)])
    sim = _EventKernel(s, (5.0, 1.0), trace, strip=True)
    sim.advance(1.5, True)
    assert sim.commit([0], 1.5, 5.0, [(2.0, 0.5)]) == (2.0, 1.0)
    before = _kernel_state(sim)
    for ks, legs in (
            ([0], [(3.0, 1.0)]),                        # 0 is already resolved
            ([1, 1], [(3.0, 1.0), (3.5, 0.5)]),         # 1 appears twice
            ([1, 2, 1], [(3.0, 1.0), (4.0, 1.0), (4.5, 0.5)]),
            ([2, 1], [(5.0, 3.0), (5.2, 0.2)]),         # 1 escapes at 5, the last instant
            ([1, 3], [(3.0, 1.0), (6.5, 3.5)]),         # 3 has not arrived at 3
            ([3], [(7.0, 5.0)]),                        # nor at 2
            ([2, 1], [(4.0, 2.0), (3.0, 1.0)]),         # capture instants go back in time
            ([1], [(1.0, 1.0)]),                        # before the commit's t
            ([1, 2], [(3.0, 1.0)]),                     # a leg short
            ([4], [(3.0, 1.0)]), ([-1], [(3.0, 1.0)])):     # no such position
        with pytest.raises(ContractViolationError, match="commit"):
            sim.commit(ks, 2.0, 1.0, legs)
        assert _kernel_state(sim) == before
    # demand 2 is captured past its escape instant 5.5, where it stays
    # captured, and demand 3 arrives at the last capture instant, after it
    assert sim.commit([1, 2], 2.0, 1.0, [(3.0, 1.0), (6.0, 3.0)]) == (6.0, 3.0)
    assert (sim.n_capt, sim.n_esc, sim.arrived) == (3, 0, 3)
    assert sim.finish().n_esc == 1


def test_one_stream_is_safe_to_share_across_policies():
    # the same Demand objects go through all four policies, twice, interleaved
    deadline = generate_stream(make_env(W=100.0, L=500.0, v=2.0, lam=0.25), 300, seed=8)
    strip = DemandStream(make_env(W=100.0, L=25.0, v=0.05, lam=0.25), 8, deadline.demands)
    before = [(d.id, d.t_arr, d.x) for d in deadline]
    runs = [lambda: run_nclp(deadline, trace=True), lambda: run_lp(deadline, trace=True),
            lambda: run_gp(deadline, trace=True), lambda: run_tf(strip, trace=True)]
    first = [[e.to_dict() for e in run().trace] for run in runs]
    second = [[e.to_dict() for e in run().trace] for run in runs]
    assert first == second
    assert [(d.id, d.t_arr, d.x) for d in deadline] == before


def _relabelled(stream: DemandStream) -> DemandStream:
    return DemandStream(stream.env, stream.seed,
                        [Demand(3 * d.id + 5, d.t_arr, d.x) for d in stream])


@pytest.mark.parametrize("run, env, n", [
    (run_nclp, DEADLINE_ENV, 250), (run_lp, DEADLINE_ENV, 250), (run_gp, DEADLINE_ENV, 250),
    (run_tf, STRIP_ENV, 300),                                  # plans of up to about 260 points
    (run_tf, make_env(W=100.0, L=200.0, v=0.05, lam=0.12), 300),   # plans past 13 points
], ids=["nclp", "lp", "gp", "tf_dense", "tf_light"])
def test_relabelled_ids_give_the_same_trace(run, env, n):
    # ids only break ties, in their order, so a monotone map of the ids
    # maps the trace's ids and leaves every event, time and position alone
    for seed in range(3):
        stream = generate_stream(env, n, seed=seed)
        res, mapped = run(stream, trace=True), run(_relabelled(stream), trace=True)
        assert (mapped.n_capt, mapped.n_esc) == (res.n_capt, res.n_esc)
        expect = [(e.t, e.event, None if e.demand_id is None else 3 * e.demand_id + 5,
                   e.vehicle_x) for e in res.trace]
        assert [(e.t, e.event, e.demand_id, e.vehicle_x) for e in mapped.trace] == expect


def _on_both_kernels(run):
    """run() on _EventKernel and on the reference kernel: (kernel, reference)."""
    res = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deadline_policies, "_EventKernel", ReferenceKernel)
        mp.setattr(tmhp, "_EventKernel", ReferenceKernel)
        ref = run()
    return res, ref


def _assert_same_run(res, ref):
    # repr tells -0.0 from 0.0, so equal lists are bit-identical traces
    assert (res.n_capt, res.n_esc) == (ref.n_capt, ref.n_esc)
    assert list(map(repr, res.trace)) == list(map(repr, ref.trace))


@pytest.mark.parametrize("policy", sorted(LATTICE_RUNS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lattice_streams_run_as_on_the_reference_kernel(policy, data):
    # ids are shuffled, so an order by id differs from the arrival order
    v, L = data.draw(st.sampled_from(SLOW_VL if policy == "tf" else FAST_VL))
    env = make_env(W=5.0, L=L, v=v, lam=1.0)
    stream = _shuffled_ids(data, lattice_stream(data, env, max_size=10))
    x0 = 0.5 * data.draw(st.integers(0, 10))
    eta = data.draw(st.sampled_from([0.5, 1.0]))
    _assert_same_run(*_on_both_kernels(lambda: LATTICE_RUNS[policy](stream, x0, eta)))


@pytest.mark.parametrize("policy", sorted(LATTICE_RUNS))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 16), lam=st.sampled_from([0.5, 2.0, 8.0]),
       eta=st.sampled_from([0.5, 1.0]))
def test_uniform_streams_run_as_on_the_reference_kernel(policy, seed, lam, eta):
    v, L = (0.5, 8.0) if policy == "tf" else (2.0, 40.0)
    stream = generate_stream(make_env(W=10.0, L=L, v=v, lam=lam), 120, seed=seed)
    _assert_same_run(*_on_both_kernels(lambda: LATTICE_RUNS[policy](stream, 5.0, eta)))


@pytest.mark.parametrize("policy", ["nclp", "lp", "gp"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_escape_ties_run_as_on_the_reference_kernel(policy, data):
    stream = _escape_tie_stream(data)
    x0 = 0.5 * data.draw(st.integers(0, 20))
    eta = data.draw(st.sampled_from([0.5, 1.0]))
    _assert_same_run(*_on_both_kernels(lambda: LATTICE_RUNS[policy](stream, x0, eta)))


def _plan_by_abscissa(P, v):
    """A planner whose path does not depend on the order of the points:
    the points between the end points by abscissa, then ordinate."""
    rows = P[1:-1].tolist()
    return sorted(range(len(rows)), key=rows.__getitem__), 0.0, 0.0


def _plan_nearest_first(P, v):
    """Nearest neighbour from the start, ties by abscissa, then ordinate:
    also free of the order of the points."""
    rows, here, order = P[1:-1].tolist(), P[0].tolist(), []
    left = set(range(len(rows)))
    while left:
        j = min(left, key=lambda j: (math.dist(here, rows[j]), rows[j]))
        left.remove(j)
        order.append(j)
        here = rows[j]
    return order, 0.0, 0.0


@pytest.mark.parametrize("plan", [_plan_by_abscissa, _plan_nearest_first])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lattice_tf_runs_as_the_tf_oracle(plan, data):
    # the oracle applies the sweep rules as run_tf's docstring states them,
    # on the reference kernel; both sides plan with the same planner, one
    # that the order of the points does not change, so that only the ready
    # set, the finish demand, the budget and the skip rule are under test.
    # On the lattice, plans often fall L/(2v) after an arrival, where a
    # demand stands at exactly L/2, and intercepts often end a budget.
    v, L = data.draw(st.sampled_from(SLOW_VL))
    stream = _shuffled_ids(data, lattice_stream(data, make_env(W=5.0, L=L, v=v, lam=1.0),
                                                max_size=10))
    start = (0.5 * data.draw(st.integers(0, 10)), 0.5 * data.draw(st.integers(0, 2 * L)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tmhp, "_plan", plan)
        _assert_same_run(run_tf(stream, start=start, trace=True),
                         tf_reference(stream, start=start, trace=True))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tf_sweep_equals_the_oracle_sweep(data):
    # targets drawn from the demands outstanding at a lattice instant t, in
    # any order, from a lattice point; the budget ends at t + L/(2v), as in
    # a run, or on one of the sweep's own intercept instants
    v, L = data.draw(st.sampled_from(SLOW_VL))
    stream = lattice_stream(data, make_env(W=5.0, L=L, v=v, lam=1.0), max_size=10)
    t = 0.5 * data.draw(st.integers(0, 44))
    t_esc = (stream.arrays[0] + L / v).tolist()      # as the kernel computes them
    alive = [k for k in range(len(stream)) if stream.t_arr[k] <= t < t_esc[k]]
    targets = data.draw(st.permutations(alive))
    pos = (0.5 * data.draw(st.integers(0, 10)), 0.5 * data.draw(st.integers(0, 2 * L)))
    intercepts = [t_c for t_c, _ in tf_sweep(pos, t, targets, stream, math.inf)[1]]
    t_stop = data.draw(st.sampled_from([t + L / (2.0 * v)] + intercepts))
    assert tmhp._sweep(pos, t, targets, stream.t_arr, stream.x, t_esc, v, t_stop) == \
        tf_sweep(pos, t, targets, stream, t_stop)


@pytest.mark.parametrize("policy", sorted(LATTICE_RUNS))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 16), lam=st.sampled_from([0.5, 2.0, 8.0]),
       eta=st.sampled_from([0.5, 1.0]))
def test_a_generated_stream_runs_as_its_records(policy, seed, lam, eta):
    # the two routes into a stream, columns filled from generated arrays and
    # columns filled from checked records, give the same runs
    v, L = (0.5, 8.0) if policy == "tf" else (2.0, 40.0)
    generated = generate_stream(make_env(W=10.0, L=L, v=v, lam=lam), 120, seed=seed)
    rebuilt = DemandStream(generated.env, generated.seed, list(generated.demands))
    _assert_same_run(LATTICE_RUNS[policy](generated, 5.0, eta),
                     LATTICE_RUNS[policy](rebuilt, 5.0, eta))


@pytest.mark.parametrize("trace", [False, True])
def test_policy_runs_build_no_demand_records(monkeypatch, trace):
    built = []
    init = Demand.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Demand, "__init__", counting_init)
    deadline = generate_stream(DEADLINE_ENV, 400, seed=2)
    strip = generate_stream(STRIP_ENV, 300, seed=2)
    run_nclp(deadline, trace=trace)
    run_lp(deadline, eta=0.5, trace=trace)
    # a generated stream's ids and x columns are built from its arrays on
    # first read, which untraced NCLP and LP runs and len (the benchmark's
    # tap calls it after every run) never make
    assert len(deadline) == 400
    if not trace:
        assert (deadline._ids, deadline._x) == (None, None)
    run_gp(deadline, trace=trace)
    run_tf(strip, trace=trace)
    assert built == []
    assert len(deadline.demands) == len(built) == 400    # records come only on request


def _scaled(stream: DemandStream, c: float) -> DemandStream:
    env = stream.env
    return DemandStream(make_env(W=env.W * c, L=env.L * c, v=env.v, lam=env.lam / c),
                        stream.seed, [Demand(d.id, d.t_arr * c, d.x * c) for d in stream])


@pytest.mark.parametrize("policy", ["nclp", "lp", "gp"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(-40, 40))
def test_deadline_traces_scale_by_powers_of_two(policy, data, k):
    # W, L, every t_arr and x times 2**k, lam times 2**-k: every sum,
    # difference and quotient scales exactly, so the event sequence is the
    # same and its times and positions scale; on the 0.5 lattice events
    # coincide, which pins the edges of advance's windows.  TF is left out
    # until the local search's _IMPROVE_EPS is relative (ROADMAP item 9).
    if data.draw(st.booleans()):
        v, L = data.draw(st.sampled_from(FAST_VL))
        stream = lattice_stream(data, make_env(W=5.0, L=L, v=v, lam=1.0), max_size=10)
    else:
        lam = data.draw(st.sampled_from([0.25, 1.0, 4.0]))
        stream = generate_stream(make_env(W=20.0, L=40.0, v=2.0, lam=lam), 150,
                                 seed=data.draw(st.integers(0, 2 ** 16)))
    x0 = 0.5 * data.draw(st.integers(0, 10))
    eta = data.draw(st.sampled_from([0.5, 1.0]))
    c = 2.0 ** k
    res = LATTICE_RUNS[policy](stream, x0, eta)
    big = LATTICE_RUNS[policy](_scaled(stream, c), x0 * c, eta)
    assert (big.n_capt, big.n_esc) == (res.n_capt, res.n_esc)
    assert [(e.event, e.demand_id, e.t, e.vehicle_x) for e in big.trace] == \
        [(e.event, e.demand_id, e.t * c, e.vehicle_x * c) for e in res.trace]
