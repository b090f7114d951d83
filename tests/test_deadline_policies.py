"""Event-driven v >= 1 policy runs: NCLP, LP, and GP."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardsim import (
    Demand,
    DemandStream,
    ParameterDomainError,
    RegimeError,
    VehicleState,
    generate_stream,
    make_env,
    run_gp,
    run_lp,
    run_nclp,
    write_trace_jsonl,
)

from ._oracles import check_trace, lattice_stream, longest_path

FAST_ENV = make_env(W=120.0, L=500.0, v=2.0, lam=1.0)


def _hand_stream(env, pairs):
    return DemandStream(env, 0, [Demand(i, t, x) for i, (t, x) in enumerate(pairs)])


def test_nclp_single_demand():
    env = make_env(W=10, L=20, v=2, lam=1)
    s = _hand_stream(env, [(1.0, 7.0)])
    res = run_nclp(s, start_x=5.0)
    assert res.n_capt == 1 and res.n_esc == 0 and res.capture_fraction == 1.0


def test_nclp_simultaneous_opposite_ends():
    # two demands at x=0 and x=10 arriving together: only one is servable
    env = make_env(W=10, L=20, v=2, lam=1)
    s = _hand_stream(env, [(1.0, 0.0), (1.0 + 1e-9, 10.0)])
    res = run_nclp(s, start_x=5.0)
    assert res.n_capt == 1 and res.n_esc == 1


def test_nclp_two_demand_chain_hand_trace():
    env = make_env(W=10, L=20, v=2, lam=1)
    s = _hand_stream(env, [(1.0, 5.0), (2.0, 6.0)])
    res = run_nclp(s, start_x=5.0, trace=True)
    assert res.n_capt == 2 and res.n_esc == 0
    events = [e.to_dict() for e in res.trace]
    kinds = [(e["event"], e["t"]) for e in events]
    assert kinds == [("recompute", 0.0), ("arrival", 1.0), ("arrival", 2.0),
                     ("capture", 11.0), ("capture", 12.0)]
    caps = [e for e in events if e["event"] == "capture"]
    assert [c["demand_id"] for c in caps] == [0, 1]
    assert [c["vehicle_x"] for c in caps] == [5.0, 6.0]


def test_lp_single_demand_and_dominated_pair():
    env = make_env(W=10, L=20, v=2, lam=1)
    res = run_lp(_hand_stream(env, [(1.0, 7.0)]), start_x=5.0)
    assert res.capture_fraction == 1.0
    res = run_lp(_hand_stream(env, [(1.0, 0.0), (1.0 + 1e-9, 10.0)]), start_x=5.0)
    assert res.n_capt == 1


def test_gp_captures_in_escape_time_order():
    env = make_env(W=10, L=20, v=2, lam=1)
    s = _hand_stream(env, [(1.0, 4.0), (2.0, 5.0)])
    res = run_gp(s, start_x=5.0, trace=True)
    assert res.n_capt == 2
    caps = [e.to_dict() for e in res.trace if e.event == "capture"]
    assert [c["demand_id"] for c in caps] == [0, 1]
    assert [c["t"] for c in caps] == [11.0, 12.0]


def test_gp_unreachable_demand_escapes():
    env = make_env(W=10, L=20, v=2, lam=1)
    # second demand cannot be reached after committing to the first
    s = _hand_stream(env, [(1.0, 4.0), (2.0, 6.0)])
    res = run_gp(s, start_x=5.0)
    assert res.n_capt == 1 and res.n_esc == 1


def test_regime_errors():
    env = make_env(W=10, L=20, v=0.5, lam=1)
    s = _hand_stream(env, [(1.0, 5.0)])
    for runner in (run_nclp, run_lp, run_gp):
        with pytest.raises(RegimeError):
            runner(s)


def test_lp_eta_validation():
    env = make_env(W=10, L=20, v=2, lam=1)
    s = _hand_stream(env, [(1.0, 5.0)])
    for eta in (0.0, -0.2, 1.0001, math.nan, True):
        with pytest.raises(ParameterDomainError):
            run_lp(s, eta=eta)
    assert run_lp(s, eta=0.25).n_capt == 1


def test_default_start_is_strip_center():
    s = generate_stream(FAST_ENV, 150, seed=5)
    assert run_nclp(s).n_capt == run_nclp(s, start_x=60.0).n_capt
    assert run_gp(s).n_capt == run_gp(s, start_x=60.0).n_capt


def test_conservation_and_vacuous():
    for seed, n in ((0, 0), (1, 1), (2, 37), (3, 200)):
        s = generate_stream(FAST_ENV, n, seed=seed)
        for runner in (run_nclp, run_lp, run_gp):
            res = runner(s)
            assert res.n_capt + res.n_esc == n
            assert 0.0 <= res.capture_fraction <= 1.0
    empty = generate_stream(FAST_ENV, 0, seed=0)
    res = run_nclp(empty)
    assert res.vacuous and res.capture_fraction == 1.0


def test_per_stream_dominance():
    # exact, not statistical: NCLP bounds both causal policies per stream
    lams = (0.5, 1.0, 2.0)
    for k in range(30):
        env = make_env(W=120.0, L=500.0, v=2.0, lam=lams[k % 3])
        s = generate_stream(env, 300, seed=100 + k)
        top = run_nclp(s).n_capt
        assert run_lp(s, eta=1.0).n_capt <= top
        assert run_gp(s).n_capt <= top


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_nclp_bounds_lp_and_gp_on_every_stream(data):
    # every deadline capture order is a path of NCLP's graph, so no causal
    # policy captures more on the same stream and start
    if data.draw(st.booleans(), label="lattice"):
        env = make_env(W=5.0, L=0.5 * data.draw(st.integers(1, 10)),
                       v=data.draw(st.sampled_from([1.0, 2.0])), lam=1.0)
        s = lattice_stream(data, env)
        x0 = 0.5 * data.draw(st.integers(0, 10))
    else:
        env = make_env(W=40.0, L=100.0, v=data.draw(st.sampled_from([1.0, 1.5, 3.0])),
                       lam=data.draw(st.sampled_from([0.5, 1.2, 3.0])))
        s = generate_stream(env, data.draw(st.integers(0, 80)),
                            seed=data.draw(st.integers(0, 10 ** 6)))
        x0 = data.draw(st.floats(0.0, env.W))
    top = run_nclp(s, start_x=x0).n_capt
    # NCLP plans with the chain; the graph DP is the oracle for its length
    assert top == longest_path(VehicleState(x0, env.L, 0.0), s.demands,
                               env.v, env.L).length
    for eta in (0.5, 1.0):
        assert run_lp(s, start_x=x0, eta=eta).n_capt <= top
    assert run_gp(s, start_x=x0).n_capt <= top


def test_gp_below_lp_statistically():
    # mean F(GP) <= mean F(LP) + 2 pooled standard errors, 10 x 1000
    lp, gp = [], []
    for seed in range(10):
        s = generate_stream(FAST_ENV, 1000, seed=seed)
        lp.append(run_lp(s, eta=1.0).capture_fraction)
        gp.append(run_gp(s).capture_fraction)
    lp, gp = np.array(lp), np.array(gp)
    pooled = math.sqrt(lp.var(ddof=1) / 10 + gp.var(ddof=1) / 10)
    assert gp.mean() <= lp.mean() + 2 * pooled


def test_traces_are_structurally_sound():
    env = make_env(W=40.0, L=100.0, v=1.5, lam=1.2)
    s = generate_stream(env, 80, seed=11)
    for runner, kwargs in ((run_nclp, {}), (run_lp, {"eta": 0.5}), (run_gp, {})):
        res = runner(s, trace=True, **kwargs)
        events = [e.to_dict() for e in res.trace]
        resolved = check_trace(events, env, s, start=(20.0,))
        assert len(resolved) == len(s)
        assert sum(1 for k in resolved.values() if k == "capture") == res.n_capt
        # deadline policies capture exactly on the deadline
        esc = {d.id: d.t_arr + env.L / env.v for d in s}
        for e in events:
            if e["event"] == "capture":
                assert abs(e["t"] - esc[e["demand_id"]]) <= 1e-9
        assert any(e["event"] == "recompute" for e in events)


def test_trace_off_by_default_and_jsonl_round_trip(tmp_path):
    env = make_env(W=10, L=20, v=2, lam=1)
    s = _hand_stream(env, [(1.0, 5.0), (2.0, 6.0)])
    res = run_nclp(s)
    assert res.trace is None
    with pytest.raises(ParameterDomainError):
        write_trace_jsonl(res, str(tmp_path / "trace.jsonl"))
    res = run_nclp(s, trace=True)
    path = str(tmp_path / "trace.jsonl")
    write_trace_jsonl(res, path)
    with open(path) as fh:
        recs = [json.loads(line) for line in fh if line.strip()]
    assert len(recs) == len(res.trace)
    assert recs[0]["event"] == "recompute"
    assert {"t", "event", "demand_id", "vehicle_x"} <= set(recs[0])


def test_lp_eta_fraction_still_resolves_everything():
    for eta in (0.3, 0.7, 1.0):
        s = generate_stream(FAST_ENV, 400, seed=17)
        res = run_lp(s, eta=eta)
        assert res.n_capt + res.n_esc == 400
        assert res.n_capt <= run_nclp(s).n_capt
