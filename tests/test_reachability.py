"""Reachability predicate, graph construction, and longest-path planning."""
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardsim import (
    ContractViolationError,
    Demand,
    ParameterDomainError,
    RegimeError,
    VehicleState,
    build_reach_graph,
    generate_stream,
    graph_to_dict,
    longest_chain_fast,
    make_env,
    run_nclp,
)
from guardsim.reachability import _chain, _chain_columns

from ._oracles import (brute_reach_edges, chain_reference, check_plan, deadline_edge,
                       demand_position, is_reachable, lattice_stream, longest_path,
                       longest_source_path_enum)


def _random_instance(rng, n_max=10, W=8.0):
    n = int(rng.integers(0, n_max + 1))
    ts = np.sort(rng.random(n) * 15)
    xs = rng.random(n) * W
    demands = [Demand(i, float(ts[i]), float(xs[i])) for i in range(n)]
    v = float(1.0 + rng.random() * 2.0)
    L = float(4.0 + rng.random() * 30.0)
    X = float(rng.random() * W)
    return demands, v, L, VehicleState(X, L, 0.0)


def test_is_reachable_examples():
    assert is_reachable((4.0, 10.0), (4.0, 3.0), v=5.0)       # same abscissa
    assert is_reachable((0.0, 10.0), (3.0, 2.0), v=2.0)       # 6 <= 8
    assert not is_reachable((0.0, 10.0), (6.0, 2.0), v=2.0)   # 12 > 8
    assert is_reachable((0.0, 10.0), (4.0, 2.0), v=2.0)       # boundary 8 <= 8


def test_deadline_edge_examples():
    a = Demand(0, 1.0, 5.0)
    b = Demand(1, 2.0, 6.0)
    assert deadline_edge(a, b)            # |5-6| <= 1, boundary counts
    assert not deadline_edge(b, a)        # dt < 0
    assert not deadline_edge(a, a)        # i != j required
    c = Demand(2, 1.0, 0.0)
    d = Demand(3, 1.0, 10.0)
    assert not deadline_edge(c, d) and not deadline_edge(d, c)


def test_deadline_edge_duplicate_pair_one_direction():
    # exact duplicates get a single edge, from the smaller id
    a = Demand(4, 2.0, 3.0)
    b = Demand(9, 2.0, 3.0)
    assert deadline_edge(a, b)
    assert not deadline_edge(b, a)


def test_build_reach_graph_empty():
    g = build_reach_graph(VehicleState(5.0, 20.0, 0.0), [], v=2.0, L=20.0)
    assert g.vertices == [] and g.source_edges == [] and g.edges == {}


def test_build_reach_graph_hand_instance():
    # x=(5,6), t=(1,2): both reachable from source and 0->1
    demands = [Demand(0, 1.0, 5.0), Demand(1, 2.0, 6.0)]
    g = build_reach_graph(VehicleState(5.0, 20.0, 0.0), demands, v=2.0, L=20.0)
    assert sorted(g.source_edges) == [0, 1]
    assert g.edges[0] == [1] and g.edges[1] == []
    assert g.topo_order == [0, 1]


def test_build_reach_graph_contract_errors():
    demands = [Demand(0, 1.0, 5.0)]
    with pytest.raises(RegimeError):
        build_reach_graph(VehicleState(5.0, 20.0, 0.0), demands, v=0.5, L=20.0)
    with pytest.raises(ContractViolationError):
        build_reach_graph(VehicleState(5.0, 10.0, 0.0), demands, v=2.0, L=20.0)
    with pytest.raises(ContractViolationError):
        # escape time 1 + 20/2 = 11 <= vehicle time
        build_reach_graph(VehicleState(5.0, 20.0, 12.0), demands, v=2.0, L=20.0)


def test_edges_match_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(60):
        demands, v, L, veh = _random_instance(rng, n_max=50)
        g = build_reach_graph(veh, demands, v, L)
        arrivals = [(d.id, d.t_arr, d.x) for d in demands]
        src, edges = brute_reach_edges(arrivals, 8.0, L, v, (veh.x, veh.y), veh.t)
        assert sorted(g.source_edges) == src
        assert sorted((i, j) for i, out in g.edges.items() for j in out) == edges


def test_edge_equivalence_with_reachability_at_capture_instant():
    # deadline_edge(i,j) iff is_reachable from (x_i, L) at time t_i + L/v
    rng = np.random.default_rng(22)
    for _ in range(100):
        demands, v, L, _ = _random_instance(rng, n_max=12)
        for a in demands:
            t_cap = a.t_arr + L / v
            for b in demands:
                if a.id == b.id:
                    continue
                pos = demand_position(b, v, t_cap)
                geo = pos[1] <= L and is_reachable((a.x, L), pos, v)
                if (a.t_arr, a.x) == (b.t_arr, b.x):
                    geo = geo and a.id < b.id   # duplicate pairs keep one direction
                assert deadline_edge(a, b) == geo


def test_longest_path_chain_of_three():
    demands = [Demand(0, 1.0, 5.0), Demand(1, 2.0, 5.5), Demand(2, 3.0, 6.0)]
    plan = longest_path(VehicleState(5.0, 20.0, 0.0), demands, v=2.0, L=20.0)
    assert plan.order == [0, 1, 2] and plan.length == 3
    assert plan.capture_times == [1.0 + 10, 2.0 + 10, 3.0 + 10]
    check_plan(plan, VehicleState(5.0, 20.0, 0.0), demands, 2.0, 20.0)


def test_longest_path_mutually_unreachable_pair():
    demands = [Demand(0, 1.0, 0.0), Demand(1, 1.0, 10.0)]
    plan = longest_path(VehicleState(5.0, 20.0, 0.0), demands, v=2.0, L=20.0)
    assert plan.length == 1
    assert plan.order == [0]          # id tie-break is deterministic


def test_longest_path_matches_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(200):
        demands, v, L, veh = _random_instance(rng, n_max=8)
        plan = longest_path(veh, demands, v, L)
        arrivals = [(d.id, d.t_arr, d.x) for d in demands]
        src, edges = brute_reach_edges(arrivals, 8.0, L, v, (veh.x, veh.y), veh.t)
        assert plan.length == longest_source_path_enum(src, edges,
                                                       [d.id for d in demands])
        check_plan(plan, veh, demands, v, L)


def test_longest_path_deterministic():
    rng = np.random.default_rng(24)
    demands, v, L, veh = _random_instance(rng, n_max=30)
    assert longest_path(veh, demands, v, L).order == longest_path(veh, demands, v, L).order


def test_longest_path_monotone_in_demands():
    rng = np.random.default_rng(25)
    for _ in range(40):
        demands, v, L, veh = _random_instance(rng, n_max=20)
        extra = Demand(len(demands), float(rng.random() * 15),
                       float(rng.random() * 8))
        base = longest_path(veh, demands, v, L).length
        grown = longest_path(veh, demands + [extra], v, L).length
        assert grown >= base


def test_chain_empty_and_collinear():
    veh = VehicleState(5.0, 20.0, 0.0)
    assert longest_chain_fast(veh, [], v=2.0, L=20.0).length == 0
    same_x = [Demand(i, 1.0 + i, 5.0) for i in range(6)]
    plan = longest_chain_fast(veh, same_x, v=2.0, L=20.0)
    assert plan.length == 6 and plan.order == [0, 1, 2, 3, 4, 5]
    check_plan(plan, veh, same_x, 2.0, 20.0)


def test_chain_equals_graph_dp():
    rng = np.random.default_rng(26)
    for _ in range(120):
        demands, v, L, veh = _random_instance(rng, n_max=40)
        a = longest_path(veh, demands, v, L)
        b = longest_chain_fast(veh, demands, v, L)
        assert a.length == b.length
        check_plan(b, veh, demands, v, L)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_chain_equals_graph_dp_from_any_vehicle_state(data):
    # a vehicle on the deadline at a drawn (x, t), over the demands not yet
    # escaped by t, from a 0.5-lattice stream (exact ties) or a uniform one
    if data.draw(st.booleans(), label="lattice"):
        v = data.draw(st.sampled_from([1.0, 2.0]))
        L = 0.5 * data.draw(st.integers(1, 10))
        env = make_env(W=5.0, L=L, v=v, lam=1.0)
        demands = list(lattice_stream(data, env, max_size=12))
        veh = VehicleState(0.5 * data.draw(st.integers(0, 10)), L,
                           0.5 * data.draw(st.integers(0, 40)))
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        demands, v, L, _ = _random_instance(rng, n_max=40)
        veh = VehicleState(float(rng.random() * 8.0), L, float(rng.random() * 15.0))
    demands = [d for d in demands if d.t_arr + L / v > veh.t]
    a = longest_path(veh, demands, v, L)
    b = longest_chain_fast(veh, demands, v, L)
    assert a.length == b.length
    check_plan(a, veh, demands, v, L)
    check_plan(b, veh, demands, v, L)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_chain_equals_the_pure_python_chain(data):
    # 0.5-lattice columns in any time order, so (u, w) ties are exact and
    # frequent; ids drawn apart from positions, up to sys.maxsize; ks as a
    # unit-step range (read as a slice), a list in any order, a dict or a
    # range of step 2 (read by indexing); a vehicle that filters out some
    # demands; and, in some draws, demands in ks already escaped at t_now
    n = data.draw(st.integers(0, 24), label="n")
    t_arr = [0.5 * k for k in data.draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))]
    xs = [0.5 * k for k in data.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))]
    ids = data.draw(st.lists(st.sampled_from([0, 1, 2, 3, 5, 8, 13, sys.maxsize])
                             | st.integers(0, 10 ** 6), min_size=n, max_size=n, unique=True))
    l_v = 0.5 * data.draw(st.integers(1, 40), label="l_v")
    x = 0.5 * data.draw(st.integers(0, 20), label="x")
    t_now = 0.5 * data.draw(st.integers(-20, 60), label="t_now")
    lo = data.draw(st.integers(0, n), label="lo")
    hi = data.draw(st.integers(lo, n), label="hi")
    form = data.draw(st.sampled_from(["range", "list", "dict", "step 2"]), label="ks")
    if form == "range":
        ks = range(lo, hi)
    elif form == "step 2":
        ks = range(lo, hi, 2)
    else:
        ks = data.draw(st.permutations(range(n)))[:hi - lo]
        ks = ks if form == "list" else dict.fromkeys(ks)
    if data.draw(st.booleans(), label="unescaped") and len(ks):
        t_now = min(t_now, min(t_arr[k] for k in ks) + l_v - 0.5)   # nothing escaped
    cols = _chain_columns(np.array(t_arr), np.array(xs), np.array(ids), l_v)
    try:
        want = chain_reference(x, t_now, ks, t_arr, xs, ids, l_v)
    except ContractViolationError as exc:
        with pytest.raises(ContractViolationError) as got:
            _chain(x, t_now, ks, cols)
        assert str(got.value) == str(exc)
    else:
        assert _chain(x, t_now, ks, cols) == want
        # the same columns as lists give the same plan
        assert _chain(x, t_now, ks, _chain_columns(t_arr, xs, ids, l_v)) == want


def test_chain_names_the_first_escaped_demand_in_ks_order():
    # positions 1 and 3 have escaped at t = 10 (deadlines 10 and 9)
    t_arr, xs, ids, l_v = [8.0, 6.0, 9.0, 5.0], [1.0, 2.0, 1.5, 4.0], [40, 30, 20, 10], 4.0
    cols = _chain_columns(t_arr, xs, ids, l_v)
    for ks, named in ((range(4), 30), ([3, 1, 0], 10), ([0, 2, 1, 3], 30)):
        with pytest.raises(ContractViolationError, match=f"^demand {named} already escaped"):
            _chain(2.0, 10.0, ks, cols)
    assert _chain(2.0, 10.0, [2, 0], cols) == chain_reference(2.0, 10.0, [2, 0], t_arr, xs,
                                                              ids, l_v) == [0, 2]


def test_plan_feasibility_invariants():
    rng = np.random.default_rng(27)
    for _ in range(50):
        demands, v, L, veh = _random_instance(rng, n_max=25)
        plan = longest_path(veh, demands, v, L)
        xs = {d.id: d.x for d in demands}
        # strictly increasing capture times, unit-speed feasible hops
        for (i, ti), (j, tj) in zip(
                zip(plan.order, plan.capture_times),
                zip(plan.order[1:], plan.capture_times[1:])):
            assert tj > ti
            assert abs(xs[j] - xs[i]) <= tj - ti


def test_graph_to_dict_structure():
    demands = [Demand(0, 1.0, 5.0), Demand(1, 2.0, 6.0)]
    g = build_reach_graph(VehicleState(5.0, 20.0, 0.0), demands, v=2.0, L=20.0)
    d = graph_to_dict(g)
    assert d["vertices"] == [0, 1]
    assert d["source_edges"] == [0, 1]
    assert d["edges"] == {"0": [1], "1": []}
    assert d["longest_path"]["order"] == [0, 1]
    assert d["source"] == {"x": 5.0, "y": 20.0, "t": 0.0}


def test_planners_read_a_generator_of_demands_once():
    # a generator gives the graph and plan its list gives
    demands = [Demand(0, 1.0, 5.0), Demand(1, 2.0, 6.0), Demand(2, 2.5, 1.0)]
    veh = VehicleState(5.0, 20.0, 0.0)
    want = graph_to_dict(build_reach_graph(veh, demands, v=2.0, L=20.0))
    assert want["vertices"] == [0, 1, 2] and want["longest_path"]["length"] == 2
    assert graph_to_dict(build_reach_graph(veh, iter(demands), v=2.0, L=20.0)) == want
    assert longest_chain_fast(veh, (d for d in demands), v=2.0, L=20.0) == \
        longest_chain_fast(veh, demands, v=2.0, L=20.0)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_printed_plan_is_the_plan_nclp_runs(data):
    # guardsim graph prints the capture order NCLP executes from the same
    # start, along printed edges, as long as the graph DP's path
    if data.draw(st.booleans(), label="lattice"):
        env = make_env(W=5.0, L=0.5 * data.draw(st.integers(1, 10)),
                       v=data.draw(st.sampled_from([1.0, 2.0])), lam=1.0)
        s = lattice_stream(data, env, max_size=12)
        x0 = 0.5 * data.draw(st.integers(0, 10))
    else:
        env = make_env(W=40.0, L=100.0, v=data.draw(st.sampled_from([1.0, 1.5, 3.0])),
                       lam=data.draw(st.sampled_from([0.5, 1.2, 3.0])))
        s = generate_stream(env, data.draw(st.integers(0, 80)),
                            seed=data.draw(st.integers(0, 10 ** 6)))
        x0 = data.draw(st.floats(0.0, env.W))
    veh = VehicleState(x0, env.L, 0.0)
    printed = graph_to_dict(build_reach_graph(veh, list(s), env.v, env.L))
    path = printed["longest_path"]
    run = run_nclp(s, start_x=x0, trace=True)
    assert path["order"] == [e.demand_id for e in run.trace if e.event == "capture"]
    assert not path["order"] or path["order"][0] in printed["source_edges"]
    for i, j in zip(path["order"], path["order"][1:]):
        assert j in printed["edges"][str(i)]
    assert path["length"] == longest_path(veh, list(s), env.v, env.L).length


@pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf"), "1"])
def test_planners_reject_a_non_finite_vehicle_abscissa(x):
    demands = [Demand(0, 1.0, 5.0), Demand(1, 2.0, 5.5)]
    vehicle = VehicleState(x, 20.0, 0.0)
    with pytest.raises(ParameterDomainError, match="finite"):
        build_reach_graph(vehicle, demands, v=2.0, L=20.0)
    with pytest.raises(ParameterDomainError, match="finite"):
        longest_chain_fast(vehicle, demands, v=2.0, L=20.0)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), "1"])
def test_planners_reject_a_non_finite_vehicle_time(t):
    demands = [Demand(0, 1.0, 5.0), Demand(1, 2.0, 5.5)]
    vehicle = VehicleState(5.0, 20.0, t)
    with pytest.raises(ParameterDomainError, match="finite"):
        build_reach_graph(vehicle, demands, v=2.0, L=20.0)
    with pytest.raises(ParameterDomainError, match="finite"):
        longest_chain_fast(vehicle, demands, v=2.0, L=20.0)
