"""Environment, demand lifecycle, stream generation, and serialization."""
import math
import sys

import numpy as np
import pytest

from guardsim import (
    ContractViolationError,
    Demand,
    DemandStream,
    ParameterDomainError,
    generate_stream,
    make_env,
    read_stream_jsonl,
    run_gp,
    write_stream_jsonl,
)

from ._oracles import demand_position, region_count


def test_make_env_basic():
    env = make_env(W=10.0, L=20.0, v=0.5, lam=2.0)
    assert env.W == 10.0 and env.L == 20.0
    assert env.areal_intensity == 2.0 / (0.5 * 10.0)


def test_make_env_rejects_bad_parameters():
    for kwargs in (
        dict(W=0.0, L=1, v=1, lam=1),
        dict(W=1, L=-3, v=1, lam=1),
        dict(W=1, L=1, v=0, lam=1),
        dict(W=1, L=1, v=1, lam=math.inf),
        dict(W=1, L=1, v=1, lam=math.nan),
        dict(W=True, L=1, v=1, lam=1),
        dict(W="10", L=1, v=1, lam=1),
    ):
        with pytest.raises(ParameterDomainError):
            make_env(**kwargs)


def test_demand_lifecycle():
    env = make_env(W=10, L=20, v=0.5, lam=1)
    d = Demand(0, t_arr=3.0, x=4.0)
    assert d.escape_time(env) == 3.0 + 20 / 0.5


def test_demand_position_translates_up():
    d = Demand(0, t_arr=2.0, x=7.0)
    assert demand_position(d, v=0.5, t=2.0) == (7.0, 0.0)
    assert demand_position(d, v=0.5, t=6.0) == (7.0, 2.0)
    # before arrival the ordinate is negative by convention
    x, y = demand_position(d, v=0.5, t=1.0)
    assert y < 0.0


def test_stream_validation():
    env = make_env(W=10, L=20, v=1, lam=1)
    with pytest.raises(ContractViolationError):
        DemandStream(env, 0, [Demand(0, 1.0, 5.0), Demand(1, 1.0, 6.0)])
    with pytest.raises(ContractViolationError):
        DemandStream(env, 0, [Demand(0, 1.0, 10.5)])
    # boundary abscissa x = W is tolerated for hand-built streams
    s = DemandStream(env, 0, [Demand(0, 1.0, 10.0)])
    assert len(s) == 1


@pytest.mark.parametrize("t_arr", [math.nan, math.inf, -math.inf, "1", True])
def test_stream_rejects_non_finite_arrival(t_arr):
    env = make_env(W=10, L=20, v=1, lam=1)
    with pytest.raises(ContractViolationError):
        DemandStream(env, 0, [Demand(0, 1.0, 5.0), Demand(1, t_arr, 6.0)])
    with pytest.raises(ContractViolationError):
        DemandStream(env, 0, [Demand(0, t_arr, 5.0), Demand(1, 2.0, 6.0)])


def test_stream_rejects_negative_arrivals():
    # the deadline policies start their clock at t = 0, so on this stream
    # their traces would run backwards in time
    env = make_env(W=10, L=20, v=2, lam=1)
    with pytest.raises(ContractViolationError, match="negative"):
        DemandStream(env, 0, [Demand(0, -50.0, 5.0), Demand(1, -3.0, 6.0),
                              Demand(2, 1.0, 7.0)])
    with pytest.raises(ContractViolationError, match="negative"):
        DemandStream(env, 0, [Demand(0, -1e-300, 5.0)])


def test_stream_may_start_at_time_zero():
    env = make_env(W=10, L=20, v=2, lam=1)
    s = DemandStream(env, 0, [Demand(0, 0.0, 5.0), Demand(1, 3.0, 6.0)])
    assert [d.t_arr for d in s] == [0.0, 3.0]
    assert run_gp(s, start_x=5.0).n_capt == 2


def test_stream_keeps_int_coordinates_as_floats():
    # ints are numbers; the columns hold them as floats, so traces write 3.0
    env = make_env(W=10, L=20, v=2, lam=1)
    s = DemandStream(env, 0, [Demand(0, 0, 5), Demand(1, 3, 6)])
    assert [(d.t_arr, d.x) for d in s] == [(0.0, 5.0), (3.0, 6.0)]
    assert {type(v) for v in s.t_arr + s.x} == {float}
    trace = run_gp(s, start_x=5.0, trace=True).trace
    assert {type(e.t) for e in trace} == {type(e.vehicle_x) for e in trace} == {float}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, "1", False])
def test_stream_rejects_non_finite_abscissa(x):
    env = make_env(W=10, L=20, v=1, lam=1)
    with pytest.raises(ContractViolationError):
        DemandStream(env, 0, [Demand(0, 1.0, 5.0), Demand(1, 2.0, x)])


def test_stream_rejects_duplicate_ids():
    env = make_env(W=10, L=20, v=1, lam=1)
    with pytest.raises(ContractViolationError):
        DemandStream(env, 0, [Demand(0, 1.0, 5.0), Demand(1, 2.0, 6.0),
                              Demand(0, 3.0, 7.0)])


@pytest.mark.parametrize("i", ["a", True, -1, 2 ** 63, -2 ** 63 - 1])
def test_stream_rejects_an_id_that_is_not_a_count(i):
    env = make_env(W=10, L=20, v=2, lam=1)
    with pytest.raises(ContractViolationError, match="demand id"):
        DemandStream(env, 0, [Demand(0, 1.0, 5.0), Demand(i, 2.0, 6.0)])


@pytest.mark.parametrize("demands, match", [
    (None, "iterable of Demand"),
    (5, "iterable of Demand"),
    ("0 1.0 5.0", "iterable of Demand"),
    ([Demand(0, 1.0, 5.0), (1, 2.0, 6.0)], r"record \(1, 2.0, 6.0\) is not a Demand"),
], ids=["None", "int", "str", "tuple-record"])
def test_stream_rejects_demands_that_are_not_demand_records(demands, match):
    env = make_env(W=10, L=20, v=2, lam=1)
    with pytest.raises(ContractViolationError, match=match):
        DemandStream(env, 0, demands)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None], ids=repr)
def test_stream_rejects_a_seed_that_is_not_a_count(seed):
    # a stream file refuses such a seed in its header, so a stream could
    # be written that would not read back
    env = make_env(W=10, L=20, v=2, lam=1)
    with pytest.raises(ContractViolationError, match="seed must be"):
        DemandStream(env, seed, [Demand(0, 1.0, 5.0)])


@pytest.mark.parametrize("env", [None, (10.0, 20.0, 2.0, 1.0), {"W": 10.0}], ids=repr)
def test_stream_and_generator_reject_an_env_that_is_not_env_params(env):
    with pytest.raises(ContractViolationError, match="env must be an EnvParams"):
        DemandStream(env, 0, [Demand(0, 1.0, 5.0)])
    with pytest.raises(ContractViolationError, match="env must be an EnvParams"):
        generate_stream(env, 10, 0)


def test_stream_reads_an_iterable_of_demands_once():
    # a generator becomes a list, which the event kernel slices
    env = make_env(W=10, L=20, v=2, lam=1)
    s = DemandStream(env, 0, (Demand(i, 1.0 + i, 5.0) for i in range(3)))
    assert isinstance(s.demands, list) and [d.id for d in s] == [0, 1, 2]
    assert run_gp(s).n_resolved == 3


def test_generated_arrivals_are_checked_as_an_array(monkeypatch):
    # an rng draw of 0 makes a zero gap; the array check refuses it with the
    # per-demand check's error, naming the first bad demand
    env = make_env(W=10, L=20, v=2, lam=1)

    class Draws:
        def random(self, n):
            return np.array([0.5, 0.25, 0.0, 0.0][:n]) if n else np.zeros(0)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Draws())
    with pytest.raises(ContractViolationError) as exc:
        generate_stream(env, 4, 0)
    assert str(exc.value) == "demand 2: arrival times must be strictly increasing"
    monkeypatch.undo()
    with np.errstate(over="ignore"):     # gaps of -ln(U) / 5e-324 overflow to inf
        with pytest.raises(ContractViolationError,
                           match="^demand 0: arrival time inf is not finite$"):
            generate_stream(make_env(W=10, L=20, v=2, lam=5e-324), 4, 0)


def test_read_stream_rejects_non_finite_arrival(tmp_path):
    path = tmp_path / "nan.jsonl"
    path.write_text('{"env": {"W": 10, "L": 20, "v": 1, "lam": 1}, "seed": 0}\n'
                    '{"id": 0, "t_arr": NaN, "x": 5.0}\n')
    with pytest.raises(ContractViolationError):
        read_stream_jsonl(str(path))


@pytest.mark.parametrize("lines, bad_line", [
    (['{"id": 0, "t_arr": 1.0, "x": 2.0}', '', '{"id": 1, "t_arr": 2.0}'], 4),
    (['{"id": 0, "t_arr": "soon", "x": 2.0}'], 2),
    (['{"id": 0, "t_arr": null, "x": 2.0}'], 2),
    (['[0, 1.0, 2.0]'], 2),
    (['{"id": 0, "t_arr": 1.0, "x": 2.0'], 2),
    (['{"id": 0, "t_arr": 1.0, "x": 2.0}', '{"id": 2.9, "t_arr": 2.0, "x": 2.0}'], 3),
    (['{"id": true, "t_arr": 1.0, "x": 2.0}'], 2),
    (['{"id": 0, "t_arr": "3.0", "x": 2.0}'], 2),
    (['{"id": 0, "t_arr": 1.0, "x": "2"}'], 2),
], ids=["missing-x", "text", "null", "not-an-object", "not-json", "float-id", "bool-id",
        "text-arrival", "text-abscissa"])
def test_read_stream_rejects_malformed_record(tmp_path, lines, bad_line):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(['{"env": {"W": 10, "L": 20, "v": 1, "lam": 1}, "seed": 0}']
                              + lines) + "\n")
    with pytest.raises(ContractViolationError, match=f"line {bad_line}:"):
        read_stream_jsonl(str(path))


def test_read_stream_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    for header in ('{"env": {"W": 10, "L": 20, "v": 1, "lam": 1}}',
                   '{"seed": 0}', '{"env": [10, 20, 1, 1], "seed": 0}',
                   '{"env": {"W": 10, "L": 20, "v": 1, "lam": 1}, "seed": "7"}',
                   '{"env": {"W": 10, "L": 20, "v": 1, "lam": 1}, "seed": -3}'):
        path.write_text(header + '\n{"id": 0, "t_arr": 1.0, "x": 2.0}\n')
        with pytest.raises(ContractViolationError, match="line 1:"):
            read_stream_jsonl(str(path))


def test_generate_stream_reproducible():
    env = make_env(W=10, L=20, v=0.5, lam=2.0)
    a = generate_stream(env, 200, seed=42)
    b = generate_stream(env, 200, seed=42)
    assert [(d.t_arr, d.x) for d in a] == [(d.t_arr, d.x) for d in b]
    c = generate_stream(env, 200, seed=43)
    assert [(d.t_arr, d.x) for d in a] != [(d.t_arr, d.x) for d in c]


@pytest.mark.parametrize("seed, n", [(0, 1), (3, 500), (17, 2000)])
def test_generated_records_are_the_draws(seed, n):
    # the columns, and the records built from them, hold exactly the ids
    # 0..n-1 and the floats of the documented draws, bit for bit
    env = make_env(W=120, L=500, v=2, lam=0.75)
    rng = np.random.default_rng(seed)
    t_arr = np.cumsum(-np.log(1.0 - rng.random(n)) / env.lam).tolist()
    xs = (env.W * rng.random(n)).tolist()
    s = generate_stream(env, n, seed)
    assert (s.ids, s.t_arr, s.x) == (list(range(n)), t_arr, xs)
    assert [(d.id, d.t_arr.hex(), d.x.hex()) for d in s.demands] == \
        [(i, t.hex(), x.hex()) for i, t, x in zip(range(n), t_arr, xs)]


def _stream_sources(tmp_path):
    """A generated stream, one built from its records and one read from its file."""
    env = make_env(W=120, L=500, v=2, lam=0.75)
    generated = generate_stream(env, 300, seed=5)
    path = str(tmp_path / "stream.jsonl")
    write_stream_jsonl(generated, path)
    return {"generated": generated,
            "records": DemandStream(env, 5, [Demand(d.id, d.t_arr, d.x) for d in generated]),
            "file": read_stream_jsonl(path)}


@pytest.mark.parametrize("source", ["generated", "records", "file"])
def test_stream_arrays_are_its_columns(tmp_path, source):
    # (t_arr, x, ids) as float64, float64 and int64 arrays, bit for bit the
    # columns, built once
    s = _stream_sources(tmp_path)[source]
    t_arr, xs, ids = s.arrays
    assert (t_arr.dtype, xs.dtype, ids.dtype) == (np.float64, np.float64, np.int64)
    assert t_arr.tobytes() == np.array(s.t_arr).tobytes()
    assert xs.tobytes() == np.array(s.x).tobytes()
    assert ids.tolist() == s.ids == list(range(300))
    assert s.arrays is s.arrays


@pytest.mark.parametrize("source", ["generated", "records", "file"])
def test_stream_arrays_refuse_writes(tmp_path, source):
    s = _stream_sources(tmp_path)[source]
    before = [a.copy() for a in s.arrays]
    for a in s.arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            a += 1
    assert all(np.array_equal(a, b) for a, b in zip(s.arrays, before))


def test_empty_stream_arrays():
    env = make_env(W=10, L=20, v=2.0, lam=2.0)
    for s in (generate_stream(env, 0, seed=0), DemandStream(env, 0, [])):
        assert [(a.shape, a.dtype) for a in s.arrays] == \
            [((0,), np.float64), ((0,), np.float64), ((0,), np.int64)]


def test_generate_stream_shape():
    env = make_env(W=10, L=20, v=0.5, lam=2.0)
    s = generate_stream(env, 500, seed=7)
    ts = np.array([d.t_arr for d in s])
    xs = np.array([d.x for d in s])
    assert np.all(np.diff(ts) > 0)
    assert np.all((xs >= 0) & (xs < env.W))
    assert [d.id for d in s] == list(range(500))


def test_generate_stream_statistics():
    # interarrival mean 1/lam, abscissa mean W/2; loose 5-sigma style gates
    env = make_env(W=10, L=20, v=0.5, lam=2.0)
    gaps, xs = [], []
    for seed in range(20):
        s = generate_stream(env, 400, seed=seed)
        ts = np.array([d.t_arr for d in s])
        gaps.append(np.diff(ts, prepend=0.0))
        xs.append([d.x for d in s])
    gaps = np.concatenate(gaps)
    xs = np.concatenate(xs)
    assert abs(gaps.mean() - 0.5) < 0.01
    assert abs(xs.mean() - 5.0) < 0.1


def test_generate_stream_rejects_bad_args():
    env = make_env(W=10, L=20, v=0.5, lam=2.0)
    for n, seed in ((-1, 0), (2.5, 0), (10, -1), (10, 1.5), (True, 0), (10, True),
                    (10 ** 400, 0)):
        with pytest.raises(ParameterDomainError):
            generate_stream(env, n, seed)
    # counts whose float arrays would exceed sys.maxsize bytes, which numpy
    # refuses with a bare ValueError
    for n in (2 ** 60, sys.maxsize):
        with pytest.raises(ParameterDomainError, match="^n_demands "):
            generate_stream(env, n, 0)


def test_empty_stream():
    env = make_env(W=10, L=20, v=0.5, lam=2.0)
    s = generate_stream(env, 0, seed=0)
    assert len(s) == 0 and list(s) == []


def test_region_count_hand_instance():
    env = make_env(W=10, L=20, v=0.5, lam=1)
    s = DemandStream(env, 0, [Demand(0, 0.0, 2.0), Demand(1, 2.0, 5.0),
                              Demand(2, 4.0, 9.0)])
    # at t=4: ordinates are 2.0, 1.0, 0.0
    assert region_count(s, (0, 10, 0, 2), 4.0) == 3
    assert region_count(s, (0, 10, 1, 2), 4.0) == 2      # closed boundaries
    assert region_count(s, (0, 4, 0, 2), 4.0) == 1
    assert region_count(s, (0, 10, 0.5, 0.5), 4.0) == 0
    with pytest.raises(ParameterDomainError):
        region_count(s, (5, 4, 0, 2), 4.0)


def test_stream_jsonl_round_trip(tmp_path):
    env = make_env(W=10, L=20, v=0.5, lam=2.0)
    s = generate_stream(env, 50, seed=9)
    path = str(tmp_path / "stream.jsonl")
    write_stream_jsonl(s, path)
    r = read_stream_jsonl(path)
    assert r.env == s.env and r.seed == s.seed
    assert [(d.id, d.t_arr, d.x) for d in r] == [(d.id, d.t_arr, d.x) for d in s]


def test_read_stream_checks_the_header_count(tmp_path):
    s = generate_stream(make_env(W=10, L=20, v=0.5, lam=2.0), 5, seed=9)
    path = tmp_path / "stream.jsonl"
    write_stream_jsonl(s, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3]) + "\n")      # the header and 2 of its 5 records
    with pytest.raises(ContractViolationError, match="n = 5, but 2 records"):
        read_stream_jsonl(str(path))
    # a hand-written header without n is taken at its records' count
    path.write_text('{"env": {"W": 10, "L": 20, "v": 1, "lam": 1}, "seed": 0}\n'
                    '{"id": 0, "t_arr": 1.0, "x": 2.0}\n')
    assert len(read_stream_jsonl(str(path))) == 1


def test_read_stream_rejects_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ContractViolationError):
        read_stream_jsonl(str(path))
