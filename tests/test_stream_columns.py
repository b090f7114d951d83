"""The one reader of demand records and the columns every stream keeps.

`DemandStream`, `read_stream_jsonl`, `longest_chain_fast` and
`build_reach_graph` read records through `core._columns`.  A record set
with one fault raises the message of the former per-record walk
(`_oracles.stream_columns_reference`), except where the pinned tests below
say otherwise; the planners accept exactly what their former walk
(`_oracles.reach_columns_reference`) accepted.  A state machine then reads
the columns of streams from records, from a file and from
`generate_stream` in random order."""
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from guardsim import (ContractViolationError, Demand, DemandStream, VehicleState,
                      build_reach_graph, generate_stream, longest_chain_fast, make_env,
                      read_stream_jsonl, run_nclp, write_stream_jsonl)

from ._oracles import chain_reference, reach_columns_reference, stream_columns_reference

ENV = make_env(W=10.0, L=20.0, v=2.0, lam=1.0)
VEHICLE = VehicleState(5.0, 20.0, 0.0)

# values that are not numbers but compare like them, and so were refused
# for their type only where they kept the order and the range
NUMBER_LIKE = st.one_of(st.booleans(), st.integers(-3, 30).map(np.int64))
FAULTS = st.one_of(
    st.none(), st.text(max_size=3), NUMBER_LIKE,
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 10 ** 400, -10 ** 400]),
    st.integers(-5, 30), st.floats(-5.0, 30.0), st.floats(-5.0, 30.0).map(np.float64),
    st.integers(sys.maxsize, sys.maxsize + 2), st.lists(st.integers(0, 3), max_size=2),
)


@st.composite
def valid_records(draw, max_size=6):
    """Demands with unique ids in any order, increasing times in [0, 20]
    and abscissae in [0, 10], ints and -0.0 among the floats."""
    ts = sorted(draw(st.sets(st.one_of(st.floats(0.0, 20.0), st.integers(0, 20),
                                       st.just(-0.0)), max_size=max_size)))
    ts = [t for k, t in enumerate(ts) if k == 0 or t > ts[k - 1]]     # 1 == 1.0
    ids = draw(st.permutations(range(len(ts)))) if ts else []
    xs = draw(st.lists(st.one_of(st.floats(0.0, 10.0), st.integers(0, 10), st.just(-0.0)),
                       min_size=len(ts), max_size=len(ts)))
    return [Demand(i, t, x) for i, t, x in zip(ids, ts, xs)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ContractViolationError as exc:
        return exc


def _hex(values):
    return [float(v).hex() for v in values]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), records=valid_records())
def test_a_record_set_with_one_fault_raises_as_the_record_walk(data, records):
    where = data.draw(st.sampled_from(["none", "record", "id", "t_arr", "x"]), label="where")
    k = data.draw(st.integers(0, max(len(records) - 1, 0)), label="record")
    value = None
    if records and where != "none":
        if where == "record":
            value = data.draw(st.sampled_from([(1, 2.0, 3.0), None, "d", VEHICLE]))
            records[k] = value
        else:
            extra = st.sampled_from([r.id for r in records]) if where == "id" else FAULTS
            value = data.draw(st.one_of(FAULTS, extra), label="value")
            setattr(records[k], where, value)
    want = _outcome(stream_columns_reference, ENV, records)
    got = _outcome(DemandStream, ENV, 0, records)
    if not isinstance(want, Exception):
        assert not isinstance(got, Exception), got
        assert got.ids == want[0]
        assert _hex(got.t_arr) == _hex(want[1]) and _hex(got.x) == _hex(want[2])
        return
    assert isinstance(got, ContractViolationError), (want, got)
    d = records[k]
    if where in ("t_arr", "x") and isinstance(value, (bool, np.int64)):
        # a number-like non-number is refused for its type, also where it
        # breaks the order or the range too (the walk named that instead)
        want = f"demand {d.id}: arrival time {d.t_arr!r} and abscissa {d.x!r} must be numbers"
    elif where == "t_arr" and k == 0 and isinstance(value, int) and value < -sys.float_info.max:
        # the walk let a first time below float range pass its order check
        want = f"demand {d.id}: arrival time {value} is not finite"
    assert str(got) == str(want)


@pytest.mark.parametrize("k, field, value", [
    (0, "t_arr", -1), (0, "t_arr", -1e-300), (0, "t_arr", -0.0), (1, "t_arr", 1),
    (1, "t_arr", 10 ** 400), (2, "t_arr", math.nan), (1, "x", -0.0), (1, "x", 11),
    (2, "x", -10 ** 400), (0, "x", math.inf), (1, "x", "2"), (0, "id", True), (2, "id", 1),
    (1, "id", 2 ** 63), (0, "t_arr", np.float64(0.5)), (1, "x", 4)])
def test_one_fault_raises_as_the_record_walk(k, field, value):
    # the message, or the columns bit for bit, of the former walk
    records = [Demand(0, 0.5, 1.0), Demand(1, 2.0, 5.0), Demand(2, 3.0, 10.0)]
    setattr(records[k], field, value)
    want = _outcome(stream_columns_reference, ENV, records)
    got = _outcome(DemandStream, ENV, 0, records)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert (got.ids, _hex(got.t_arr), _hex(got.x)) == \
            (want[0], _hex(want[1]), _hex(want[2]))


@pytest.mark.parametrize("records, want, was", [
    ([Demand(0, 1.0, 5.0), Demand(1, True, 6.0)],
     "demand 1: arrival time True and abscissa 6.0 must be numbers",
     "demand 1: arrival times must be strictly increasing"),
    ([Demand(0, 0.5, 5.0), Demand(1, 2.0, np.int64(11))],
     "demand 1: arrival time 2.0 and abscissa np.int64(11) must be numbers",
     "demand 1: abscissa 11 outside [0, 10.0]"),
    ([Demand(0, -10 ** 400, 5.0)],
     f"demand 0: arrival time {-10 ** 400} is not finite",
     f"demand 0: arrival time {-10 ** 400} and abscissa 5.0 must be numbers"),
    ([Demand(0, 1.0, 12.0), Demand(1, "soon", 6.0)],
     "demand 1: arrival time 'soon' and abscissa 6.0 must be numbers",
     "demand 0: abscissa 12.0 outside [0, 10.0]"),
    ([Demand(0, 2.0, 5.0), Demand(1, 1.0, 6.0), Demand(0, 3.0, 7.0)],
     "demand ids must be unique",
     "demand 1: arrival times must be strictly increasing"),
], ids=["bool-out-of-order", "np-int-out-of-range", "first-time-below-float-range",
        "two-records", "unique-before-order"])
def test_stream_messages_that_changed(records, want, was):
    # a record that is both of the wrong type and out of order or range,
    # and a set with faults in two records, may name another fault than the
    # record walk did
    with pytest.raises(ContractViolationError) as old:
        stream_columns_reference(ENV, records)
    assert str(old.value) == was
    with pytest.raises(ContractViolationError) as new:
        DemandStream(ENV, 0, records)
    assert str(new.value) == want


@settings(max_examples=300, deadline=None)
@given(data=st.data(), records=valid_records(),
       planner=st.sampled_from([longest_chain_fast, build_reach_graph]))
def test_planners_accept_what_their_record_walk_accepted(data, records, planner):
    # any time order, any finite abscissa; the same refusals as before
    records = data.draw(st.permutations(records))
    if records and data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(records) - 1))
        where = data.draw(st.sampled_from(["id", "t_arr", "x"]))
        setattr(records[k], where, data.draw(st.one_of(FAULTS, st.floats(-50.0, 50.0))))
    want = _outcome(reach_columns_reference, records)
    got = _outcome(planner, VEHICLE, records, ENV.v, ENV.L)
    if isinstance(want, Exception):
        assert isinstance(got, ContractViolationError), got
        return
    ids, ts, xs = want
    chain = _outcome(chain_reference, VEHICLE.x, VEHICLE.t, range(len(ids)), ts, xs, ids,
                     ENV.L / ENV.v)
    if isinstance(chain, Exception):         # a time far below the vehicle's t
        assert str(got) == str(chain)
        return
    plan = got if planner is longest_chain_fast else got.plan
    assert plan.order == [ids[k] for k in chain]
    assert _hex(plan.capture_times) == _hex(ts[k] + ENV.L / ENV.v for k in chain)


@pytest.mark.parametrize("demands, want", [
    ([Demand(0, 1.0, 2.0), (1, 2.0, 3.0)], r"^demand record \(1, 2.0, 3.0\) is not a Demand$"),
    ([Demand(-1, 1.0, 2.0)], r"^demand id -1 must be an int in \[0, sys.maxsize\]$"),
    ([Demand(0, 1.0, 2.0), Demand(1, "3", 2.0)],
     r"^demand 1: arrival time '3' and abscissa 2.0 must be numbers$"),
    ([Demand(0, 1.0, math.nan)], r"^demand 0: arrival time 1.0 and abscissa nan must be finite$"),
    ([Demand(4, math.inf, 2.0)], r"^demand 4: arrival time inf and abscissa 2.0 must be finite$"),
    ([Demand(0, 1.0, 2.0), Demand(0, 2.0, 3.0)], r"^demand ids must be unique$"),
    ("abc", r"^demands must be an iterable of Demand records, got 'abc'$"),
], ids=["tuple", "id", "text", "nan-x", "inf-t", "repeated-id", "str"])
def test_planner_messages(demands, want):
    # the planners name a bad record as DemandStream does; the former walk
    # said "demand record ... must be a Demand with a count id and finite
    # t_arr and x" for each of the first five
    for planner in (longest_chain_fast, build_reach_graph):
        with pytest.raises(ContractViolationError, match=want):
            planner(VEHICLE, demands, ENV.v, ENV.L)


def test_planners_read_any_time_order_and_abscissa():
    demands = [Demand(3, 5.0, -4.0), Demand(1, 2.0, 12.5), Demand(2, -0.0, 5.0)]
    graph = build_reach_graph(VEHICLE, demands, 2.0, 20.0)
    assert graph.topo_order == [2, 1, 3] and graph.source_edges == [2, 1, 3]
    assert graph.plan == longest_chain_fast(VEHICLE, demands, 2.0, 20.0)
    assert graph.plan.length == 1


def _count_demands(monkeypatch) -> list:
    built = []
    init = Demand.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Demand, "__init__", counting_init)
    return built


def test_stream_files_and_bad_draws_build_no_demand(monkeypatch, tmp_path):
    path = str(tmp_path / "s.jsonl")
    write_stream_jsonl(generate_stream(ENV, 50, 3), path)
    built = _count_demands(monkeypatch)
    assert len(read_stream_jsonl(path)) == 50
    with np.errstate(over="ignore"):     # gaps of -ln(U) / 5e-324 overflow to inf
        with pytest.raises(ContractViolationError, match="^demand 0: arrival time inf is not"):
            generate_stream(make_env(W=10, L=20, v=2, lam=5e-324), 4, 0)
    assert built == []


def test_a_stream_file_names_a_bad_record_as_records_do(tmp_path):
    path = tmp_path / "s.jsonl"
    header = '{"env": {"W": 10, "L": 20, "v": 2, "lam": 1}, "seed": 0}\n'
    for body, want in [
        ('{"id": 0, "t_arr": 2.0, "x": 1.0}\n{"id": 1, "t_arr": 1.5, "x": 1.0}\n',
         "demand 1: arrival times must be strictly increasing"),
        ('{"id": 3, "t_arr": -1, "x": 1.0}\n', "demand 3: arrival time -1.0 is negative"),
        ('{"id": 0, "t_arr": 1, "x": 10.5}\n', "demand 0: abscissa 10.5 outside [0, 10.0]"),
        ('{"id": 2, "t_arr": 1, "x": 1}\n{"id": 2, "t_arr": 2, "x": 1}\n',
         "demand ids must be unique"),
    ]:
        path.write_text(header + body)
        with pytest.raises(ContractViolationError) as exc:
            read_stream_jsonl(str(path))
        assert str(exc.value) == want


# ---------------------------------------------------------------------------
# the columns of a stream, read in random order

MACHINE_ENV = make_env(W=120.0, L=500.0, v=2.0, lam=1.0)


class StreamColumns(RuleBasedStateMachine):
    """A stream from records, a file or generate_stream, read column by
    column in random order: every read equals, bit for bit, the column of
    the same stream built from records, the arrays refuse writes, and a
    generated stream builds its ids and x lists only when they are read."""

    @initialize(source=st.sampled_from(["records", "file", "generated"]),
                n=st.integers(0, 40), seed=st.integers(0, 3))
    def build(self, source, n, seed):
        drawn = generate_stream(MACHINE_ENV, n, seed)
        records = [Demand(i, t, x) for i, t, x in zip(drawn.arrays[2].tolist(),
                                                        drawn.t_arr, drawn.arrays[1].tolist())]
        self.want = DemandStream(MACHINE_ENV, seed, records)
        if source == "records":
            self.stream = DemandStream(MACHINE_ENV, seed, records)
        elif source == "file":
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "stream.jsonl")
                write_stream_jsonl(self.want, path)
                self.stream = read_stream_jsonl(path)
        else:
            self.stream = drawn
        self.generated = source == "generated"
        self.read = set()

    @rule()
    def read_len(self):
        assert len(self.stream) == len(self.want)

    @rule()
    def read_ids(self):
        self.read.add("ids")
        assert self.stream.ids == self.want.ids
        assert all(i.__class__ is int for i in self.stream.ids)

    @rule()
    def read_t_arr(self):
        assert _hex(self.stream.t_arr) == _hex(self.want.t_arr)

    @rule()
    def read_x(self):
        self.read.add("x")
        assert _hex(self.stream.x) == _hex(self.want.x)

    @rule()
    def read_arrays(self):
        for got, want in zip(self.stream.arrays, self.want.arrays):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[...] = 0

    @rule()
    def read_demands(self):
        self.read.update(("ids", "x"))
        assert [(d.id, d.t_arr.hex(), d.x.hex()) for d in self.stream.demands] == \
            [(d.id, d.t_arr.hex(), d.x.hex()) for d in self.want.demands]

    @rule()
    def iterate(self):
        self.read.update(("ids", "x"))
        assert [(d.id, d.t_arr, d.x) for d in self.stream] == \
            [(d.id, d.t_arr, d.x) for d in self.want]

    @precondition(lambda self: len(self.want) > 0)
    @rule(data=st.data())
    def index(self, data):
        self.read.update(("ids", "x"))
        k = data.draw(st.integers(-len(self.want), len(self.want) - 1))
        got, want = self.stream[k], self.want[k]
        assert (got.id, got.t_arr.hex(), got.x.hex()) == (want.id, want.t_arr.hex(), want.x.hex())

    @rule()
    def untraced_nclp_run(self):
        assert run_nclp(self.stream).n_capt == run_nclp(self.want).n_capt

    @invariant()
    def unread_columns_stay_unbuilt(self):
        if self.generated:
            assert (self.stream._ids is None) == ("ids" not in self.read)
            assert (self.stream._x is None) == ("x" not in self.read)


StreamColumns.TestCase.settings = settings(max_examples=60, stateful_step_count=12,
                                           deadline=None)
test_stream_columns_state_machine = StreamColumns.TestCase
