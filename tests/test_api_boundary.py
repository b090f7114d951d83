"""Malformed values at the stream, planner, run and harness boundaries of the
library, one argument at a time: `DemandStream(env, seed, demands)`,
`longest_chain_fast`, `build_reach_graph`, `g_map`, `g_inv`,
`intercept_time`, `emhp_exact`, `emhp_heuristic`, `TmhpInstance` ->
`tmhp_solve`, the stream and the start of each policy run and LP's eta,
`write_trace_jsonl`'s result, the stream of `write_stream_jsonl`, the path
of `read_stream_jsonl`, the rows and a row of `sweep_csv` and `sweep_svg`,
the graph of `graph_to_dict`, and each field of an `ExperimentSpec` run
through `sweep` return normally or raise a `guardsim.errors` exception,
never a bare TypeError, AttributeError or the like.  `monte_carlo` and
`sweep` refuse anything but an `ExperimentSpec`, and the writers and the
stream reader what they cannot write or read, with a
ParameterDomainError."""
import dataclasses
import io
import math
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardsim import (ContractViolationError, Demand, DemandStream, ExperimentSpec,
                      ParameterDomainError, RegimeError, SizeLimitError, TmhpInstance,
                      VehicleState, build_reach_graph, emhp_exact, emhp_heuristic, g_inv,
                      g_map, graph_to_dict, intercept_time, longest_chain_fast, make_env,
                      monte_carlo, read_stream_jsonl, run_gp, run_lp, run_nclp, run_tf, sweep,
                      sweep_csv, sweep_svg, tmhp_solve, write_stream_jsonl, write_trace_jsonl)

GUARDSIM_ERRORS = (ContractViolationError, ParameterDomainError, RegimeError, SizeLimitError)

ENV = make_env(W=10.0, L=20.0, v=2.0, lam=1.0)
RECORDS = [Demand(0, 1.0, 2.0), Demand(1, 2.0, 5.0), Demand(2, 3.5, 9.0)]
VEHICLE = VehicleState(5.0, 20.0, 0.0)

# no draw is a valid large count: every value is small, negative, or above
# sys.maxsize, and the records are few
_SMALL = st.integers(-3, 3)
MALFORMED = st.one_of(
    st.none(), st.booleans(), st.text(max_size=5),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-10 ** 400, -1), st.integers(sys.maxsize + 1, 10 ** 400),
    st.floats(-1e308, -1e-300),
    st.lists(_SMALL, max_size=4), st.dictionaries(st.text(max_size=3), _SMALL, max_size=2),
    # wrong arity, and records of other types
    st.tuples(_SMALL, st.floats(0.0, 9.0)),
    st.tuples(_SMALL, st.floats(0.0, 9.0), st.floats(0.0, 9.0), _SMALL),
    st.just({"id": 0, "t_arr": 1.0, "x": 2.0}), st.just(VehicleState(1.0, 2.0, 3.0)),
    st.just(object()), st.just(ENV),
)


def _returns_or_raises_a_guardsim_error(fn, *args):
    try:
        fn(*args)
    except GUARDSIM_ERRORS:
        pass


def _replace_field(record, data, value):
    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(record)]),
                     label="field")
    return dataclasses.replace(record, **{name: value})


def _bad_demands(data, value):
    """RECORDS with one record, or one field of one record, replaced by value."""
    k = data.draw(st.integers(0, len(RECORDS) - 1), label="record")
    bad = _replace_field(RECORDS[k], data, value) if data.draw(st.booleans()) else value
    return RECORDS[:k] + [bad] + RECORDS[k + 1:]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=MALFORMED,
       where=st.sampled_from(["env", "seed", "demands", "record"]))
def test_demand_stream_with_a_malformed_argument(data, value, where):
    args = {"env": ENV, "seed": 0, "demands": RECORDS}
    if where == "record":
        args["demands"] = _bad_demands(data, value)
    else:
        args[where] = value
    _returns_or_raises_a_guardsim_error(DemandStream, args["env"], args["seed"],
                                        args["demands"])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=MALFORMED,
       where=st.sampled_from(["vehicle", "vehicle field", "demands", "record", "v", "L"]),
       planner=st.sampled_from([longest_chain_fast, build_reach_graph]))
def test_planner_with_a_malformed_argument(data, value, where, planner):
    args = {"vehicle": VEHICLE, "demands": RECORDS, "v": 2.0, "L": 20.0}
    if where == "vehicle field":
        args["vehicle"] = _replace_field(VEHICLE, data, value)
    elif where == "record":
        args["demands"] = _bad_demands(data, value)
    else:
        args[where] = value
    _returns_or_raises_a_guardsim_error(planner, args["vehicle"], args["demands"],
                                        args["v"], args["L"])


# the moving-target boundary: two points, a speed, and a path s -> points -> f
POINTS = [(1.0, 2.0), (3.0, 3.0), (2.0, 0.5)]
PATH = {"s": (0.0, 5.0), "points": POINTS, "f": (4.0, 1.0)}


def _bad_point(data, point, value):
    """value in place of point, or of one of its coordinates."""
    if data.draw(st.booleans(), label="whole point"):
        return value
    k = data.draw(st.integers(0, 1), label="coordinate")
    return point[:k] + (value,) + point[k + 1:]


def _bad_path(data, value, where):
    """PATH with s, f, the points, one point or one coordinate replaced by value."""
    args = dict(PATH)
    if where == "point":
        k = data.draw(st.integers(0, len(POINTS) - 1), label="point")
        args["points"] = POINTS[:k] + [_bad_point(data, POINTS[k], value)] + POINTS[k + 1:]
    elif where == "points":
        args["points"] = value
    else:
        args[where] = _bad_point(data, args[where], value)
    return args


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=MALFORMED, where=st.sampled_from(["point", "v"]),
       fn=st.sampled_from([g_map, g_inv]))
def test_g_map_with_a_malformed_argument(data, value, where, fn):
    point = _bad_point(data, (1.0, 2.0), value) if where == "point" else (1.0, 2.0)
    _returns_or_raises_a_guardsim_error(fn, point, value if where == "v" else 0.5)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=MALFORMED,
       where=st.sampled_from(["vehicle", "target_initial", "v"]))
def test_intercept_time_with_a_malformed_argument(data, value, where):
    args = {"vehicle": (0.0, 1.0), "target_initial": (2.0, 0.0), "v": 0.5}
    args[where] = value if where == "v" else _bad_point(data, args[where], value)
    _returns_or_raises_a_guardsim_error(intercept_time, args["vehicle"],
                                        args["target_initial"], args["v"])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=MALFORMED,
       where=st.sampled_from(["s", "f", "points", "point"]),
       solver=st.sampled_from([emhp_exact, emhp_heuristic]))
def test_path_solver_with_a_malformed_argument(data, value, where, solver):
    args = _bad_path(data, value, where)
    _returns_or_raises_a_guardsim_error(solver, args["s"], args["points"], args["f"])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=MALFORMED,
       where=st.sampled_from(["s", "f", "points", "point", "v", "instance"]))
def test_tmhp_solve_with_a_malformed_argument(data, value, where):
    def build_and_solve():
        if where == "instance":
            return tmhp_solve(value)
        args = _bad_path(data, value, where) if where != "v" else dict(PATH)
        return tmhp_solve(TmhpInstance(args["s"], args["points"], args["f"],
                                       value if where == "v" else 0.5))

    _returns_or_raises_a_guardsim_error(build_and_solve)


# the runs: a start or LP's eta; the harness: one field of a small spec
DEADLINE_STREAM = DemandStream(ENV, 0, RECORDS)
STRIP_STREAM = DemandStream(make_env(W=10.0, L=20.0, v=0.5, lam=1.0), 0, RECORDS)
RUNS = {
    "run_nclp stream": run_nclp,
    "run_lp stream": run_lp,
    "run_gp stream": run_gp,
    "run_tf stream": run_tf,
    "write_trace_jsonl result": lambda value: write_trace_jsonl(value, os.devnull),
    "write_stream_jsonl stream": lambda value: write_stream_jsonl(value, io.StringIO()),
    "sweep_csv rows": sweep_csv,
    "sweep_csv row": lambda value: sweep_csv([value]),
    "sweep_svg rows": sweep_svg,
    "sweep_svg row": lambda value: sweep_svg([value]),
    "graph_to_dict graph": graph_to_dict,
    "run_nclp start_x": lambda value: run_nclp(DEADLINE_STREAM, start_x=value),
    "run_lp start_x": lambda value: run_lp(DEADLINE_STREAM, start_x=value),
    "run_gp start_x": lambda value: run_gp(DEADLINE_STREAM, start_x=value),
    "run_lp eta": lambda value: run_lp(DEADLINE_STREAM, eta=value),
    "run_tf start": lambda value: run_tf(STRIP_STREAM, start=value),
}
SPECS = [ExperimentSpec("gp", ENV, n_demands=20, runs=2, sweep=(0.5, 1.0, 0.5)),
         ExperimentSpec("tf", STRIP_STREAM.env, n_demands=20, runs=2)]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=MALFORMED, where=st.sampled_from(sorted(RUNS)))
def test_policy_run_with_a_malformed_argument(data, value, where):
    if where == "run_tf start":
        value = _bad_point(data, (5.0, 10.0), value)
    _returns_or_raises_a_guardsim_error(RUNS[where], value)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=MALFORMED, spec=st.sampled_from(SPECS))
def test_sweep_with_a_malformed_spec_field(data, value, spec):
    _returns_or_raises_a_guardsim_error(lambda: sweep(_replace_field(spec, data, value)))


@settings(max_examples=100, deadline=None)
@given(value=MALFORMED, fn=st.sampled_from([monte_carlo, sweep]))
def test_harness_refuses_what_is_not_a_spec(value, fn):
    with pytest.raises(ParameterDomainError, match="ExperimentSpec"):
        fn(value)


@settings(max_examples=100, deadline=None)
@given(value=MALFORMED.filter(lambda v: not isinstance(v, str)))
def test_read_stream_jsonl_refuses_what_is_not_a_path(value):
    # a text is a path, and a missing file stays the OSError the CLI reports
    with pytest.raises(ParameterDomainError, match="path must be a file path"):
        read_stream_jsonl(value)


def test_read_stream_jsonl_of_a_missing_file_raises_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_stream_jsonl(str(tmp_path / "missing.jsonl"))


@pytest.mark.parametrize("call", [
    lambda: write_stream_jsonl(None, io.StringIO()), lambda: read_stream_jsonl(None),
    lambda: sweep_csv(None), lambda: sweep_csv([None]), lambda: sweep_svg([None]),
    lambda: graph_to_dict(None)],
    ids=["write_stream_jsonl", "read_stream_jsonl", "sweep_csv rows", "sweep_csv row",
         "sweep_svg row", "graph_to_dict"])
def test_writers_and_the_stream_reader_refuse_none(call):
    # each once failed deep inside with an AttributeError or a TypeError
    with pytest.raises(ParameterDomainError):
        call()
