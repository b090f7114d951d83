"""Malformed values at the stream and planner boundaries of the library, one
argument at a time: `DemandStream(env, seed, demands)`, `longest_chain_fast`
and `build_reach_graph` return normally or raise a `guardsim.errors`
exception, never a bare TypeError, AttributeError or the like."""
import dataclasses
import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from guardsim import (ContractViolationError, Demand, DemandStream, ParameterDomainError,
                      RegimeError, SizeLimitError, VehicleState, build_reach_graph,
                      longest_chain_fast, make_env)

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
