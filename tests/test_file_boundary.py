"""Malformed values in spec, instance and stream files, one field at a time:
the CLI exits 0, or exits 2 with `error:`, and never ends in a traceback."""
import contextlib
import copy
import io
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardsim.cli import main

# valid files: 5 demands and 1 run, 3 points, 5 demands
SPEC = {"policy": "gp", "env": {"W": 50.0, "L": 200.0, "v": 2.0, "lam": 0.8},
        "eta": 1.0, "n_demands": 5, "runs": 1, "base_seed": 0, "sweep": [0.5, 1.0, 0.5]}
INSTANCE = {"s": [0.0, 5.0], "points": [[1.0, 2.0], [3.0, 3.0], [2.0, 0.5]],
            "f": [4.0, 1.0], "v": 0.4}
STREAM = [{"env": {"W": 10.0, "L": 20.0, "v": 2.0, "lam": 1.0}, "seed": 0, "n": 5},
          *({"id": i, "t_arr": 1.0 + i, "x": 2.0 * i} for i in range(5))]

# no draw may be a valid large count, which would run for hours: a count
# above sys.maxsize is refused and a drawn list holds ints of at most 3
_SMALL = st.integers(-3, 3)
MALFORMED = st.one_of(
    st.none(), st.booleans(), st.text(max_size=5),
    st.lists(_SMALL, max_size=4), st.dictionaries(st.text(max_size=3), _SMALL, max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-10 ** 400, -1), st.floats(-1e308, -1e-300),
    st.integers(sys.maxsize + 1, 10 ** 400),
)


def _paths(value, prefix=()):
    """Every path (a tuple of keys and indexes) to a value inside value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _replaced(doc, data):
    """(path, value, a copy of doc with the field at a drawn path replaced by a
    drawn malformed value)."""
    path = data.draw(st.sampled_from(list(_paths(doc))), label="field")
    value = data.draw(MALFORMED, label="value")
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return path, value, doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc == 0 or (rc == 2 and err.getvalue().startswith("error:")), (rc, err.getvalue())


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), command=st.sampled_from(["simulate", "sweep"]))
def test_spec_file_with_a_malformed_field(tmp_dir, data, command):
    field, value, doc = _replaced(SPEC, data)
    path = tmp_dir / "spec.json"
    path.write_text(json.dumps(doc))
    csv = ["--csv", str(tmp_dir / "rows.csv")] if command == "sweep" else []
    _run([command, "--spec", str(path), *csv])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_instance_file_with_a_malformed_field(tmp_dir, data):
    path = tmp_dir / "inst.json"
    path.write_text(json.dumps(_replaced(INSTANCE, data)[2]))
    _run(["tmhp-solve", "--instance", str(path)])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_stream_file_with_a_malformed_field(tmp_dir, data):
    path = tmp_dir / "stream.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in _replaced(STREAM, data)[2]))
    _run(["graph", "--stream", str(path)])
