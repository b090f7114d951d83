"""Command-line interface: subcommands, spec files, error paths."""
import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from guardsim import (
    ContractViolationError,
    Demand,
    DemandStream,
    ExperimentSpec,
    ParameterDomainError,
    TmhpInstance,
    VehicleState,
    applicable_bounds,
    build_reach_graph,
    emhp_heuristic,
    erf,
    g_map,
    generate_stream,
    graph_to_dict,
    lp_lower_bound,
    make_env,
    read_stream_jsonl,
    run_gp,
    run_lp,
    run_tf,
    tmhp_solve,
)
from guardsim.cli import main

from ._oracles import check_trace


def test_bounds_subcommand(capsys):
    rc = main(["bounds", "--v", "2", "--lam", "1", "--W", "120", "--L", "500"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out == applicable_bounds(2.0, 1.0, 120.0, 500.0)
    rc = main(["bounds", "--v", "0.05", "--lam", "2", "--W", "100", "--L", "200"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"causal_upper_bound", "tf_lower_bound"}


def test_simulate_where_lam_w_overflows(capsys):
    # lam*W/2 overflows a float; the LP bound is still a finite number
    rc = main(["simulate", "--policy", "nclp", "--v", "2", "--W", "1e200", "--L", "1e300",
               "--lam", "1e200", "--n-demands", "3", "--runs", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bounds"]["lp_lower_bound"] == lp_lower_bound(1e200, 1e200) > 0.0
    assert 0.0 <= out["mean"] <= 1.0


def test_simulate_where_the_load_underflows(capsys):
    # v*lam*W underflows to 0; both v < 1 bounds are their cap of 1
    rc = main(["simulate", "--policy", "tf", "--v", "0.5", "--lam", "5e-324",
               "--n-demands", "0", "--runs", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bounds"] == {"causal_upper_bound": 1.0, "tf_lower_bound": 1.0}


@pytest.mark.parametrize("policy", ["nclp", "lp", "gp"])
def test_simulate_where_demands_escape_as_they_arrive(policy, capsys):
    # L/v = 0.5 is below half an ulp of the arrival times, about 1e17, so
    # every demand escapes at its arrival instant and none can be captured
    rc = main(["simulate", "--policy", policy, "--W", "10", "--L", "1", "--v", "2",
               "--lam", "1e-17", "--n-demands", "5", "--runs", "1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["mean"] == 0.0


def test_gen_stream_file_and_stdout(tmp_path, capsys):
    path = str(tmp_path / "s.jsonl")
    rc = main(["gen-stream", "--W", "10", "--L", "20", "--v", "2", "--lam", "1",
               "--n-demands", "25", "--seed", "3", "--out", path])
    assert rc == 0
    stream = read_stream_jsonl(path)
    assert len(stream) == 25 and stream.seed == 3
    rc = main(["gen-stream", "--W", "10", "--L", "20", "--v", "2", "--lam", "1",
               "--n-demands", "4", "--seed", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0])["n"] == 4
    assert len(lines) == 5


def test_gen_stream_stdout_matches_out_file(tmp_path):
    # one serialiser: stdout carries the --out file's bytes
    args = [sys.executable, "-m", "guardsim", "gen-stream", "--W", "10", "--L", "20",
            "--v", "0.3", "--lam", "1.7", "--n-demands", "40", "--seed", "11"]
    path = tmp_path / "s.jsonl"
    assert subprocess.run(args + ["--out", str(path)], timeout=60).returncode == 0
    proc = subprocess.run(args, capture_output=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == path.read_bytes()
    assert len(proc.stdout.splitlines()) == 41


def test_graph_subcommand(tmp_path, capsys):
    path = str(tmp_path / "s.jsonl")
    main(["gen-stream", "--W", "10", "--L", "20", "--v", "2", "--lam", "1",
          "--n-demands", "12", "--seed", "5", "--out", path])
    capsys.readouterr()
    rc = main(["graph", "--stream", path])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    stream = read_stream_jsonl(path)
    expect = graph_to_dict(build_reach_graph(
        VehicleState(x=5.0, y=20.0, t=0.0), list(stream), 2.0, 20.0))
    assert got == json.loads(json.dumps(expect))


def test_tmhp_solve_subcommand(tmp_path, capsys):
    inst = {"s": [0.0, 5.0], "f": [4.0, 1.0], "v": 0.4,
            "points": [[1.0, 2.0], [3.0, 3.0], [2.0, 0.5]]}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    rc = main(["tmhp-solve", "--instance", str(path)])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    sol = tmhp_solve(TmhpInstance(s=(0.0, 5.0), points=((1.0, 2.0), (3.0, 3.0),
                                                        (2.0, 0.5)),
                                  f=(4.0, 1.0), v=0.4))
    assert got["order"] == list(sol.order)
    assert got["duration"] == sol.duration
    assert got["emhp_length"] == sol.emhp_length


def test_simulate_subcommand_with_trace(tmp_path, capsys):
    # the traced run is the harness's run of the policy, eta included
    trace_path = str(tmp_path / "trace.jsonl")
    env = make_env(W=40, L=100, v=1.5, lam=1)
    stream = generate_stream(env, 60, seed=7)
    for policy, extra, direct in (
            ("gp", [], run_gp(stream, trace=True)),
            ("lp", ["--eta", "0.5"], run_lp(stream, eta=0.5, trace=True))):
        rc = main(["simulate", "--policy", policy, "--W", "40", "--L", "100",
                   "--v", "1.5", "--lam", "1", "--n-demands", "60", "--runs", "2",
                   "--seed", "7", "--trace", trace_path, *extra])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["policy"] == policy and out["runs"] == 2
        assert 0.0 <= out["mean"] <= 1.0 and "estimator" in out
        with open(trace_path) as fh:
            events = [json.loads(line) for line in fh if line.strip()]
        assert events == [e.to_dict() for e in direct.trace]
        resolved = check_trace(events, env, stream, start=(20.0,))
        assert len(resolved) == 60


def test_simulate_spec_file_override(tmp_path, capsys):
    raw = {"policy": "gp", "env": {"W": 50.0, "L": 200.0, "v": 2.0, "lam": 0.8},
           "n_demands": 40, "runs": 2, "base_seed": 4}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(raw))
    rc = main(["simulate", "--spec", str(spec_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lam"] == 0.8 and out["runs"] == 2


def test_sweep_subcommand(tmp_path):
    csv_path = tmp_path / "rows.csv"
    svg_path = tmp_path / "plot.svg"
    rc = main(["sweep", "--policy", "gp", "--W", "120", "--L", "500", "--v", "2",
               "--n-demands", "50", "--runs", "2", "--lam-min", "0.5",
               "--lam-max", "1.0", "--lam-step", "0.5",
               "--csv", str(csv_path), "--svg", str(svg_path)])
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("lambda,mean,std,stderr")
    assert len(lines) == 3
    ET.fromstring(svg_path.read_text())


def test_sweep_subcommand_refuses_an_unbounded_grid(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    for lam_max, lam_step in (("1e300", "1"), ("2", "1e-300")):
        rc = main(["sweep", "--policy", "gp", "--lam-min", "1", "--lam-max", lam_max,
                   "--lam-step", lam_step, "--csv", str(csv_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: sweep grid ")
    assert not csv_path.exists()


def test_cli_error_paths(capsys):
    rc = main(["bounds", "--v", "-1", "--lam", "1", "--W", "10", "--L", "20"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    rc = main(["graph", "--stream", "/nonexistent/stream.jsonl"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    # 2**62 demands: arrays of 8 * 2**62 bytes, which numpy refuses with a bare ValueError
    rc = main(["gen-stream", "--n-demands", "4611686018427387904"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: n_demands ")
    with pytest.raises(SystemExit):
        main(["sweep", "--policy", "gp"])      # --csv is required


def test_cli_malformed_json_files(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"policy": "gp"}))   # no "env"
    rc = main(["simulate", "--spec", str(spec_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'env'" in err

    spec_path.write_text(json.dumps([1, 2, 3]))          # not an object
    rc = main(["simulate", "--spec", str(spec_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")

    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({"s": [0, 5], "points": []}))
    rc = main(["tmhp-solve", "--instance", str(inst_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'f'" in err

    # a spec's keys are ExperimentSpec's fields and its env's make_env's arguments
    env = {"W": 50.0, "L": 200.0, "v": 2.0, "lam": 0.8}
    for raw in ({"policy": "gp", "env": [1, 2]},
                {"policy": "gp", "env": {**env, "mu": 1.0}},
                {"policy": "gp", "env": env, "n_demand": 40}):
        spec_path.write_text(json.dumps(raw))
        rc = main(["simulate", "--spec", str(spec_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec_path}: ")

    # TmhpInstance's own check names the field it refuses
    for field, value in (("s", 5), ("points", 5), ("points", [5])):
        raw = {"s": [0, 5], "points": [[1, 2]], "f": [4, 1], "v": 0.4}
        raw[field] = value
        inst_path.write_text(json.dumps(raw))
        rc = main(["tmhp-solve", "--instance", str(inst_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    # a guardsim error keeps its own message
    spec_path.write_text(json.dumps({"policy": "tf", "env": env}))
    rc = main(["simulate", "--spec", str(spec_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: the tf policy needs v < 1\n"


def test_cli_truncated_stream_file(tmp_path, capsys):
    path = str(tmp_path / "s.jsonl")
    main(["gen-stream", "--W", "10", "--L", "20", "--v", "2", "--lam", "1",
          "--n-demands", "5", "--seed", "5", "--out", path])
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:3])           # the header and 2 of its 5 records
    rc = main(["graph", "--stream", path])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ") and "n = 5" in captured.err
    assert captured.out == ""


def test_cli_malformed_stream_record(tmp_path, capsys):
    path = tmp_path / "stream.jsonl"
    path.write_text('{"env": {"W": 10, "L": 20, "v": 2, "lam": 1}, "seed": 0}\n'
                    '{"id": 0, "t_arr": 1.0, "x": 2.0}\n'
                    '{"id": 1, "t_arr": 2.0}\n')
    rc = main(["graph", "--stream", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3" in err and "'x'" in err


def test_cli_stream_with_a_negative_arrival(tmp_path, capsys):
    path = tmp_path / "stream.jsonl"
    path.write_text('{"env": {"W": 10, "L": 20, "v": 2, "lam": 1}, "seed": 0}\n'
                    '{"id": 0, "t_arr": -3.0, "x": 2.0}\n'
                    '{"id": 1, "t_arr": 1.0, "x": 4.0}\n')
    rc = main(["graph", "--stream", str(path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "negative" in captured.err
    assert captured.out == ""


def test_cli_tmhp_solve_non_finite_coordinates(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    for field, value in (("points", [[1.0, float("nan")], [2.0, 2.0]]),
                         ("s", [float("inf"), 0.0]), ("f", [3.0, float("nan")])):
        raw = {"s": [0.0, 0.0], "points": [[1.0, 1.0]], "f": [3.0, 3.0], "v": 0.5}
        raw[field] = value
        inst_path.write_text(json.dumps(raw))       # json writes NaN and Infinity
        rc = main(["tmhp-solve", "--instance", str(inst_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "finite" in err


def test_cli_spec_field_of_wrong_type(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"policy": "lp", "env": {"W": 50.0, "L": 200.0, "v": 2.0, "lam": 0.8},
         "eta": "x", "n_demands": 10, "runs": 1}))
    rc = main(["simulate", "--spec", str(spec_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "eta" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "guardsim", "bounds", "--v", "2", "--lam", "1",
         "--W", "120", "--L", "500"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "lp_lower_bound" in proc.stdout


def test_graph_rejects_a_non_finite_start(tmp_path, capsys):
    path = str(tmp_path / "s.jsonl")
    main(["gen-stream", "--W", "10", "--L", "20", "--v", "2", "--lam", "1",
          "--n-demands", "12", "--seed", "5", "--out", path])
    capsys.readouterr()
    rc = main(["graph", "--stream", path, "--start-x", "nan"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("t0", ["nan", "inf"])
def test_graph_rejects_a_non_finite_start_time(tmp_path, capsys, t0):
    path = str(tmp_path / "s.jsonl")
    main(["gen-stream", "--W", "10", "--L", "20", "--v", "2", "--lam", "1",
          "--n-demands", "12", "--seed", "5", "--out", path])
    capsys.readouterr()
    rc = main(["graph", "--stream", path, "--t0", t0])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "finite" in captured.err
    assert captured.out == ""


_HUGE = 10 ** 400                  # an int too large for a float
_HUGE_JSON = "1" + "0" * 400       # json reads it as that int


def _cli_on_file(tmp_path, command, flag, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    return main([command, flag, str(path)])


@pytest.mark.parametrize("call", [
    pytest.param(lambda tmp: make_env(_HUGE, 1, 1, 1), id="make_env"),
    pytest.param(lambda tmp: lp_lower_bound(_HUGE, 1), id="lp_lower_bound"),
    pytest.param(lambda tmp: applicable_bounds(1, _HUGE, 1, 1), id="applicable_bounds"),
    pytest.param(lambda tmp: erf(_HUGE), id="erf"),
    pytest.param(lambda tmp: g_map((_HUGE, 1), 0.5), id="g_map-point"),
    pytest.param(lambda tmp: g_map((1, 1), _HUGE), id="g_map-speed"),
    pytest.param(lambda tmp: emhp_heuristic((0, 0), [(_HUGE, 1)], (1, 1)),
                 id="emhp_heuristic"),
    pytest.param(lambda tmp: run_tf(generate_stream(make_env(10, 20, 0.5, 1), 3, 0),
                                    start=(_HUGE, 1)), id="run_tf-start"),
    pytest.param(lambda tmp: ExperimentSpec(policy="gp", env=make_env(10, 20, 2, 1),
                                            sweep=(1, _HUGE, 1)), id="spec-sweep"),
    pytest.param(lambda tmp: DemandStream(make_env(10, 20, 2, 1), 0,
                                          [Demand(0, 1.0, 2.0), Demand(1, _HUGE, 3.0)]),
                 id="stream-arrival"),
    pytest.param(lambda tmp: _cli_on_file(
        tmp, "simulate", "--spec",
        '{"policy": "gp", "env": {"W": %s, "L": 200, "v": 2, "lam": 1}}' % _HUGE_JSON),
        id="cli-simulate-spec"),
    pytest.param(lambda tmp: _cli_on_file(
        tmp, "tmhp-solve", "--instance",
        '{"s": [%s, 0], "points": [], "f": [1, 1], "v": 0.5}' % _HUGE_JSON),
        id="cli-tmhp-solve-instance"),
    pytest.param(lambda tmp: _cli_on_file(
        tmp, "graph", "--stream",
        '{"env": {"W": 10, "L": 20, "v": 2, "lam": 1}, "seed": 0}\n'
        '{"id": 0, "t_arr": %s, "x": 2.0}\n' % _HUGE_JSON),
        id="cli-graph-stream"),
])
def test_int_too_large_for_a_float_is_a_typed_error(call, tmp_path, capsys):
    # the library raises a typed guardsim error; the CLI exits 2 with "error:"
    try:
        rc = call(tmp_path)
    except (ParameterDomainError, ContractViolationError):
        return
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
