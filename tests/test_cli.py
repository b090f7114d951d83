"""Command-line interface: subcommands, spec files, error paths."""
import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from guardsim import (
    TmhpInstance,
    VehicleState,
    applicable_bounds,
    build_reach_graph,
    graph_to_dict,
    read_stream_jsonl,
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
    trace_path = str(tmp_path / "trace.jsonl")
    rc = main(["simulate", "--policy", "gp", "--W", "40", "--L", "100",
               "--v", "1.5", "--lam", "1", "--n-demands", "60", "--runs", "2",
               "--seed", "7", "--trace", trace_path])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["policy"] == "gp" and out["runs"] == 2
    assert 0.0 <= out["mean"] <= 1.0 and "estimator" in out
    with open(trace_path) as fh:
        events = [json.loads(line) for line in fh if line.strip()]
    from guardsim import generate_stream, make_env
    env = make_env(W=40, L=100, v=1.5, lam=1)
    stream = generate_stream(env, 60, seed=7)
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


def test_cli_error_paths(capsys):
    rc = main(["bounds", "--v", "-1", "--lam", "1", "--W", "10", "--L", "20"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    rc = main(["graph", "--stream", "/nonexistent/stream.jsonl"])
    assert rc == 2
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
