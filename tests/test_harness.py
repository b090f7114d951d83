"""Monte-Carlo aggregation, lambda sweeps, CSV/SVG emission."""
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from guardsim import (
    CSV_COLUMNS,
    ESTIMATOR_NOTE,
    ExperimentSpec,
    ParameterDomainError,
    RegimeError,
    SizeLimitError,
    applicable_bounds,
    generate_stream,
    make_env,
    monte_carlo,
    run_gp,
    run_lp,
    run_nclp,
    run_tf,
    sweep,
    sweep_csv,
    sweep_svg,
    write_sweep_csv,
    write_sweep_svg,
)
from guardsim.harness import MAX_SWEEP_LAMBDAS

FAST = make_env(W=120.0, L=500.0, v=2.0, lam=1.0)
SLOW = make_env(W=10.0, L=20.0, v=0.05, lam=1.0)


def test_spec_validation():
    with pytest.raises(ParameterDomainError):
        ExperimentSpec(policy="walk", env=FAST)
    with pytest.raises(ParameterDomainError):
        ExperimentSpec(policy="gp", env=FAST, runs=0)
    with pytest.raises(ParameterDomainError):
        ExperimentSpec(policy="gp", env=FAST, n_demands=-5)
    with pytest.raises(ParameterDomainError):
        ExperimentSpec(policy="lp", env=FAST, eta=0.0)
    with pytest.raises(ParameterDomainError):
        ExperimentSpec(policy="gp", env=FAST, sweep=(2.0, 1.0, 0.5))
    with pytest.raises(RegimeError):
        ExperimentSpec(policy="tf", env=FAST)
    with pytest.raises(RegimeError):
        ExperimentSpec(policy="nclp", env=SLOW)


def test_spec_rejects_badly_typed_fields():
    for kwargs in (dict(eta="x"), dict(eta=None), dict(eta=True), dict(runs=True),
                   dict(runs=2.0), dict(n_demands="10"), dict(n_demands=10 ** 400),
                   dict(base_seed=-1),
                   dict(base_seed=1.5), dict(sweep=(0.5, "2", 0.5)),
                   dict(sweep=(0.5, 2.0)), dict(sweep=(0.5, float("inf"), 0.5)),
                   dict(env={"W": 1.0})):
        with pytest.raises(ParameterDomainError):
            ExperimentSpec(**{"policy": "lp", "env": FAST, **kwargs})


def test_lambda_grid():
    spec = ExperimentSpec(policy="gp", env=FAST, sweep=(0.5, 2.0, 0.5))
    assert spec.lambdas() == pytest.approx([0.5, 1.0, 1.5, 2.0])
    point = ExperimentSpec(policy="gp", env=FAST)
    assert point.lambdas() == [FAST.lam]
    # floating-point endpoint is still included
    spec = ExperimentSpec(policy="gp", env=FAST, sweep=(0.1, 0.3, 0.1))
    assert len(spec.lambdas()) == 3
    spec = ExperimentSpec(policy="gp", env=FAST, sweep=(0.25, 2.0, 0.25))   # bench/'s grid
    assert spec.lambdas() == [0.25 * k for k in range(1, 9)]
    ExperimentSpec(policy="gp", env=FAST, sweep=(1.0, float(MAX_SWEEP_LAMBDAS), 1.0))  # at the bound


@pytest.mark.parametrize("grid", [
    (1.0, 1e300, 1.0), (1.0, 2.0, 1e-300),
    (1.0, float(MAX_SWEEP_LAMBDAS + 1), 1.0),     # one lambda too many
    (1.0, 1.0, 1.05e-16),                         # under half an ulp of 1: repeats 1.0
])
def test_sweep_grid_is_bounded(grid):
    with pytest.raises(SizeLimitError):
        ExperimentSpec(policy="gp", env=FAST, sweep=grid)


def test_monte_carlo_single_run_has_zero_spread():
    spec = ExperimentSpec(policy="gp", env=FAST, n_demands=100, runs=1)
    s = monte_carlo(spec)
    assert s.std == 0.0 and s.stderr == 0.0 and s.runs == 1


def test_monte_carlo_deterministic():
    spec = ExperimentSpec(policy="gp", env=FAST, n_demands=100, runs=3,
                          base_seed=12)
    assert monte_carlo(spec).to_dict() == monte_carlo(spec).to_dict()


def test_monte_carlo_nclp_concentration():
    spec = ExperimentSpec(policy="nclp", env=FAST, n_demands=2000, runs=10)
    s = monte_carlo(spec)
    assert 0.0 <= s.mean <= 1.0
    assert s.std < 0.05
    assert s.stderr == pytest.approx(s.std / np.sqrt(10))


def test_monte_carlo_vacuous_runs():
    spec = ExperimentSpec(policy="gp", env=FAST, n_demands=0, runs=4)
    s = monte_carlo(spec)
    assert s.vacuous_runs == 4 and s.mean == 1.0 and s.std == 0.0


def test_summary_metadata():
    spec = ExperimentSpec(policy="gp", env=FAST, n_demands=50, runs=2)
    d = monte_carlo(spec).to_dict()
    assert d["estimator"] == ESTIMATOR_NOTE
    assert d["bounds"] == applicable_bounds(FAST.v, FAST.lam, FAST.W, FAST.L)


def test_sweep_single_point_equals_monte_carlo():
    spec = ExperimentSpec(policy="gp", env=FAST, n_demands=80, runs=2,
                          sweep=(1.0, 1.0, 1.0))
    rows = sweep(spec)
    assert len(rows) == 1
    assert rows[0] == monte_carlo(
        ExperimentSpec(policy="gp", env=FAST, n_demands=80, runs=2))


def test_sweep_bounds_columns_shared_with_bounds_module():
    spec = ExperimentSpec(policy="gp", env=FAST, n_demands=60, runs=2,
                          sweep=(0.5, 1.5, 0.5))
    for row in sweep(spec):
        assert row.bounds == applicable_bounds(FAST.v, row.lam, FAST.W, FAST.L)


def test_sweep_csv_schema():
    spec = ExperimentSpec(policy="gp", env=FAST, n_demands=60, runs=2,
                          sweep=(0.5, 1.0, 0.5))
    rows = sweep(spec)
    text = sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3 and text.endswith("\n")
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_COLUMNS)
    assert float(cells[0]) == 0.5
    # fast-regime rows leave the v<1 bound columns blank
    assert cells[6] == "" and cells[7] == ""
    assert cells[4] != "" and cells[5] != ""
    # bit-identical on repeat
    assert sweep_csv(sweep(spec)) == text


def test_sweep_csv_slow_regime_columns():
    spec = ExperimentSpec(policy="tf", env=SLOW, n_demands=40, runs=2,
                          sweep=(1.0, 1.0, 1.0))
    lines = sweep_csv(sweep(spec)).splitlines()
    cells = lines[1].split(",")
    assert cells[4] == "" and cells[5] == ""
    assert cells[6] != "" and cells[7] != ""


def test_write_sweep_csv(tmp_path):
    spec = ExperimentSpec(policy="gp", env=FAST, n_demands=50, runs=2)
    rows = sweep(spec)
    path = tmp_path / "rows.csv"
    write_sweep_csv(rows, str(path))
    assert path.read_text() == sweep_csv(rows)


def test_sweep_svg_structure(tmp_path):
    spec = ExperimentSpec(policy="gp", env=FAST, n_demands=60, runs=3,
                          sweep=(0.5, 1.5, 0.5))
    rows = sweep(spec)
    svg = sweep_svg(rows, title="capture fraction")
    root = ET.fromstring(svg)                      # well-formed XML
    assert root.tag.endswith("svg")
    assert "polyline" in svg and "stroke-dasharray" in svg
    assert "capture fraction" in svg
    assert "http://" not in svg.replace("http://www.w3.org", "")
    out = tmp_path / "plot.svg"
    write_sweep_svg(rows, str(out), title="capture fraction")
    assert out.read_text() == svg


def test_sweep_svg_refuses_an_empty_row_list():
    # the axis spans the rows' lambdas, so a plot needs at least one row
    with pytest.raises(ParameterDomainError, match="row"):
        sweep_svg([])


def test_tf_sweep_smoke():
    # beyond-the-knee grid; means must not increase with lambda
    spec = ExperimentSpec(policy="tf", env=SLOW, n_demands=120, runs=2,
                          sweep=(1.0, 2.0, 1.0))
    rows = sweep(spec)
    assert len(rows) == 2
    pooled = 2.0 * (rows[0].stderr + rows[1].stderr) + 1e-12
    assert rows[1].mean <= rows[0].mean + pooled


def test_library_code_prints_nothing(capfd):
    # bench/run.py's last stdout line must be its result, and the CLI's
    # stdout its output, so sweeps and traced runs write to neither stream,
    # not even from C code
    for policy, env in (("nclp", FAST), ("lp", FAST), ("gp", FAST), ("tf", SLOW)):
        sweep(ExperimentSpec(policy=policy, env=env, n_demands=150, runs=2,
                             sweep=(0.5, 1.5, 0.5)))
    fast = generate_stream(FAST, 150, seed=1)
    slow = generate_stream(SLOW, 150, seed=1)
    for run, stream in ((run_nclp, fast), (run_lp, fast), (run_gp, fast), (run_tf, slow)):
        assert run(stream, trace=True).trace
    assert capfd.readouterr() == ("", "")
