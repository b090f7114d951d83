"""Error function accuracy and the analytical capture-fraction bounds."""
import math

import numpy as np
import pytest

from guardsim import (
    BETA_TSP,
    ParameterDomainError,
    RegimeError,
    applicable_bounds,
    causal_upper_bound,
    erf,
    lp_competitive_factor,
    lp_lower_bound,
    tf_lower_bound,
)

from ._oracles import erf_exact_rational


def test_erf_trivial_values():
    assert erf(0.0) == 0.0
    for x in (0.2, 0.9, 1.7, 3.3, 5.0):
        assert erf(-x) == -erf(x)
    assert abs(erf(6.0) - 1.0) < 1e-12
    assert abs(erf(-6.0) + 1.0) < 1e-12


def test_erf_frozen_point():
    # rational-arithmetic Taylor oracle gives 0.8427007929497149 at x=1
    assert abs(erf(1.0) - 0.8427007929) <= 1e-10


def test_erf_against_series_oracle_grid():
    # both branches: series for |x| <= 3, continued fraction beyond
    for k in range(-30, 31):
        x = 0.1 * k
        assert abs(erf(x) - erf_exact_rational(x)) <= 1e-10
    for x in (3.5, 4.1, 5.0):
        assert abs(erf(x) - erf_exact_rational(x, terms=300)) <= 1e-10


def test_erf_monotone_and_bounded():
    # strictly increasing until double precision saturates near |x| ~ 6
    xs = np.linspace(-5, 5, 201)
    ys = [erf(float(x)) for x in xs]
    assert all(a < b for a, b in zip(ys, ys[1:]))
    wide = [erf(float(x)) for x in np.linspace(-8, 8, 161)]
    assert all(a <= b for a, b in zip(wide, wide[1:]))
    assert all(-1.0 <= y <= 1.0 for y in wide)


def test_erf_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterDomainError):
            erf(bad)


def test_lp_lower_bound_examples():
    # alpha -> 0 limit is 1/(0 + 1)
    assert abs(lp_lower_bound(1e-12, 1.0) - 1.0) < 1e-5
    # alpha = 1: 1/(sqrt(pi)*erf(1) + exp(-1)), recomputed via the oracle
    expect = 1.0 / (math.sqrt(math.pi) * erf_exact_rational(1.0) + math.exp(-1.0))
    assert abs(expect - 0.5372) < 5e-5
    assert abs(lp_lower_bound(2.0, 1.0) - expect) < 1e-12


def test_lp_lower_bound_strictly_decreasing():
    # sampled alpha grid, step 0.01 over (0, 100]
    alphas = np.arange(0.01, 100.0 + 1e-9, 0.01)
    vals = [lp_lower_bound(2.0 * a, 1.0) for a in alphas]  # W=1 so alpha=lam/2
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)


def test_lp_lower_bound_rejects_bad_parameters():
    for lam, W in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)):
        with pytest.raises(ParameterDomainError):
            lp_lower_bound(lam, W)


def test_bounds_reject_non_numbers():
    for bad in ("a", None, True, (1.0,)):
        with pytest.raises(ParameterDomainError):
            applicable_bounds(bad, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterDomainError):
            lp_lower_bound(1.0, bad)
        with pytest.raises(ParameterDomainError):
            tf_lower_bound(0.5, 1.0, 1.0, beta_tsp=bad)


def test_lp_competitive_factor():
    assert lp_competitive_factor(2.0, 120.0, 500.0) == pytest.approx(0.52, abs=1e-12)
    assert lp_competitive_factor(1.0, 10.0, 10.0) == 0.0          # L = vW boundary
    assert lp_competitive_factor(4.0, 10.0, 5.0) == 0.0           # clamped at 0
    assert lp_competitive_factor(1.0, 10.0, 1e9) == pytest.approx(1.0, abs=1e-7)


def test_causal_upper_bound():
    assert causal_upper_bound(0.4, 1.0, 10.0) == 1.0              # vlamW = 4 knee
    assert causal_upper_bound(0.4, 4.0, 10.0) == pytest.approx(0.5, abs=1e-15)
    vals = [causal_upper_bound(0.5, lam, 10.0) for lam in np.arange(1.0, 20.0, 0.5)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(RegimeError):
        causal_upper_bound(1.0, 1.0, 10.0)


def test_tf_lower_bound():
    # saturated when vlamW <= 1/beta^2
    assert tf_lower_bound(0.01, 1.0, 10.0) == 1.0
    assert tf_lower_bound(0.05, 20.0, 10.0) == pytest.approx(0.4441, abs=5e-5)
    assert tf_lower_bound(0.05, 20.0, 10.0) == pytest.approx(
        1.0 / (BETA_TSP * math.sqrt(10.0)), abs=1e-15)
    with pytest.raises(RegimeError):
        tf_lower_bound(1.5, 1.0, 10.0)


def test_bound_ratio_where_unsaturated():
    # causal_upper / tf_lower = 2 * beta wherever neither min saturates
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = float(rng.uniform(0.01, 0.99))
        W = float(rng.uniform(1.0, 50.0))
        lam = float((4.0 + rng.uniform(1.0, 50.0)) / (v * W))  # vlamW > 4
        ratio = causal_upper_bound(v, lam, W) / tf_lower_bound(v, lam, W)
        assert abs(ratio - 2.0 * BETA_TSP) <= 1e-12


def test_bounds_lie_in_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(300):
        v = float(rng.uniform(0.01, 0.99))
        W = float(rng.uniform(0.5, 100.0))
        lam = float(rng.uniform(0.01, 20.0))
        L = float(rng.uniform(0.5, 1000.0))
        for val in (lp_lower_bound(lam, W), lp_competitive_factor(v, W, L),
                    causal_upper_bound(v, lam, W), tf_lower_bound(v, lam, W)):
            assert 0.0 <= val <= 1.0
        assert tf_lower_bound(v, lam, W) <= causal_upper_bound(v, lam, W) + 1e-15


def test_applicable_bounds_by_regime():
    fast = applicable_bounds(2.0, 1.0, 120.0, 500.0)
    assert set(fast) == {"lp_lower_bound", "lp_competitive_factor"}
    assert fast["lp_lower_bound"] == lp_lower_bound(1.0, 120.0)
    slow = applicable_bounds(0.05, 2.0, 100.0, 200.0)
    assert set(slow) == {"causal_upper_bound", "tf_lower_bound"}
    assert slow["tf_lower_bound"] == tf_lower_bound(0.05, 2.0, 100.0)
