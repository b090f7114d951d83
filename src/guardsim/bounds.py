"""Closed-form capture-fraction bounds and the error function they need.

All bounds are dimensionless fractions in [0, 1].  The slow-demand
(v < 1) bounds depend on the arrival load only through the product
v*lam*W, and not on L; the v >= 1 lower bound depends on alpha = lam*W/2.

The v < 1 bounds speak of the steady-state (long-run) capture fraction in
the limit of low v and high lam.  A finite run simulated to quiescence
includes its start-up transient and its drain, and its whole-run fraction
can exceed both: a short burst of arrivals is often captured in full.
"""
from __future__ import annotations

import math
import sys

from .errors import ParameterDomainError, RegimeError

# Beardwood-Halton-Hammersley tour constant; empirical value, configurable.
BETA_TSP = 0.7120

_SQRT_PI = math.sqrt(math.pi)


def erf(x: float) -> float:
    """Error function (2/sqrt(pi)) * integral_0^x exp(-t^2) dt (math.erf)."""
    if not abs(x) <= sys.float_info.max:      # also an int too large for a float
        raise ParameterDomainError(f"erf requires finite x, got {x!r}")
    return math.erf(x)


def _require_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not 0 < value <= sys.float_info.max:
            raise ParameterDomainError(f"{name} must be positive and finite, got {value!r}")


def lp_lower_bound(lam: float, W: float) -> float:
    """Guaranteed capture fraction of the longest-path policy (v >= 1 regime).

    1 / (sqrt(pi*alpha) * erf(sqrt(alpha)) + exp(-alpha)) with alpha = lam*W/2.
    Callers are responsible for the L >= v*W applicability context.
    """
    _require_positive(lam=lam, W=W)
    alpha = lam * W / 2.0
    root = math.sqrt(alpha)
    return 1.0 / (_SQRT_PI * root * erf(root) + math.exp(-alpha))


def lp_competitive_factor(v: float, W: float, L: float) -> float:
    """Factor c with F(LP) >= c * F(NCLP), for v >= 1: max(0, 1 - vW/L)."""
    _require_positive(v=v, W=W, L=L)
    return max(0.0, 1.0 - v * W / L)


def causal_upper_bound(v: float, lam: float, W: float) -> float:
    """Upper bound min{1, 2/sqrt(v*lam*W)} on the steady-state capture
    fraction of every causal policy, v < 1.

    A whole-run fraction that includes the start-up transient can exceed it.
    """
    _require_positive(v=v, lam=lam, W=W)
    if v >= 1.0:
        raise RegimeError(f"causal_upper_bound applies to v < 1, got v={v}")
    return min(1.0, 2.0 / math.sqrt(v * lam * W))


def tf_lower_bound(v: float, lam: float, W: float, beta_tsp: float = BETA_TSP) -> float:
    """Steady-state fraction min{1, 1/(beta_tsp*sqrt(v*lam*W))} of the TMHP-fraction policy.

    A limit as v -> 0+ and lam -> infinity with an optimal planned path,
    beta_tsp the Beardwood-Halton-Hammersley tour constant; not a per-run
    guarantee.  Finite runs with the heuristic planner may sit below it,
    and runs that include the start-up transient may sit above it.
    """
    _require_positive(v=v, lam=lam, W=W, beta_tsp=beta_tsp)
    if v >= 1.0:
        raise RegimeError(f"tf_lower_bound applies to v < 1, got v={v}")
    return min(1.0, 1.0 / (beta_tsp * math.sqrt(v * lam * W)))


def applicable_bounds(v: float, lam: float, W: float, L: float) -> dict[str, float]:
    """All bounds that apply in the regime of v, keyed by name."""
    _require_positive(v=v, lam=lam, W=W, L=L)
    if v >= 1.0:
        return {
            "lp_lower_bound": lp_lower_bound(lam, W),
            "lp_competitive_factor": lp_competitive_factor(v, W, L),
        }
    return {
        "causal_upper_bound": causal_upper_bound(v, lam, W),
        "tf_lower_bound": tf_lower_bound(v, lam, W),
    }
