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

from .errors import ParameterDomainError, RegimeError, is_number, require_positive

# Beardwood-Halton-Hammersley tour constant; empirical value, configurable.
BETA_TSP = 0.7120

_SQRT_PI = math.sqrt(math.pi)


def erf(x: float) -> float:
    """Error function (2/sqrt(pi)) * integral_0^x exp(-t^2) dt (math.erf)."""
    if not is_number(x):
        raise ParameterDomainError(f"erf requires a finite number, got {x!r}")
    return math.erf(x)


def lp_lower_bound(lam: float, W: float) -> float:
    """Guaranteed capture fraction of the longest-path policy (v >= 1 regime).

    1 / (sqrt(pi*alpha) * erf(sqrt(alpha)) + exp(-alpha)) with alpha = lam*W/2.
    Callers are responsible for the L >= v*W applicability context.
    """
    require_positive(lam=lam, W=W)
    alpha = lam * W / 2.0
    if alpha == math.inf:
        # erf(sqrt(alpha)) is 1 and exp(-alpha) is 0 long before lam*W
        # overflows, so the bound is 1/sqrt(pi*alpha), taken in factors
        return 1.0 / _SQRT_PI / (math.sqrt(lam) * math.sqrt(W / 2.0))
    root = math.sqrt(alpha)
    return 1.0 / (_SQRT_PI * root * erf(root) + math.exp(-alpha))


def lp_competitive_factor(v: float, W: float, L: float) -> float:
    """Factor c with F(LP) >= c * F(NCLP), for v >= 1: max(0, 1 - vW/L)."""
    require_positive(v=v, W=W, L=L)
    return max(0.0, 1.0 - v * W / L)


def causal_upper_bound(v: float, lam: float, W: float) -> float:
    """Upper bound min{1, 2/sqrt(v*lam*W)} on the steady-state capture
    fraction of every causal policy, v < 1.

    A whole-run fraction that includes the start-up transient can exceed it.
    """
    require_positive(v=v, lam=lam, W=W)
    if v >= 1.0:
        raise RegimeError(f"causal_upper_bound applies to v < 1, got v={v}")
    root = math.sqrt(v * lam * W)
    if root <= 2.0:          # the quotient is at least 1, also when v*lam*W underflows to 0
        return 1.0
    return 2.0 / root


def tf_lower_bound(v: float, lam: float, W: float, beta_tsp: float = BETA_TSP) -> float:
    """Steady-state fraction min{1, 1/(beta_tsp*sqrt(v*lam*W))} of the TMHP-fraction policy.

    A limit as v -> 0+ and lam -> infinity with an optimal planned path,
    beta_tsp the Beardwood-Halton-Hammersley tour constant; not a per-run
    guarantee.  Finite runs with the heuristic planner may sit below it,
    and runs that include the start-up transient may sit above it.
    """
    require_positive(v=v, lam=lam, W=W, beta_tsp=beta_tsp)
    if v >= 1.0:
        raise RegimeError(f"tf_lower_bound applies to v < 1, got v={v}")
    scale = beta_tsp * math.sqrt(v * lam * W)
    if scale <= 1.0:         # the quotient is at least 1, also when the product underflows to 0
        return 1.0
    return 1.0 / scale


def applicable_bounds(v: float, lam: float, W: float, L: float) -> dict[str, float]:
    """All bounds that apply in the regime of v, keyed by name."""
    require_positive(v=v, lam=lam, W=W, L=L)
    if v >= 1.0:
        return {
            "lp_lower_bound": lp_lower_bound(lam, W),
            "lp_competitive_factor": lp_competitive_factor(v, W, L),
        }
    return {
        "causal_upper_bound": causal_upper_bound(v, lam, W),
        "tf_lower_bound": tf_lower_bound(v, lam, W),
    }
