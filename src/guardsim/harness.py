"""Monte-Carlo experiment engine: replicated runs, lambda sweeps, outputs.

Per-run capture fractions are exact (runs go to quiescence); their mean
estimates the long-run expected fraction.  Replicate k draws its stream
with seed base_seed + k, so results are deterministic per spec.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import count, takewhile

import numpy as np

from . import bounds as _bounds
from .core import EnvParams, generate_stream, make_env
from .deadline_policies import run_gp, run_lp, run_nclp
from .errors import ParameterDomainError, RegimeError, SizeLimitError, is_count, is_number
from .tmhp import run_tf

POLICIES = ("nclp", "lp", "gp", "tf")

ESTIMATOR_NOTE = "mean of per-run capture fractions (runs simulated to quiescence)"

MAX_SWEEP_LAMBDAS = 10_000     # each lambda runs every replicate; far past any real sweep
_SWEEP_END = 1 + 1e-12         # a grid keeps an end point that overshoots hi by rounding


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a policy, an environment, and replication controls."""

    policy: str
    env: EnvParams
    eta: float = 1.0
    n_demands: int = 2000
    runs: int = 10
    base_seed: int = 0
    sweep: tuple[float, float, float] | None = None   # (lam_min, lam_max, step)

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ParameterDomainError(
                f"policy must be one of {POLICIES}, got {self.policy!r}")
        if not isinstance(self.env, EnvParams):
            raise ParameterDomainError(f"env must be an EnvParams, got {self.env!r}")
        if not is_count(self.runs) or self.runs < 1:
            raise ParameterDomainError(f"runs must be a positive int, got {self.runs!r}")
        if not is_count(self.n_demands):
            raise ParameterDomainError(
                f"n_demands must be a non-negative int, got {self.n_demands!r}")
        if not is_count(self.base_seed):
            raise ParameterDomainError(
                f"base_seed must be a non-negative int, got {self.base_seed!r}")
        if not is_number(self.eta) or not 0.0 < self.eta <= 1.0:
            raise ParameterDomainError(f"eta must be a number in (0, 1], got {self.eta!r}")
        if self.policy == "tf" and self.env.v >= 1.0:
            raise RegimeError("the tf policy needs v < 1")
        if self.policy in ("nclp", "lp", "gp") and self.env.v < 1.0:
            raise RegimeError(f"the {self.policy} policy needs v >= 1")
        if self.sweep is not None:
            if not (isinstance(self.sweep, (tuple, list)) and len(self.sweep) == 3
                    and all(map(is_number, self.sweep))):
                raise ParameterDomainError(
                    f"sweep must be three finite numbers (lam_min, lam_max, step), "
                    f"got {self.sweep!r}")
            lo, hi, step = self.sweep
            if not (lo > 0 and hi >= lo and step > 0):
                raise ParameterDomainError(f"bad sweep grid {self.sweep!r}")
            # lambdas() stops past hi * _SWEEP_END; count its points without building it
            if not lo + step > lo or (hi * _SWEEP_END - lo) / step >= MAX_SWEEP_LAMBDAS:
                raise SizeLimitError(
                    f"sweep grid {self.sweep!r} has over {MAX_SWEEP_LAMBDAS} lambdas "
                    f"or a step too small to advance {lo!r}")

    def lambdas(self) -> list[float]:
        if self.sweep is None:
            return [self.env.lam]
        lo, hi, step = self.sweep
        return list(takewhile(lambda lam: lam <= hi * _SWEEP_END,
                              (lo + k * step for k in count())))


@dataclass
class Summary:
    """Aggregate of one policy at one lambda."""

    policy: str
    lam: float
    mean: float
    std: float
    stderr: float
    runs: int
    vacuous_runs: int
    bounds: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["estimator"] = ESTIMATOR_NOTE
        return d


def _run_policy(spec: ExperimentSpec, stream, trace: bool = False):
    """One run of spec's policy on stream; the CLI's --trace run too."""
    if spec.policy == "nclp":
        return run_nclp(stream, trace=trace)
    if spec.policy == "lp":
        return run_lp(stream, eta=spec.eta, trace=trace)
    if spec.policy == "gp":
        return run_gp(stream, trace=trace)
    return run_tf(stream, trace=trace)


def _require_spec(spec) -> None:
    if not isinstance(spec, ExperimentSpec):
        raise ParameterDomainError(f"expected an ExperimentSpec, got {spec!r}")


def monte_carlo(spec: ExperimentSpec) -> Summary:
    """Replicated runs at spec.env.lam; deterministic in spec."""
    _require_spec(spec)
    env = spec.env
    fractions = []
    vacuous = 0
    for k in range(spec.runs):
        stream = generate_stream(env, spec.n_demands, spec.base_seed + k)
        res = _run_policy(spec, stream)
        if res.vacuous:
            vacuous += 1
        fractions.append(res.capture_fraction)
    arr = np.asarray(fractions)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if spec.runs > 1 else 0.0
    stderr = std / math.sqrt(spec.runs)
    return Summary(
        policy=spec.policy,
        lam=env.lam,
        mean=mean,
        std=std,
        stderr=stderr,
        runs=spec.runs,
        vacuous_runs=vacuous,
        bounds=_bounds.applicable_bounds(env.v, env.lam, env.W, env.L),
    )


def sweep(spec: ExperimentSpec) -> list[Summary]:
    """One Summary per lambda on the experiment's grid (or its single lambda)."""
    _require_spec(spec)
    rows = []
    for lam in spec.lambdas():
        env = make_env(W=spec.env.W, L=spec.env.L, v=spec.env.v, lam=lam)
        rows.append(monte_carlo(dataclasses.replace(spec, env=env)))
    return rows


# ---------------------------------------------------------------------------
# outputs

CSV_COLUMNS = ("lambda", "mean", "std", "stderr", "lp_lower_bound",
               "lp_competitive_factor", "causal_upper_bound", "tf_lower_bound")


def _require_rows(rows) -> list[Summary]:
    """rows as a list; ParameterDomainError unless an iterable of Summary."""
    rows = None if isinstance(rows, (str, bytes)) or not hasattr(rows, "__iter__") else list(rows)
    if rows is None or not all(isinstance(r, Summary) for r in rows):
        raise ParameterDomainError("rows must be an iterable of Summary records")
    return rows


def sweep_csv(rows: list[Summary]) -> str:
    """Fixed-schema CSV; bound columns are blank where not applicable."""
    lines = [",".join(CSV_COLUMNS)]
    for r in _require_rows(rows):
        cells = [str(float(r.lam)), str(float(r.mean)), str(float(r.std)),
                 str(float(r.stderr))]
        for name in CSV_COLUMNS[4:]:
            val = r.bounds.get(name)
            cells.append("" if val is None else str(float(val)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows: list[Summary], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(sweep_csv(rows))


def sweep_svg(rows: list[Summary], title: str = "") -> str:
    """Minimal plot: mean capture fraction vs lambda with +-std error bars
    and dashed curves for the applicable analytical bounds."""
    rows = _require_rows(rows)
    if not rows:
        raise ParameterDomainError("sweep_svg needs at least one row")
    W_px, H_px, m = 640, 420, 56
    lams = [r.lam for r in rows]
    lo, hi = min(lams), max(lams)
    span = (hi - lo) or 1.0

    def px(lam):
        return m + (W_px - 2 * m) * (lam - lo) / span

    def py(frac):
        frac = min(max(frac, 0.0), 1.0)
        return H_px - m - (H_px - 2 * m) * frac

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W_px}" height="{H_px}" '
        f'viewBox="0 0 {W_px} {H_px}">',
        f'<rect width="{W_px}" height="{H_px}" fill="white"/>',
        f'<line x1="{m}" y1="{H_px - m}" x2="{W_px - m}" y2="{H_px - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{H_px - m}" stroke="black"/>',
        f'<text x="{W_px / 2:.0f}" y="{H_px - 12}" text-anchor="middle" '
        f'font-size="13">arrival rate</text>',
        f'<text x="16" y="{H_px / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {H_px / 2:.0f})">capture fraction</text>',
    ]
    if title:
        parts.append(f'<text x="{W_px / 2:.0f}" y="24" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<text x="{m - 8}" y="{py(frac) + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{frac:g}</text>')
    for lam in lams:
        parts.append(f'<text x="{px(lam):.1f}" y="{H_px - m + 16}" '
                     f'text-anchor="middle" font-size="11">{lam:g}</text>')

    colors = {"lp_lower_bound": "#2a9d2a", "lp_competitive_factor": "#888888",
              "causal_upper_bound": "#c0392b", "tf_lower_bound": "#2a9d2a"}
    for name, color in colors.items():
        if all(name in r.bounds for r in rows):
            pts = " ".join(f"{px(r.lam):.1f},{py(r.bounds[name]):.1f}" for r in rows)
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-dasharray="5,4" stroke-width="1.2"/>')
    for r in rows:
        x = px(r.lam)
        parts.append(f'<line x1="{x:.1f}" y1="{py(r.mean - r.std):.1f}" '
                     f'x2="{x:.1f}" y2="{py(r.mean + r.std):.1f}" '
                     f'stroke="#1f4e99" stroke-width="1"/>')
    pts = " ".join(f"{px(r.lam):.1f},{py(r.mean):.1f}" for r in rows)
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f4e99" '
                 f'stroke-width="1.6"/>')
    for r in rows:
        parts.append(f'<circle cx="{px(r.lam):.1f}" cy="{py(r.mean):.1f}" r="3" '
                     f'fill="#1f4e99"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_sweep_svg(rows: list[Summary], path: str, title: str = "") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(sweep_svg(rows, title=title))
