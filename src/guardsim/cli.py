"""Command-line interface.

Subcommands: simulate, sweep, bounds, graph, tmhp-solve, gen-stream.
Experiment specs can come from flags or a JSON file; every random quantity
is controlled by an explicit seed.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bounds_mod
from .core import VehicleState, generate_stream, make_env, read_json, read_stream_jsonl, \
    write_stream_jsonl
from .deadline_policies import write_trace_jsonl
from .harness import POLICIES, ExperimentSpec, _run_policy, monte_carlo, sweep, \
    write_sweep_csv, write_sweep_svg
from .reachability import build_reach_graph, graph_to_dict
from .tmhp import TmhpInstance, tmhp_solve


def _add_env_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--W", type=float, default=120.0, help="strip width")
    p.add_argument("--L", type=float, default=500.0, help="deadline height")
    p.add_argument("--v", type=float, default=2.0, help="demand speed")
    p.add_argument("--lam", type=float, default=1.0, help="arrival rate")


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", choices=POLICIES, default="lp")
    _add_env_args(p)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--n-demands", type=int, default=2000, dest="n_demands")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spec", help="JSON spec file overriding the flags")


def _print_json(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _spec_from_args(args) -> ExperimentSpec:
    if getattr(args, "spec", None):
        return read_json(args.spec, lambda r: ExperimentSpec(
            **{**r, "env": make_env(**r["env"])}))
    env = make_env(W=args.W, L=args.L, v=args.v, lam=args.lam)
    swp = None
    if getattr(args, "lam_min", None) is not None:
        swp = (args.lam_min, args.lam_max, args.lam_step)
    return ExperimentSpec(policy=args.policy, env=env, eta=args.eta,
                          n_demands=args.n_demands, runs=args.runs,
                          base_seed=args.seed, sweep=swp)


def _cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    if args.trace:
        stream = generate_stream(spec.env, spec.n_demands, spec.base_seed)
        write_trace_jsonl(_run_policy(spec, stream, trace=True), args.trace)
    _print_json(monte_carlo(spec).to_dict())
    return 0


def _cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    rows = sweep(spec)
    write_sweep_csv(rows, args.csv)
    if args.svg:
        title = f"{spec.policy} policy, W={spec.env.W:g} L={spec.env.L:g} v={spec.env.v:g}"
        write_sweep_svg(rows, args.svg, title=title)
    return 0


def _cmd_bounds(args) -> int:
    _print_json(bounds_mod.applicable_bounds(args.v, args.lam, args.W, args.L))
    return 0


def _cmd_graph(args) -> int:
    stream = read_stream_jsonl(args.stream)
    env = stream.env
    x0 = env.W / 2.0 if args.start_x is None else args.start_x
    vehicle = VehicleState(x=x0, y=env.L, t=args.t0)
    graph = build_reach_graph(vehicle, list(stream), env.v, env.L)
    _print_json(graph_to_dict(graph))
    return 0


def _cmd_tmhp_solve(args) -> int:
    sol = tmhp_solve(read_json(args.instance, lambda r: TmhpInstance(**r)))
    _print_json({"order": list(sol.order), "duration": sol.duration,
                 "emhp_length": sol.emhp_length})
    return 0


def _cmd_gen_stream(args) -> int:
    env = make_env(W=args.W, L=args.L, v=args.v, lam=args.lam)
    stream = generate_stream(env, args.n_demands, args.seed)
    write_stream_jsonl(stream, args.out or sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="guardsim",
                                 description="Boundary-guarding policy simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="replicated runs of one policy")
    _add_spec_args(p)
    p.add_argument("--trace", help="write a JSONL event trace of the first run")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="lambda sweep to CSV (and optional SVG)")
    _add_spec_args(p)
    p.add_argument("--lam-min", type=float, dest="lam_min")
    p.add_argument("--lam-max", type=float, dest="lam_max")
    p.add_argument("--lam-step", type=float, dest="lam_step")
    p.add_argument("--csv", required=True, help="output CSV path")
    p.add_argument("--svg", help="optional output SVG plot path")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("bounds", help="print applicable analytical bounds")
    _add_env_args(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("graph", help="dump the reachability graph of a stream")
    p.add_argument("--stream", required=True, help="stream JSONL path")
    p.add_argument("--start-x", type=float, default=None, dest="start_x")
    p.add_argument("--t0", type=float, default=0.0)
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("tmhp-solve", help="solve one moving-target path instance")
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.set_defaults(fn=_cmd_tmhp_solve)

    p = sub.add_parser("gen-stream", help="generate a demand stream JSONL")
    _add_env_args(p)
    p.add_argument("--n-demands", type=int, default=100, dest="n_demands")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=_cmd_gen_stream)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
