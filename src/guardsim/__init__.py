"""Pursuit policies for guarding a strip boundary against rising demands.

A unit-speed vehicle defends the deadline y = L of the strip [0, W] x [0, L]
against demands that appear on y = 0 as a Poisson process in time and
translate upward at speed v.  The package simulates the known policies in
both speed regimes, computes the matching analytical capture-fraction
bounds, and provides a Monte-Carlo harness with CSV/SVG output.
"""

from .bounds import (BETA_TSP, applicable_bounds, causal_upper_bound, erf,
                     lp_competitive_factor, lp_lower_bound, tf_lower_bound)
from .core import (Demand, DemandStream, EnvParams, VehicleState, demand_position,
                   generate_stream, make_env, read_stream_jsonl, region_count,
                   write_stream_jsonl)
from .deadline_policies import (RunResult, TraceEvent, run_gp, run_lp, run_nclp,
                                write_trace_jsonl)
from .errors import (ContractViolationError, GraphCycleError,
                     ParameterDomainError, RegimeError, SizeLimitError)
from .harness import (CSV_COLUMNS, ESTIMATOR_NOTE, ExperimentSpec, Summary,
                      monte_carlo, sweep, sweep_csv, sweep_svg,
                      write_sweep_csv, write_sweep_svg)
from .reachability import (PathPlan, ReachGraph, build_reach_graph,
                           deadline_edge, graph_to_dict, is_reachable,
                           longest_chain_fast, longest_path)
from .tmhp import (EXACT_SOLVER_CAP, TmhpInstance, TmhpSolution, emhp_exact,
                   emhp_heuristic, g_inv, g_map, intercept_time, run_tf,
                   tmhp_solve, tour_two_opt)

__version__ = "0.1.0"

__all__ = [
    "BETA_TSP", "EXACT_SOLVER_CAP",
    "ContractViolationError", "GraphCycleError", "ParameterDomainError",
    "RegimeError", "SizeLimitError",
    "Demand", "DemandStream", "EnvParams", "VehicleState",
    "demand_position", "generate_stream", "make_env", "read_stream_jsonl",
    "region_count", "write_stream_jsonl",
    "erf", "lp_lower_bound", "lp_competitive_factor", "causal_upper_bound",
    "tf_lower_bound", "applicable_bounds",
    "PathPlan", "ReachGraph", "build_reach_graph", "deadline_edge",
    "graph_to_dict", "is_reachable", "longest_chain_fast", "longest_path",
    "RunResult", "TraceEvent", "run_nclp", "run_lp", "run_gp",
    "write_trace_jsonl",
    "TmhpInstance", "TmhpSolution", "emhp_exact", "emhp_heuristic", "g_map",
    "g_inv", "intercept_time", "run_tf", "tmhp_solve", "tour_two_opt",
    "CSV_COLUMNS", "ESTIMATOR_NOTE", "ExperimentSpec", "Summary",
    "monte_carlo", "sweep", "sweep_csv", "sweep_svg", "write_sweep_csv",
    "write_sweep_svg",
]
