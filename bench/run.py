#!/usr/bin/env python3
"""guardsim benchmark: one workload, in this process, for a fixed time.

    python3 bench/run.py --workload tf_dense --seed 0 --seconds 55 --trace 0

The workload's input is fixed by --seed.  It goes through the public
library API (ExperimentSpec -> harness.sweep -> harness.monte_carlo), the
way `guardsim simulate/sweep` does, and is repeated while the next repeat
is expected to end within --seconds, as predicted by the fastest repeat so
far.  The first two repeats always run, so that every cell has two samples
(the first pair of repeats, when traced).  Every repeat's outputs are checked.  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"};
the line before it is a JSON context (machine, per-repeat times, check
failures, fail_frac, absent metrics).

--trace 0 reports the end-to-end metrics, measured with tracing off.  Its
timings are in reference seconds: wall seconds scaled by the host's speed
during the run, which the set-up probes measure (see scale()).  The wall
figures are in the context line.
--trace 1 alternates untraced and traced repeats of the same input and
reports the per-layer metrics of bench/spans.py, plus trace.overhead_s.

guardsim is imported from src/ next to this directory, never from an
installed copy; without it the script exits with code 2 and prints no
result.  Why each workload exists is in bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import compare
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 21
# Timings are scaled to a host on which a fresh process imports numpy in
# REF_IMPORT_S; see scale() and bench/README.md.
REF_IMPORT_S = 0.05

# One repeat = every spec below, each through harness.sweep.  Stream seeds are
# base_seed .. base_seed + runs - 1 with base_seed = seed * runs, so distinct
# workload seeds never share a stream.
WORKLOADS = {
    "tf_dense": {"policies": ("tf",), "n_demands": 20000, "runs": 2, "sweep": None,
                 "env": {"W": 100.0, "L": 200.0, "v": 0.05, "lam": 1.6}},
    "tf_light": {"policies": ("tf",), "n_demands": 2000, "runs": 4, "sweep": None,
                 "env": {"W": 100.0, "L": 200.0, "v": 0.05, "lam": 0.12}},
    "deadline_sweep": {"policies": ("nclp", "lp", "gp"), "n_demands": 2000, "runs": 2,
                       "sweep": (0.25, 2.0, 0.25),
                       "env": {"W": 120.0, "L": 500.0, "v": 2.0, "lam": 0.25}},
}

END_TO_END = (   # (metric, unit); directions and bounds are in BENCHMARK.json
    ("demands_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("capture_fraction", "fraction"),
)


def load_guardsim():
    """Import guardsim from ROOT/src; raise ImportError if it is not there."""
    src = ROOT / "src"
    if not (src / "guardsim" / "__init__.py").is_file():
        raise ImportError(f"no guardsim package under {src}")
    sys.path.insert(0, str(src))
    import guardsim
    if Path(guardsim.__file__).resolve().parent != src / "guardsim":
        raise ImportError(f"imported guardsim from {guardsim.__file__}, not {src}")
    return guardsim


def build_specs(gs, workload: str, seed: int, runs: int | None = None) -> list:
    w = WORKLOADS[workload]
    runs = w["runs"] if runs is None else runs
    env = gs.make_env(**w["env"])
    return [gs.ExperimentSpec(policy=p, env=env, n_demands=w["n_demands"], runs=runs,
                              base_seed=seed * runs, sweep=w["sweep"])
            for p in w["policies"]]


def run_repeat(gs, specs, traced: bool):
    """(wall seconds, {policy: [Summary per lambda]}, Recorder) of one repeat."""
    with spans.Recorder(gs, traced) as rec:
        t0 = time.perf_counter()
        rows = {spec.policy: gs.harness.sweep(spec) for spec in specs}
        wall = time.perf_counter() - t0
    return wall, rows, rec


def check_repeat(workload: str, specs, rows, rec) -> list[str]:
    """Output checks of one repeat; returns the failures."""
    fails = []
    if rec.tapped:
        expected = sum(len(s.lambdas()) * s.runs for s in specs)
        if len(rec.runs) != expected:
            fails.append(f"saw {len(rec.runs)} policy runs, expected {expected}")
        for n, capt, esc in rec.runs:
            if capt + esc != n:
                fails.append(f"conservation: {capt} captures + {esc} escapes != {n}")
    if workload == "tf_dense":
        # every stream's TF fraction, and their mean, lies between the bounds
        (row,) = rows["tf"]
        lo, hi = row.bounds["tf_lower_bound"], row.bounds["causal_upper_bound"]
        for frac in [capt / n for n, capt, _ in rec.runs] + [row.mean]:
            if not lo <= frac <= hi:
                fails.append(f"tf capture fraction {frac} outside [{lo}, {hi}]")
    if workload == "deadline_sweep":
        # on shared streams NCLP captures at least as many as LP and GP
        for nclp, lp, gp in zip(rows["nclp"], rows["lp"], rows["gp"]):
            if nclp.mean < lp.mean or nclp.mean < gp.mean:
                fails.append(f"lam={nclp.lam}: nclp {nclp.mean} < lp {lp.mean} "
                             f"or gp {gp.mean}")
    return fails


def means(rows) -> dict:
    return {policy: [r.mean for r in rs] for policy, rs in rows.items()}


def reference_means(gs) -> dict:
    """deadline_sweep at seed 0 with one replicate per cell."""
    _, rows, _ = run_repeat(gs, build_specs(gs, "deadline_sweep", 0, runs=1), False)
    return means(rows)


def probe_setup(workload: str) -> tuple[float, float]:
    """(seconds to import numpy, seconds to import numpy and guardsim and
    build the specs), both in one fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--probe-setup"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    numpy_s, setup_s = map(float, out.stdout.split()[-2:])
    return numpy_s, setup_s


def scale(probes) -> float:
    """Factor that takes this run's wall seconds to reference seconds.

    On a shared 2-vCPU host, other tenants slowed runs by about 2x for
    minutes at a time, longer than a run, and the slowdown hit the
    fresh-process numpy import of the set-up probes too.  That import runs
    no guardsim code, so its fastest time in the run measures the host's
    speed during the run.
    """
    return REF_IMPORT_S / min(numpy_s for numpy_s, _ in probes)


def machine() -> dict:
    import numpy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "cpu": model, "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 1024   # bytes vs KiB


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=compare.load_benchmark()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="record bench/reference.json from this checkout and exit")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:          # before numpy is imported, here and in probes
        os.environ[var] = "1"
    if args.probe_setup:
        t0 = time.perf_counter()
        import numpy  # noqa: F401
        t1 = time.perf_counter()
        gs = load_guardsim()
        build_specs(gs, args.workload, args.seed)
        print(t1 - t0, time.perf_counter() - t0)
        return 0
    try:
        gs = load_guardsim()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_reference:
        REFERENCE.write_text(json.dumps({"deadline_sweep": reference_means(gs)},
                                        indent=1) + "\n", encoding="utf-8")
        return 0

    specs = build_specs(gs, args.workload, args.seed)
    demands = sum(len(s.lambdas()) * s.runs * s.n_demands for s in specs)
    attempted = failed = 0
    failures: list[str] = []
    first_means = None
    walls, cells, overheads, layer_runs, absent, missing, span_log = [], [], [], [], [], [], []

    def attempt(traced: bool):
        """One checked repeat; (wall, rows, Recorder), or None if it raised."""
        nonlocal attempted, failed, first_means
        attempted += 1
        try:
            wall, rows, rec = run_repeat(gs, specs, traced)
        except Exception:            # a failed repeat is counted, not fatal
            failed += 1
            failures.append(traceback.format_exc(limit=3))
            return None
        fails = check_repeat(args.workload, specs, rows, rec)
        if first_means is None:
            first_means = means(rows)
        elif means(rows) != first_means:
            fails.append("a repeat of the same input gave other means")
        if fails:
            failed += 1
            failures.extend(fails)
        return wall, rows, rec

    # The machine's speed can drift for seconds to minutes at a time, so the
    # set-up probes are spread over the run rather than taken in one burst.
    setups = []
    t_start = time.perf_counter()
    k, step, min_steps = 0, 0.0, 1 if args.trace else 2
    while k < min_steps or time.perf_counter() - t_start + step <= args.seconds:
        t_step = time.perf_counter()
        if not args.trace:
            done = attempt(False)
            if done:
                wall, _rows, rec = done
                walls.append(wall)
                # one cell per policy run, in call order, plus the rest of
                # the repeat (stream generation, harness, bounds)
                cells.append(rec.run_s + [wall - sum(rec.run_s)])
            due = (time.perf_counter() - t_start) / args.seconds * SETUP_PROBES
            while len(setups) < min(due + 1, SETUP_PROBES):
                setups.append(probe_setup(args.workload))
        else:
            # alternate which side of the pair runs first
            pair = [attempt(k % 2 == 1), attempt(k % 2 == 0)]
            untraced, traced = pair if k % 2 == 0 else pair[::-1]
            if untraced and traced:
                walls.append(untraced[0])
                overheads.append(traced[0] - untraced[0])
                values, absent = spans.layer_metrics(traced[2])
                missing = traced[2].missing
                layer_runs.append(values)
                span_log.append(traced[2].spans)
        step = time.perf_counter() - t_step
        if walls and not args.trace:
            # the probes after a repeat are short, so the fastest repeat so
            # far predicts the next step; a slow one must not end the run
            step = min(walls)
        k += 1

    if args.workload == "deadline_sweep":
        attempted += 1
        try:
            expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["deadline_sweep"]
            got = reference_means(gs)
            if got != expected:
                failed += 1
                failures.append(f"reference sweep means {got} != recorded {expected}")
        except Exception:
            failed += 1
            failures.append(traceback.format_exc(limit=3))

    while setups and len(setups) < SETUP_PROBES:
        setups.append(probe_setup(args.workload))
    metrics, wall_values, factor, fastest = {}, {}, None, []
    if walls and not args.trace:
        cf = [m for ms in first_means.values() for m in ms]
        # Interference from other tenants only ever adds time.  So each cell
        # of the repeated input and each set-up probe counts at its fastest:
        # every cell gets its own chance to land in a fast period.  What is
        # left, a slowdown that lasts the whole run, scale() takes out.
        fastest = [min(c[i] for c in cells) for i in range(len(cells[0]))]
        factor = scale(setups)
        wall_values = {"demands_per_s": demands / sum(fastest),
                       "setup_s": min(s for _, s in setups)}
        values = {"demands_per_s": wall_values["demands_per_s"] / factor,
                  "setup_s": wall_values["setup_s"] * factor, "peak_rss_mb": peak_rss_mb(),
                  "capture_fraction": statistics.fmean(cf)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    elif layer_runs:
        for metric, unit, _better, _span, _stat in spans.PER_LAYER:
            if metric in layer_runs[0]:
                metrics[metric] = {"value": statistics.median(r[metric] for r in layer_runs),
                                   "unit": unit}
        name, unit, _better = spans.OVERHEAD
        metrics[name] = {"value": statistics.median(overheads), "unit": unit}
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans_{args.workload}_{args.seed}.jsonl"
        with open(span_file, "w", encoding="utf-8") as fh:
            for repeat, log in enumerate(span_log):
                for name, start, end, parent, info in log:
                    fh.write(json.dumps({"repeat": repeat, "name": name, "start": start,
                                         "end": end, "parent": parent, **info}) + "\n")

    for msg in failures:
        print(msg, file=sys.stderr)
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine(), "demands_per_repeat": demands,
               "repeat_wall_s": walls, "setup_samples_s": setups,
               "cell_fastest_s": fastest, "wall_metrics": wall_values, "scale": factor, "fail_frac": failed / attempted,
               "failures": failures, "absent_metrics": absent, "missing_names": missing}
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
