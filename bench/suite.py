#!/usr/bin/env python3
"""Run bench/run.py over workloads and seeds and save one result set.

    python3 bench/suite.py --seeds 0-9 --out bench/results/mine.json
    python3 bench/suite.py --seeds 0,1 --trace 1 --out bench/results/mine_trace.json

Each (workload, seed) runs in its own fresh process, so peak_rss_mb belongs
to that workload alone; seeds are the outer loop, so slow drift of the
machine spreads over every workload alike.  The set is rewritten after each
run.  At the end a table gives, per (workload, metric), the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json.  Compare two sets with bench/compare.py.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare
from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "context": json.loads(lines[-2])["context"], "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5-7")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=float, default=compare.load_benchmark()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    result_set = {"seconds": args.seconds, "runs": []}
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            run = run_one(workload, seed, args.seconds, args.trace)
            result_set["runs"].append(run)
            res = run["result"]
            print(f"{workload} seed={seed} trace={args.trace} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
            Path(args.out).write_text(json.dumps(result_set, indent=1) + "\n",
                                      encoding="utf-8")
    compare.print_spreads(result_set)
    return 0


if __name__ == "__main__":
    sys.exit(main())
