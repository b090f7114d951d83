#!/usr/bin/env python3
"""Compare two result sets written by bench/suite.py.

    python3 bench/compare.py bench/results/baseline.json bench/results/mine.json

For every (workload, metric) present in both sets it prints each side's
median and quartiles, the pairs (same workload and seed) the second set
wins, and a verdict:

- improved: the second set wins at least 9 of 10 pairs, ties counting for
  neither, and the medians differ by more than the first set's q3 - q1;
- worse: the second median is worse than the first by more than the bound
  (for per-layer metrics, which have no bound: the first set wins the pairs
  as "improved" would need);
- unresolved: it would be "unchanged", but the first set's spread,
  (q3 - q1) / median, exceeds the metric's bound in BENCHMARK.json and not
  every run of the second set reads better than every run of the first;
- unchanged: otherwise.

fail_frac (failed / attempted repeats) is worse whenever it rises.  Run
both sets on the same machine with the same --seconds; the machines are
printed so that a mismatch shows.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def metric_specs() -> dict:
    """metric name -> {"unit", "better", "bound" (None for per-layer)}."""
    bench = load_benchmark()
    specs = {m["name"]: {**m, "bound": None} for m in bench.get("per_layer", [])}
    specs.update({m["name"]: m for m in bench.get("end_to_end", [])})
    return specs


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def by_metric(result_set) -> dict:
    """(workload, metric) -> {seed: value}."""
    table = defaultdict(dict)
    for run in result_set["runs"]:
        for name, m in run["result"]["metrics"].items():
            table[run["workload"], name][run["seed"]] = m["value"]
    return table


def fail_frac(result_set, workload) -> float:
    runs = [r["result"] for r in result_set["runs"] if r["workload"] == workload]
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def print_spreads(result_set) -> None:
    """Per (workload, metric): median, quartiles, spread and bound."""
    specs = metric_specs()
    print(f"{'workload':15} {'metric':40} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for (workload, name), vals in sorted(by_metric(result_set).items()):
        q1, med, q3 = quartiles(list(vals.values()))
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = specs.get(name, {}).get("bound")
        print(f"{workload:15} {name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {'' if bound is None else bound:>6}")
    for workload in sorted({r["workload"] for r in result_set["runs"]}):
        print(f"{workload:15} {'fail_frac':40} {fail_frac(result_set, workload):14.6g}")


def verdict(a: dict, b: dict, better: str, bound) -> tuple[str, int, int]:
    """(verdict, pairs won by b, pairs) for seed -> value maps a and b."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(a) & set(b))
    wins = sum(sign * (b[s] - a[s]) > 0 for s in seeds)
    losses = sum(sign * (b[s] - a[s]) < 0 for s in seeds)
    q1, med_a, q3 = quartiles(list(a.values()))
    med_b = quartiles(list(b.values()))[1]
    gain = sign * (med_b - med_a)
    if seeds and wins >= 0.9 * len(seeds) and gain > q3 - q1:
        return "improved", wins, len(seeds)
    if bound is None:
        if seeds and losses >= 0.9 * len(seeds) and -gain > q3 - q1:
            return "worse", wins, len(seeds)
        return ("unchanged" if abs(gain) <= q3 - q1 else "unresolved"), wins, len(seeds)
    if -gain > bound * abs(med_a):
        return "worse", wins, len(seeds)
    # a first set too noisy to tell "unchanged" from a real change
    all_better = all(sign * (vb - va) > 0 for vb in b.values() for va in a.values())
    if med_a and (q3 - q1) / abs(med_a) > bound and not all_better:
        return "unresolved", wins, len(seeds)
    return "unchanged", wins, len(seeds)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [json.loads(Path(p).read_text(encoding="utf-8")) for p in argv]
    for label, rs in zip("AB", sets):
        machines = {json.dumps(r["context"]["machine"], sort_keys=True) for r in rs["runs"]}
        print(f"{label}: {argv['AB'.index(label)]}  seconds={rs['seconds']}  "
              f"machine={' | '.join(sorted(machines))}")
    specs = metric_specs()
    table_a, table_b = by_metric(sets[0]), by_metric(sets[1])
    print(f"{'workload':15} {'metric':40} {'A median [q1, q3]':>36} "
          f"{'B median [q1, q3]':>36} {'won':>6}  verdict")
    for key in sorted(set(table_a) & set(table_b)):
        workload, name = key
        spec = specs.get(name, {"better": "lower", "bound": None})
        v, wins, pairs = verdict(table_a[key], table_b[key], spec["better"], spec["bound"])
        cells = []
        for vals in (table_a[key], table_b[key]):
            q1, med, q3 = quartiles(list(vals.values()))
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"{workload:15} {name:40} {cells[0]:>36} {cells[1]:>36} "
              f"{wins:>3}/{pairs:<2}  {v}")
    for workload in sorted({r["workload"] for r in sets[0]["runs"]}
                           & {r["workload"] for r in sets[1]["runs"]}):
        fa, fb = fail_frac(sets[0], workload), fail_frac(sets[1], workload)
        v = "worse" if fb > fa else "improved" if fb < fa else "unchanged"
        print(f"{workload:15} {'fail_frac':40} {fa:>36.6g} {fb:>36.6g} {'':>6}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
