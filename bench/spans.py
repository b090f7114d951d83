"""Spans and counts at the boundaries between guardsim's modules.

A `Recorder` replaces, for the length of a `with` block, the module
attributes that one layer calls the next through (for example
`harness.run_lp`, which the harness calls for every replicate) with wrappers
that record a span (name, start, end, parent) and a few counts in memory.
Leaving the block restores the originals.  No guardsim source file changes.

A name that is missing (say, after two event loops are merged) is listed in
`Recorder.missing`; every per-layer metric that needs it is reported absent
and the workload still runs.

Untraced recorders install only the per-run tap on `harness.run_*`, one
call per policy run: it keeps the run's result counts, which the output
checks need, and its wall time, from which run.py builds demands_per_s.
"""
from __future__ import annotations

import inspect
import time
import tracemalloc
from collections import defaultdict

# (module, attribute, span name): the call boundaries between layers
WRAPPED = (
    ("harness", "monte_carlo", "harness.monte_carlo"),
    ("harness", "generate_stream", "core.generate_stream"),
    ("harness", "run_nclp", "deadline_policies.run"),
    ("harness", "run_lp", "deadline_policies.run"),
    ("harness", "run_gp", "deadline_policies.run"),
    ("harness", "run_tf", "tmhp.run_tf"),
    ("deadline_policies", "longest_chain_fast", "reachability.longest_chain_fast"),
    ("tmhp", "tmhp_solve", "tmhp.tmhp_solve"),
    ("tmhp", "emhp_exact", "tmhp.emhp_exact"),
    ("tmhp", "emhp_heuristic", "tmhp.emhp_heuristic"),
)
RUN_ATTRS = ("run_nclp", "run_lp", "run_gp", "run_tf")

# (metric, unit, better, span name, statistic); a statistic is summed over
# one traced repeat, except n_mean (mean), n_max (maximum) and peak_mb
# (tracemalloc peak of the largest call, see Recorder.heuristic_peak_mb)
PER_LAYER = (
    ("core.generate_stream.calls", "count", "lower", "core.generate_stream", "calls"),
    ("core.generate_stream.s", "s", "lower", "core.generate_stream", "s"),
    ("reachability.longest_chain_fast.calls", "count", "lower",
     "reachability.longest_chain_fast", "calls"),
    ("reachability.longest_chain_fast.s", "s", "lower",
     "reachability.longest_chain_fast", "s"),
    ("reachability.longest_chain_fast.n_mean", "points", "lower",
     "reachability.longest_chain_fast", "n_mean"),
    ("deadline_policies.run.calls", "count", "lower", "deadline_policies.run", "calls"),
    ("deadline_policies.run.s", "s", "lower", "deadline_policies.run", "s"),
    ("deadline_policies.self_s", "s", "lower", "deadline_policies.run", "self_s"),
    ("tmhp.run_tf.s", "s", "lower", "tmhp.run_tf", "s"),
    ("tmhp.loop_self_s", "s", "lower", "tmhp.run_tf", "self_s"),
    ("tmhp.tmhp_solve.calls", "count", "lower", "tmhp.tmhp_solve", "calls"),
    ("tmhp.tmhp_solve.s", "s", "lower", "tmhp.tmhp_solve", "s"),
    ("tmhp.tmhp_solve.self_s", "s", "lower", "tmhp.tmhp_solve", "self_s"),
    ("tmhp.emhp_exact.calls", "count", "lower", "tmhp.emhp_exact", "calls"),
    ("tmhp.emhp_exact.s", "s", "lower", "tmhp.emhp_exact", "s"),
    ("tmhp.emhp_heuristic.calls", "count", "lower", "tmhp.emhp_heuristic", "calls"),
    ("tmhp.emhp_heuristic.s", "s", "lower", "tmhp.emhp_heuristic", "s"),
    ("tmhp.emhp_heuristic.points_max", "points", "lower", "tmhp.emhp_heuristic", "n_max"),
    ("tmhp.emhp_length_sum", "length", "lower", "tmhp.tmhp_solve", "length_sum"),
    ("tmhp.heuristic_peak_alloc_mb", "MB", "lower", "tmhp.emhp_heuristic", "peak_mb"),
    ("harness.monte_carlo.calls", "count", "lower", "harness.monte_carlo", "calls"),
    ("harness.monte_carlo.s", "s", "lower", "harness.monte_carlo", "s"),
    ("harness.self_s", "s", "lower", "harness.monte_carlo", "self_s"),
)
OVERHEAD = ("trace.overhead_s", "s", "lower")   # traced minus untraced wall time


def _argument(fn, name):
    """Getter for fn's parameter `name` out of a call's (args, kwargs)."""
    idx = list(inspect.signature(fn).parameters).index(name)
    return lambda args, kwargs: args[idx] if len(args) > idx else kwargs[name]


def _info_getter(fn, attr):
    """(args, kwargs, result) -> dict of counts the span keeps, per name."""
    if attr == "longest_chain_fast":
        demands = _argument(fn, "demands")
        return lambda a, k, res: {"n": len(demands(a, k))}
    if attr == "emhp_heuristic":
        points = _argument(fn, "points")
        return lambda a, k, res: {"n": len(points(a, k))}
    if attr == "tmhp_solve":
        return lambda a, k, res: {"length": res.emhp_length}
    return lambda a, k, res: {}


class Recorder:
    """Installs the wrappers on enter and restores the originals on exit.

    `runs` gets (n_demands, n_capt, n_esc) for every policy run the harness
    makes; untraced, `run_s` gets each of those runs' wall seconds; with
    traced=True, `spans` gets [name, start, end, parent, info]
    per wrapped call, where parent is the index of the enclosing span.
    """

    def __init__(self, guardsim, traced: bool):
        self.guardsim = guardsim
        self.traced = traced
        self.runs: list[tuple[int, int, int]] = []
        self.run_s: list[float] = []
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._largest = (-1, None, (), {})   # (n, fn, args, kwargs)

    def __enter__(self) -> "Recorder":
        for mod_name, attr, span in WRAPPED:
            if not self.traced and attr not in RUN_ATTRS:
                continue
            mod = getattr(self.guardsim, mod_name, None)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, attr, span))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    @property
    def tapped(self) -> bool:
        """True when every harness.run_* feeds `runs`."""
        return not any(m.split(".")[-1] in RUN_ATTRS for m in self.missing)

    def _wrap(self, fn, attr, span):
        if attr in RUN_ATTRS:
            stream = _argument(fn, "stream")

            def after(args, kwargs, res):
                self.runs.append((len(stream(args, kwargs)), res.n_capt, res.n_esc))
                return {}
        else:
            after = _info_getter(fn, attr)
        if not self.traced:
            def tap(*args, **kwargs):
                start = time.perf_counter()
                res = fn(*args, **kwargs)
                self.run_s.append(time.perf_counter() - start)
                after(args, kwargs, res)
                return res
            return tap

        keep_largest = attr == "emhp_heuristic"

        def traced(*args, **kwargs):
            sid = len(self.spans)
            rec = [span, 0.0, 0.0, self._stack[-1] if self._stack else None, {}]
            self.spans.append(rec)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[1] = start
                self._stack.pop()
            rec[4].update(after(args, kwargs, res))
            if keep_largest and rec[4]["n"] >= self._largest[0]:
                self._largest = (rec[4]["n"], fn, args, kwargs)
            return res
        return traced

    def heuristic_peak_mb(self) -> float:
        """tracemalloc peak of the largest emhp_heuristic call, run again.

        tracemalloc slows every allocation; inside the timed heuristic it
        made the pure-Python small-instance search 20x slower.  So the call
        with the most points is replayed once, outside every span.
        """
        _n, fn, args, kwargs = self._largest
        if fn is None:
            return 0.0
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def available(self, span: str) -> bool:
        """A span name counts only if every attribute behind it was wrapped."""
        return not any(f"{m}.{a}" in self.missing
                       for m, a, s in WRAPPED if s == span)


def layer_stats(spans) -> dict:
    """Per span name: calls, s, self_s (span minus its direct children, which
    nest without overlap in one thread), n_mean, n_max and length_sum."""
    child_s = defaultdict(float)
    for name, start, end, parent, info in spans:
        if parent is not None:
            child_s[parent] += end - start
    stats = defaultdict(lambda: defaultdict(float))
    for sid, (name, start, end, parent, info) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += end - start - child_s[sid]
        if "n" in info:
            st["n_sum"] += info["n"]
            st["n_max"] = max(st["n_max"], info["n"])
        st["length_sum"] += info.get("length", 0.0)
    for st in stats.values():
        st["n_mean"] = st["n_sum"] / st["calls"] if st["calls"] else 0.0
    return stats


def layer_metrics(recorder: Recorder) -> tuple[dict, list[str]]:
    """(metric -> value, absent metric names) for one traced repeat."""
    stats = layer_stats(recorder.spans)
    stats["tmhp.emhp_heuristic"]["peak_mb"] = recorder.heuristic_peak_mb()
    values, absent = {}, []
    for metric, _unit, _better, span, stat in PER_LAYER:
        # a self time needs every child span, so any missing name voids it
        if not recorder.available(span) or (stat == "self_s" and recorder.missing):
            absent.append(metric)
            continue
        value = stats[span][stat] if span in stats else 0.0
        values[metric] = int(value) if stat in ("calls", "n_max") else value
    return values, absent
