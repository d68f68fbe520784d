"""Spans recorded by the benchmark around its calls into each layer.

A span holds its name, start, end, parent span, the id of the CLI call it
belongs to, and the work counts measured at that boundary.  Spans stay in
memory until the run ends.

The layers are the modules of `equidist`.  Nothing inside the package is
patched: the traced run times `cli.dispatch(argv)` and then replays the
same call through the public functions of the lower modules, so a
replayed span is the child of the span whose work it repeats.  Children
run one after another once their parent has returned, so the time they
cover is the sum of their durations, and a span's self time is its
duration minus that sum.
"""

from __future__ import annotations

import time

COMPONENTS = ("dbar", "dbar1", "dbar2", "dbar3", "dbar4", "dbar5", "dbar6")

# span name -> per-layer metric that collects its self time
SELF_TIME_METRIC = {
    "cli.dispatch": "cli.self_s",
    "unitfrac.alpha_from_specs": "unitfrac.resolve_s",
    "lattice.generate_points": "lattice.generate_s",
    "lattice.count_in_interval": "lattice.count_s",
    "lattice.sorted_lanes": "lattice.sort_s",
    "discrepancy.max_discrepancy": "discrepancy.max_s",
    "discrepancy.averaged_discrepancy_direct": "discrepancy.sweep_s",
    "diophantine.spectrum_scan": "diophantine.spectrum_s",
    "diophantine.spectrum_check": "diophantine.spectrum_s",
    "diophantine.line_census": "diophantine.census_s",
    "diophantine.box_counts": "diophantine.boxes_s",
    "experiments.cross_validate": "experiments.validate_self_s",
    "experiments.growth_trend": "experiments.trend_s",
    **{f"fourier.{c}": f"fourier.{c}_s" for c in COMPONENTS},
}

# (name, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.calls", "count", "higher"),
    ("cli.bytes_out", "B", "lower"),
    ("unitfrac.resolve_s", "s", "lower"),
    ("lattice.generate_s", "s", "lower"),
    ("lattice.points", "count", "lower"),
    ("lattice.bytes_computed", "B", "lower"),
    ("lattice.count_s", "s", "lower"),
    ("lattice.sort_s", "s", "lower"),
    ("discrepancy.max_s", "s", "lower"),
    ("discrepancy.sweep_s", "s", "lower"),
    ("discrepancy.sweep_cells", "count", "lower"),
    *((f"fourier.{c}_{k}", u, "lower") for c in COMPONENTS
      for k, u in (("s", "s"), ("terms", "count"))),
    ("fourier.n1_scanned", "count", "lower"),
    ("diophantine.spectrum_s", "s", "lower"),
    ("diophantine.spectrum_n", "count", "lower"),
    ("diophantine.census_s", "s", "lower"),
    ("diophantine.census_pairs", "count", "lower"),
    ("diophantine.boxes_s", "s", "lower"),
    ("diophantine.boxes_n1", "count", "lower"),
    ("experiments.growth_wall_s", "s", "lower"),
    ("experiments.eval_busy_s", "s", "lower"),
    ("experiments.overlap", "ratio", "higher"),
    ("experiments.validate_self_s", "s", "lower"),
    ("experiments.trend_s", "s", "lower"),
    ("trace.dispatch_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """In-memory span list for one traced run."""

    def __init__(self):
        self.spans = []

    def run(self, name: str, call: int, parent, fn, *args, **kwargs):
        """Time fn(*args, **kwargs) as one span; returns (span, result)."""
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "call": call, "start": 0.0, "end": 0.0, "counts": {}}
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
        return span, result


def self_times(spans: list) -> dict:
    """Span id -> duration minus the summed durations of its children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list, untraced_pass_s: float) -> dict:
    """Per-layer metrics of one traced pass over the call list.

    experiments.growth_wall_s is the duration of run_growth_experiment, not
    its self time: its replayed children run on one thread while the
    original ran on the pool, so their sum exceeds it.
    """
    metrics = {name: 0 if unit in ("count", "B") else 0.0
               for name, unit, _ in PER_LAYER}
    selfs = self_times(spans)
    for s in spans:
        name = s["name"]
        if name == "experiments.run_growth_experiment":
            metrics["experiments.growth_wall_s"] += s["end"] - s["start"]
        else:
            metrics[SELF_TIME_METRIC[name]] += selfs[s["id"]]
        if name == "cli.dispatch":
            metrics["cli.calls"] += 1
            metrics["trace.dispatch_s"] += s["end"] - s["start"]
        for key, value in s["counts"].items():
            metrics[key] += value
    wall = metrics["experiments.growth_wall_s"]
    if wall > 0:
        busy = metrics["experiments.eval_busy_s"]
        metrics["experiments.overlap"] = busy / wall
    metrics["trace.overhead_s"] = metrics["trace.dispatch_s"] - untraced_pass_s
    return metrics
