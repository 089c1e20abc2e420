"""Run `topospat test` in this fresh process, with spans around its layers.

    python bench/traced_cli.py trace OUT.json test --counts ... --coords ...
    python bench/traced_cli.py setup OUT.json test --counts ... --coords ...

`trace` wraps the public functions of each layer at the names their callers
bind (for example `topospat.cli.load_dataset` and
`topospat.spatial_stats.superlevel_diagram`), runs `topospat.cli.main`, and
writes the spans and counters to OUT.json once, at the end. `setup` runs the
same command only until `run_battery` is entered, which is the time a user
waits before the first feature is tested, and writes that instant.

Times are `time.perf_counter()` readings. On Linux that clock is
CLOCK_MONOTONIC, shared with the parent benchmark process, which subtracts
its own reading taken just before it started this process. The `topospat`
package must be importable (src/ on PYTHONPATH). Nothing under src/ is
changed: the wrappers replace module attributes in this process only.
"""
from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def _cells(args, ds):
    return {"cells": ds.n_features * ds.n_locations, "loaded_features": ds.n_features}


def _battery_features(args, reports):
    return {"battery_features": args[0].n_features}


def _edges(args, graph):
    return {"edges": graph.n_edges}


def _pairs(args, diagram):
    return {"pairs": len(diagram)}


def _curve_knots(args, curve):
    return {"center_knots": len(curve.knots)}


def _landscape_knots(args, land):
    return {"center_knots": sum(len(xs) for xs, _ in land.levels)}


# (module that binds the name, attribute, span name, counter of the result)
WRAPPED = (
    ("topospat.cli", "load_dataset", "ingest.load_dataset", _cells),
    ("topospat.cli", "exclude_prefixes", "ingest.exclude_prefixes", None),
    ("topospat.cli", "qc_filter", "ingest.qc_filter", None),
    ("topospat.cli", "shifted_log_transform", "ingest.transform", None),
    ("topospat.cli", "delaunay_graph", "spatial_graph.build", _edges),
    ("topospat.cli", "hex_grid_graph", "spatial_graph.build", _edges),
    ("topospat.cli", "run_battery", "spatial_stats.run_battery", _battery_features),
    ("topospat.cli", "write_report", "cli.write_report", None),
    ("topospat.spatial_stats", "permutation_test", "spatial_stats.permutation_test", None),
    ("topospat.spatial_stats", "benjamini_hochberg", "spatial_stats.benjamini_hochberg", None),
    ("topospat.spatial_stats", "superlevel_diagram", "persistence.diagram", _pairs),
    ("topospat.spatial_stats", "betti_curve", "summaries.vectorise", None),
    ("topospat.spatial_stats", "landscape", "summaries.vectorise", None),
    ("topospat.spatial_stats", "total_lifetime", "summaries.vectorise", None),
    ("topospat.spatial_stats", "mean_step_curve", "summaries.center", _curve_knots),
    ("topospat.spatial_stats", "mean_landscape", "summaries.center", _landscape_knots),
    ("topospat.spatial_stats", "curve_lp_distance", "summaries.distance", None),
    ("topospat.spatial_stats", "landscape_lp_distance", "summaries.distance", None),
)


class Tracer:
    """In-memory spans [name, start, end, parent index] and summed counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result
        return traced


class _BatteryReached(BaseException):
    """Raised on entry to run_battery to end a `setup` probe; main() does not catch it."""


def _trace(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    idx = tracer.open("cli.import")
    import topospat.cli as cli
    tracer.close(idx)

    for module_name, attr, span, counter in WRAPPED:
        module = sys.modules[module_name]
        setattr(module, attr, tracer.wrap(getattr(module, attr), span, counter))

    idx = tracer.open("cli.main")
    code = cli.main(argv)
    tracer.close(idx)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "spans": tracer.spans, "counts": tracer.counts,
                   "children_cpu_s": children.ru_utime + children.ru_stime}, fh)
    return code


def _setup(out_path: str, argv: list[str]) -> int:
    import topospat.cli as cli

    def stop(*args, **kwargs):
        raise _BatteryReached

    cli.run_battery = stop
    try:
        code = cli.main(argv)
    except _BatteryReached:
        reached = perf_counter()
    else:
        print(f"topospat exited with code {code} before the battery", file=sys.stderr)
        return code or 1
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"battery_entered": reached}, fh)
    return 0


if __name__ == "__main__":
    mode, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.exit({"trace": _trace, "setup": _setup}[mode](out, argv))
