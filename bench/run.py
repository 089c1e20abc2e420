"""Benchmark of `topospat test`, from generated TSVs to a written report.

    python3 bench/run.py --workload clusters-betti --seed 1 --seconds 28 --trace 0

Run it from the repository root: the program under test is `src/topospat`,
started as `topospat test` in a fresh interpreter for every measured run.

With `--trace 0` a run prints the end-to-end metrics: the median wall time
of a `topospat test` process (`wall_s`), features scored `ok` per second of
it (`features_per_s`), the median time before the first feature is tested in
a fresh process (`setup_s`), and the median peak RSS of the largest process
of a run, pool workers included (`peak_rss_mb`). With `--trace 1` it prints
the per-layer metrics of PER_LAYER, from runs of `bench/traced_cli.py`
alternated with untraced runs whose difference is the tracing overhead.

Every report is checked (see check.py): one on the committed reference
input, then each report of the run. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where
attempted and failed count features, so failed_frac = failed / attempted.
BLAS thread variables are recorded as found and never set.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from check import disagreements, invariant_failures, read_report  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402

REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_SEED = 0
# Runs in one measurement; each must complete, so a run can exceed --seconds.
MIN_RUNS = 3
SETUP_PROBES = 3
MIN_TRACED_RUNS = 2

# name -> unit
END_TO_END = {"wall_s": "s", "features_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}

# name -> (unit, end-to-end metrics it should move, workloads where it should move)
_ALL = tuple(WORKLOADS)
_THREADS_1 = tuple(n for n, w in WORKLOADS.items() if w.threads == 1)
_VISIUM = ("visium-moran",)
_SUMMARY = ("clusters-betti", "continuous-landscape")
PER_LAYER = {
    "cli.import_s": ("s", ("setup_s", "wall_s"), _ALL),
    "cli.self_s": ("s", ("setup_s", "wall_s"), _ALL),
    "cli.write_report_s": ("s", ("wall_s",), _ALL),
    "ingest.load_dataset_s": ("s", ("setup_s", "peak_rss_mb"), _VISIUM),
    "ingest.exclude_prefixes_s": ("s", ("setup_s", "peak_rss_mb"), _VISIUM),
    "ingest.qc_filter_s": ("s", ("setup_s", "peak_rss_mb"), _VISIUM),
    "ingest.transform_s": ("s", ("setup_s", "peak_rss_mb"), _VISIUM),
    "ingest.cells": ("count", ("setup_s",), _VISIUM),
    "ingest.us_per_cell": ("us", ("setup_s",), _VISIUM),
    "ingest.qc_kept_ratio": ("ratio", ("setup_s",), _VISIUM),
    "spatial_graph.build_s": ("s", ("setup_s",), _ALL),
    "spatial_graph.edges": ("count", ("setup_s",), _ALL),
    "persistence.diagram_s": ("s", ("features_per_s",), ("clusters-betti", "continuous-landscape")),
    "persistence.diagrams": ("count", ("features_per_s",), _SUMMARY),
    "persistence.us_per_diagram": ("us", ("features_per_s",), _SUMMARY),
    "persistence.pairs_per_diagram": ("pairs", ("features_per_s",), _SUMMARY),
    "summaries.vectorise_s": ("s", ("features_per_s",), ("continuous-landscape", "clusters-betti")),
    "summaries.center_s": ("s", ("features_per_s",), _SUMMARY),
    "summaries.distance_s": ("s", ("features_per_s",), _SUMMARY),
    "summaries.center_knots": ("count", ("features_per_s",), _SUMMARY),
    "spatial_stats.self_s": ("s", ("features_per_s",), _VISIUM),
    "spatial_stats.feature_s.p50": ("s", ("wall_s",), _THREADS_1),
    "spatial_stats.feature_s.p90": ("s", ("wall_s",), _THREADS_1),
    "spatial_stats.run_battery_self_s": ("s", ("wall_s",), _ALL),
    "spatial_stats.pool.cpu_s": ("s", ("features_per_s", "wall_s"), ("visium-moran-2w",)),
    "other_s": ("s", ("wall_s",), _ALL),
    "trace.overhead_s": ("s", ("wall_s",), _ALL),
}

# Units of metrics derived from counts only; these must repeat exactly.
COUNT_UNITS = ("count", "pairs", "ratio")

POOL_NOTE = ("worker-side spans are not visible: spatial_stats.self_s and "
             "spatial_stats.feature_s.* count parent-side spans only, and "
             "spatial_stats.pool.cpu_s is the workers' user+sys CPU from RUSAGE_CHILDREN")


class CliError(RuntimeError):
    pass


def reference_path(workload: Workload) -> Path:
    """Recorded report on the reference input; workloads sharing a generator share it."""
    return REFERENCE_DIR / f"{workload.generator}.tsv"


class Bench:
    """One benchmark run: a workload, its inputs and the checks on its reports."""

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.n_perm = int(workload.cli_args[workload.cli_args.index("--n-perm") + 1])
        self.attempted = 0
        self.failed = 0
        self.first_report = None
        self.runs = 0

    def cli_argv(self, inputs, seed: int) -> list[str]:
        self.runs += 1
        return ["test", "--counts", str(inputs.counts), "--coords", str(inputs.coords),
                "--out-dir", str(self.work / f"out{self.runs}"), *self.workload.cli_args,
                "--seed", str(seed), "--threads", str(self.workload.threads)]

    def spawn(self, argv: list[str]) -> tuple[float, float, object]:
        """Run argv to exit; return its start instant, wall seconds and rusage.

        os.wait4 reports the child's peak RSS together with that of every
        descendant it reaped, such as the pool workers of run_battery.
        """
        log = self.work / "stderr.txt"
        with open(log, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise CliError(f"{' '.join(argv[:3])} exited with {proc.returncode}:\n"
                           + log.read_text(errors="replace")[-2000:])
        return start, wall, usage

    def run_cli(self, inputs, seed: int | None = None):
        """Untraced `topospat test`, as its console script runs it."""
        argv = self.cli_argv(inputs, self.seed if seed is None else seed)
        _, wall, usage = self.spawn(
            [sys.executable, "-c", "import sys; from topospat.cli import main; sys.exit(main())",
             *argv])
        return wall, usage.ru_maxrss / 1024.0, Path(argv[argv.index("--out-dir") + 1])

    def run_child(self, mode: str, inputs):
        out = self.work / f"{mode}{self.runs}.json"
        argv = self.cli_argv(inputs, self.seed)
        start, wall, _ = self.spawn(
            [sys.executable, str(BENCH_DIR / "traced_cli.py"), mode, str(out), *argv])
        return start, wall, json.loads(out.read_text()), Path(argv[argv.index("--out-dir") + 1])

    def setup_seconds(self, inputs) -> float:
        start, _, record, _ = self.run_child("setup", inputs)
        return record["battery_entered"] - start

    def check(self, out_dir: Path, inputs, reference: dict | None = None) -> int:
        """Count the report's features and those that fail; return the ok count."""
        rows = read_report(out_dir / "report.tsv")
        if reference is not None:
            bad = disagreements(rows, reference)
        else:
            bad = invariant_failures(rows, inputs.expected_features, self.n_perm)
            if self.first_report is None:
                self.first_report = rows
            bad |= disagreements(rows, self.first_report)
        self.attempted += len(rows.keys() | set(inputs.expected_features))
        self.failed += len(bad)
        return sum(1 for r in rows.values() if r["status"] == "ok")

    def check_reference(self) -> None:
        """Run once on the reference input; this also compiles bytecode and warms caches."""
        inputs = generate(self.workload, REFERENCE_SEED, self.work / "ref", reference=True)
        _, _, out_dir = self.run_cli(inputs, REFERENCE_SEED)
        self.check(out_dir, inputs, reference=read_report(reference_path(self.workload)))

    def measure(self, seconds: float) -> dict:
        inputs = generate(self.workload, self.seed, self.work / "in")
        walls, rss, setups, oks = [], [], [], []
        deadline = perf_counter() + seconds
        while len(walls) < MIN_RUNS or perf_counter() < deadline:
            if len(setups) < SETUP_PROBES:
                setups.append(self.setup_seconds(inputs))
            wall, peak, out_dir = self.run_cli(inputs)
            walls.append(wall)
            rss.append(peak)
            oks.append(self.check(out_dir, inputs))
        wall = statistics.median(walls)
        print(f"# {len(walls)} runs of topospat test, wall_s {[round(w, 3) for w in walls]}; "
              f"{len(setups)} set-up probes, setup_s {[round(s, 3) for s in setups]}")
        return {
            "wall_s": wall,
            "features_per_s": statistics.median(ok / w for ok, w in zip(oks, walls)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }

    def measure_traced(self, seconds: float) -> dict:
        inputs = generate(self.workload, self.seed, self.work / "in")
        untraced, traced = [], []
        deadline = perf_counter() + seconds
        while len(traced) < MIN_TRACED_RUNS or perf_counter() < deadline:
            wall, _, out_dir = self.run_cli(inputs)
            untraced.append(wall)
            self.check(out_dir, inputs)
            _, wall, trace, out_dir = self.run_child("trace", inputs)
            self.check(out_dir, inputs)
            traced.append(layer_metrics(trace, wall))
        metrics = {}
        for name in traced[0]:
            values = [t[name] for t in traced]
            if PER_LAYER.get(name, ("s",))[0] in COUNT_UNITS:
                if len(set(values)) != 1:
                    print(f"# {name} did not repeat exactly: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                       - statistics.median(untraced))
        del metrics["wall_s"]
        print(f"# {len(traced)} traced and {len(untraced)} untraced runs of topospat test")
        if self.workload.threads > 1:
            print(f"# {self.workload.name}: {POOL_NOTE}")
        return metrics


def layer_metrics(trace: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced run; self time is span minus its children."""
    spans = trace["spans"]
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    self_s: dict[str, float] = defaultdict(float)
    calls = Counter()
    for i, (name, _, _, _) in enumerate(spans):
        self_s[name] += dur[i] - child[i]
        calls[name] += 1
    features = [dur[i] for i, s in enumerate(spans) if s[0] == "spatial_stats.permutation_test"]
    counts = defaultdict(int, trace["counts"])
    diagrams = calls["persistence.diagram"]
    return {
        "wall_s": wall_s,
        "cli.import_s": self_s["cli.import"],
        "cli.self_s": self_s["cli.main"],
        "cli.write_report_s": self_s["cli.write_report"],
        "ingest.load_dataset_s": self_s["ingest.load_dataset"],
        "ingest.exclude_prefixes_s": self_s["ingest.exclude_prefixes"],
        "ingest.qc_filter_s": self_s["ingest.qc_filter"],
        "ingest.transform_s": self_s["ingest.transform"],
        "ingest.cells": counts["cells"],
        "ingest.us_per_cell": 1e6 * self_s["ingest.load_dataset"] / counts["cells"],
        "ingest.qc_kept_ratio": counts["battery_features"] / counts["loaded_features"],
        "spatial_graph.build_s": self_s["spatial_graph.build"],
        "spatial_graph.edges": counts["edges"],
        "persistence.diagram_s": self_s["persistence.diagram"],
        "persistence.diagrams": diagrams,
        "persistence.us_per_diagram": 1e6 * self_s["persistence.diagram"] / diagrams if diagrams else 0.0,
        "persistence.pairs_per_diagram": counts["pairs"] / diagrams if diagrams else 0.0,
        "summaries.vectorise_s": self_s["summaries.vectorise"],
        "summaries.center_s": self_s["summaries.center"],
        "summaries.distance_s": self_s["summaries.distance"],
        "summaries.center_knots": counts["center_knots"],
        "spatial_stats.self_s": self_s["spatial_stats.permutation_test"],
        "spatial_stats.feature_s.p50": statistics.median(features) if features else 0.0,
        "spatial_stats.feature_s.p90": (statistics.quantiles(features, n=10)[8]
                                        if len(features) > 1 else sum(features)),
        "spatial_stats.run_battery_self_s": (self_s["spatial_stats.run_battery"]
                                             + self_s["spatial_stats.benjamini_hochberg"]),
        "spatial_stats.pool.cpu_s": trace["children_cpu_s"],
        "other_s": wall_s - sum(d for d, s in zip(dur, spans) if s[3] < 0),
    }


def environment(root: Path) -> dict:
    import numpy
    import scipy

    sha = "unknown"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "TOPOSPAT_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "topospat" / "cli.py").is_file():
        print(f"bench: {root} holds no src/topospat; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        print("# env " + json.dumps(environment(root), sort_keys=True))
        bench.check_reference()
        if args.trace:
            metrics, units = bench.measure_traced(args.seconds), {n: v[0] for n, v in PER_LAYER.items()}
        else:
            metrics, units = bench.measure(args.seconds), END_TO_END
    except CliError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_frac {bench.failed / bench.attempted} "
          f"({bench.failed} of {bench.attempted} features checked)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
