"""Tests of the benchmark itself; they never time or run topospat's battery.

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import traced_cli  # noqa: E402
from workloads import DROPPED, WORKLOADS, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _read_bytes(inputs):
    return inputs.counts.read_bytes(), inputs.coords.read_bytes()


@pytest.mark.parametrize("name", ["clusters-betti", "continuous-landscape", "visium-moran"])
def test_generators_are_deterministic_per_seed(tmp_path, name):
    w = WORKLOADS[name]
    a = generate(w, 5, tmp_path / "a", reference=True)
    b = generate(w, 5, tmp_path / "b", reference=True)
    c = generate(w, 6, tmp_path / "c", reference=True)
    assert _read_bytes(a) == _read_bytes(b)
    assert a.expected_features == b.expected_features
    assert _read_bytes(a) != _read_bytes(c)


def test_visium_qc_outcome_is_fixed_and_drops_about_three_quarters(tmp_path):
    w = WORKLOADS["visium-moran"]
    kept = {len(generate(w, seed, tmp_path / str(seed)).expected_features) for seed in (1, 2)}
    assert len(kept) == 1
    assert 0.2 < kept.pop() / w.n_features < 0.3


def _corrupt(path: Path, out: Path, column: str, value: str) -> Path:
    lines = path.read_text().splitlines()
    col = check.REPORT_COLUMNS.index(column)
    fields = lines[1].split("\t")
    fields[col] = value
    lines[1] = "\t".join(fields)
    out.write_text("\n".join(lines) + "\n")
    return out


@pytest.mark.parametrize("column, value", [
    ("p_value", "0.5"), ("rank", "99"), ("status", "ValidationError: x"), ("statistic", "1e9"),
])
def test_corrupted_report_drives_failed_frac_above_zero(tmp_path, column, value):
    w = WORKLOADS["clusters-betti"]
    ref_path = run.reference_path(w)
    (tmp_path / "out").mkdir()
    _corrupt(ref_path, tmp_path / "out" / "report.tsv", column, value)
    reference = check.read_report(ref_path)
    bench = run.Bench(tmp_path, w, 0)
    inputs = generate(w, 0, tmp_path / "in", reference=True)
    bench.check(tmp_path / "out", inputs, reference=reference)
    assert bench.failed / bench.attempted > 0

    # the same corruption on a timed report breaks an invariant of the method
    bench = run.Bench(tmp_path, w, 0)
    bench.check(tmp_path / "out", inputs)
    if column != "statistic":
        assert bench.failed > 0


def test_statistic_within_tolerance_agrees(tmp_path):
    ref_path = run.reference_path(WORKLOADS["visium-moran"])
    reference = check.read_report(ref_path)
    first = next(iter(reference.values()))
    nudged = repr(first["statistic"] * (1 + 1e-13))
    rows = check.read_report(_corrupt(ref_path, tmp_path / "r.tsv", "statistic", nudged))
    assert check.disagreements(rows, reference) == set()


def test_reference_reports_satisfy_the_invariants():
    for w in WORKLOADS.values():
        rows = check.read_report(run.reference_path(w))
        assert check.invariant_failures(rows, tuple(rows), run.Bench(ROOT, w, 0).n_perm) == set()


def test_bh_matches_topospat():
    from topospat.spatial_stats import benjamini_hochberg

    p = [0.01, 0.04, 0.03, 0.5, 0.03, 1.0, 0.2]
    assert check.benjamini_hochberg(p) == list(benjamini_hochberg(p))


def test_spec_workloads_are_the_undropped_ones():
    assert [w["name"] for w in SPEC["workloads"]] == [n for n in WORKLOADS if n not in DROPPED]
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])


def test_every_per_layer_metric_declares_what_it_should_move():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        n: v[0] for n, v in run.PER_LAYER.items()}
    for name, (_, moves, workloads) in run.PER_LAYER.items():
        assert moves and set(moves) <= set(run.END_TO_END), name
        assert workloads and set(workloads) <= set(WORKLOADS), name


def _trace() -> dict:
    """A traced run: import, then main calling ingest, graph and a one-feature battery."""
    spans = [
        ["cli.import", 0.0, 1.0, -1],
        ["cli.main", 1.0, 3.0, -1],
        ["ingest.load_dataset", 1.1, 1.3, 1],
        ["spatial_graph.build", 1.3, 1.4, 1],
        ["spatial_stats.run_battery", 1.4, 2.9, 1],
        ["spatial_stats.permutation_test", 1.4, 2.8, 4],
        ["persistence.diagram", 1.5, 2.0, 5],
        ["summaries.vectorise", 2.0, 2.2, 5],
        ["spatial_stats.benjamini_hochberg", 2.8, 2.85, 4],
    ]
    counts = {"cells": 800, "loaded_features": 2, "battery_features": 1, "edges": 10,
              "pairs": 7, "center_knots": 3}
    return {"exit_code": 0, "spans": spans, "counts": counts, "children_cpu_s": 0.0}


def test_layer_metrics_take_self_time_as_span_minus_children():
    m = run.layer_metrics(_trace(), wall_s=3.25)
    assert m["cli.self_s"] == pytest.approx(2.0 - 0.2 - 0.1 - 1.5)
    assert m["spatial_stats.self_s"] == pytest.approx(1.4 - 0.5 - 0.2)
    assert m["spatial_stats.run_battery_self_s"] == pytest.approx((1.5 - 1.4 - 0.05) + 0.05)
    assert m["other_s"] == pytest.approx(0.25)
    assert m["ingest.qc_kept_ratio"] == 0.5
    assert m["persistence.pairs_per_diagram"] == 7


def test_tracer_nests_spans_and_sums_counters():
    tracer = traced_cli.Tracer()
    inner = tracer.wrap(lambda x: x, "persistence.diagram", lambda args, r: {"pairs": r})
    outer = tracer.wrap(lambda: inner(3) + inner(4), "spatial_stats.permutation_test", None)
    assert outer() == 7
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.counts == {"pairs": 7}


class _FakeBench(run.Bench):
    """Bench whose runs return fixed numbers instead of starting topospat."""

    def check_reference(self):
        self.attempted += 1

    def run_cli(self, inputs, seed=None):
        return 1.0, 100.0, None

    def setup_seconds(self, inputs):
        return 0.5

    def run_child(self, mode, inputs):
        return 0.0, 3.25, _trace(), None

    def check(self, out_dir, inputs, reference=None):
        self.attempted += 1
        return 1


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_the_spec(monkeypatch, capsys, trace, section):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "Bench", _FakeBench)
    monkeypatch.setattr(run, "generate", lambda *args, **kwargs: None)
    monkeypatch.setattr(run, "MIN_RUNS", 1)
    monkeypatch.setattr(run, "MIN_TRACED_RUNS", 1)
    assert run.main(["--workload", "clusters-betti", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    subprocess.run(["cp", "-r", str(BENCH), str(tmp_path / "bench")], check=True)
    proc = subprocess.run(SPEC["command"] + ["--workload", "clusters-betti", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
