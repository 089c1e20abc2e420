import csv
import dataclasses
import json

import numpy as np
import pytest

from topospat import SimConfig, TestConfig, read_report
from topospat.cli import build_parser, main


def run_cli(args):
    return main([str(a) for a in args])


def read_tsv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run_cli([
        "simulate", "--out-dir", out, "--pattern", "clusters", "--zero-prop", "0.1",
        "--n-locations", "60", "--n-signal", "8", "--n-null", "8", "--seed", "7",
    ])
    assert code == 0
    return out


class TestSimulateCommand:
    def test_outputs_exist(self, sim_dir):
        for name in ("counts.tsv", "coords.tsv", "labels.tsv", "manifest.json"):
            assert (sim_dir / name).exists()
        labels = (sim_dir / "labels.tsv").read_text().splitlines()
        assert len(labels) == 17  # header + 16 features

    def test_manifest_contents(self, sim_dir):
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["parameters"]["pattern"] == "clusters"
        assert manifest["seed"] == 7
        assert "simulate" in manifest["timings_s"]

    def test_rerun_is_byte_identical(self, sim_dir, tmp_path):
        code = run_cli([
            "simulate", "--out-dir", tmp_path, "--pattern", "clusters", "--zero-prop",
            "0.1", "--n-locations", "60", "--n-signal", "8", "--n-null", "8",
            "--seed", "7",
        ])
        assert code == 0
        for name in ("counts.tsv", "coords.tsv", "labels.tsv"):
            assert (tmp_path / name).read_bytes() == (sim_dir / name).read_bytes()

    def test_zero_prop_bound_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--out-dir", tmp_path, "--pattern", "clusters",
                     "--zero-prop", "1.0"])
        assert exc.value.code == 2


class TestTestCommand:
    def test_end_to_end_report(self, sim_dir, tmp_path):
        code = run_cli([
            "test", "--counts", sim_dir / "counts.tsv", "--coords", sim_dir / "coords.tsv",
            "--out-dir", tmp_path, "--graph", "delaunay", "--method", "betti",
            "--n-perm", "25", "--seed", "3", "--no-qc",
        ])
        assert code == 0
        rows = read_tsv(tmp_path / "report.tsv")
        assert len(rows) == 16
        assert [int(r["rank"]) for r in rows] == list(range(1, 17))
        assert all(r["status"] == "ok" for r in rows)
        ps = [float(r["p_value"]) for r in rows]
        assert all(1 / 26 <= p <= 1 for p in ps)
        sidecar = json.loads((tmp_path / "report.tsv.json").read_text())
        assert sidecar["method"] == "betti" and sidecar["graph"] == "delaunay"

    def test_rerun_and_threads_are_byte_identical(self, sim_dir, tmp_path):
        args = [
            "test", "--counts", sim_dir / "counts.tsv", "--coords", sim_dir / "coords.tsv",
            "--graph", "delaunay", "--method", "total", "--n-perm", "20",
            "--seed", "5", "--no-qc",
        ]
        run_cli(args + ["--out-dir", tmp_path / "a", "--threads", "1"])
        run_cli(args + ["--out-dir", tmp_path / "b", "--threads", "2"])
        assert (tmp_path / "a/report.tsv").read_bytes() == (tmp_path / "b/report.tsv").read_bytes()

    def test_epsilon_graph_requires_epsilon(self, sim_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["test", "--counts", sim_dir / "counts.tsv", "--coords",
                     sim_dir / "coords.tsv", "--out-dir", tmp_path, "--graph", "epsilon",
                     "--method", "betti"])
        assert exc.value.code == 2

    def test_missing_input_is_runtime_error(self, tmp_path):
        code = run_cli(["test", "--counts", tmp_path / "nope.tsv", "--coords",
                        tmp_path / "nope2.tsv", "--out-dir", tmp_path, "--graph",
                        "delaunay", "--method", "betti"])
        assert code == 1

    def test_epsilon_graph_pipeline(self, sim_dir, tmp_path):
        code = run_cli([
            "test", "--counts", sim_dir / "counts.tsv", "--coords", sim_dir / "coords.tsv",
            "--out-dir", tmp_path, "--graph", "epsilon", "--epsilon", "0.25",
            "--method", "moran", "--n-perm", "20", "--seed", "1", "--no-qc",
        ])
        assert code == 0
        assert (tmp_path / "report.tsv").exists()

    @pytest.mark.parametrize("graph_kind", ["hex", "rect"])
    def test_grid_graph_pipelines(self, graph_kind, tmp_path):
        import numpy as np
        from topospat import Dataset, write_dataset
        from oracles import hex_lattice

        if graph_kind == "hex":
            pts = hex_lattice(5, 5)
        else:
            pts = np.asarray([(float(x), float(y)) for y in range(5) for x in range(5)])
        rng = np.random.default_rng(0)
        ds = Dataset(locations=pts,
                     values=[rng.integers(0, 9, len(pts)).astype(float) for _ in range(5)],
                     feature_names=[f"g{i}" for i in range(5)])
        write_dataset(ds, tmp_path / "c.tsv", tmp_path / "l.tsv")
        code = run_cli([
            "test", "--counts", tmp_path / "c.tsv", "--coords", tmp_path / "l.tsv",
            "--out-dir", tmp_path / "out", "--graph", graph_kind, "--method", "total",
            "--n-perm", "15", "--seed", "2", "--no-qc",
        ])
        assert code == 0
        assert len(read_tsv(tmp_path / "out" / "report.tsv")) == 5

    def test_threads_default_is_one_whatever_the_environment(self, sim_dir, tmp_path,
                                                             monkeypatch):
        # TOPOSPAT_THREADS is not read: --threads is the only thread setting
        monkeypatch.setenv("TOPOSPAT_THREADS", "2")
        code = run_cli([
            "test", "--counts", sim_dir / "counts.tsv", "--coords", sim_dir / "coords.tsv",
            "--out-dir", tmp_path, "--graph", "delaunay", "--method", "total",
            "--n-perm", "10", "--seed", "1", "--no-qc",
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["threads"] == 1

    def test_negative_seed_is_accepted(self, sim_dir, tmp_path):
        # the permutation streams mask the seed to 64 bits
        code = run_cli([
            "test", "--counts", sim_dir / "counts.tsv", "--coords", sim_dir / "coords.tsv",
            "--out-dir", tmp_path, "--graph", "delaunay", "--method", "total",
            "--n-perm", "10", "--seed", "-3", "--no-qc",
        ])
        assert code == 0
        assert len(read_tsv(tmp_path / "report.tsv")) == 16

    def test_exclude_prefix_drops_features(self, sim_dir, tmp_path):
        code = run_cli([
            "test", "--counts", sim_dir / "counts.tsv", "--coords", sim_dir / "coords.tsv",
            "--out-dir", tmp_path, "--graph", "delaunay", "--method", "total",
            "--n-perm", "10", "--seed", "1", "--no-qc", "--exclude-prefix", "gene000",
        ])
        assert code == 0
        rows = read_tsv(tmp_path / "report.tsv")
        assert len(rows) == 7  # gene0001..gene0009 excluded, gene0010..gene0016 remain
        assert not any(r["feature"].startswith("gene000") for r in rows)

    def test_manifest_records_what_ingest_dropped(self, sim_dir, tmp_path):
        code = run_cli([
            "test", "--counts", sim_dir / "counts.tsv", "--coords", sim_dir / "coords.tsv",
            "--out-dir", tmp_path, "--graph", "delaunay", "--method", "total",
            "--n-perm", "10", "--seed", "1", "--exclude-prefix", "gene0001",
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        dataset = manifest["dataset"]
        assert dataset["excluded_by_prefix"] == ["gene0001"]
        assert dataset["transform"] == "log(f+2)"
        kept = {r["feature"] for r in read_tsv(tmp_path / "report.tsv")}
        assert len(kept) + len(dataset["qc_dropped_features"]) == 15
        assert not kept & set(dataset["qc_dropped_features"])
        assert isinstance(dataset["qc_dropped_locations"], list)
        assert "alpha" not in manifest["parameters"]

    def test_qc_enabled_by_default(self, sim_dir, tmp_path):
        # simulated data under QC: weak features drop out of the report
        code = run_cli([
            "test", "--counts", sim_dir / "counts.tsv", "--coords", sim_dir / "coords.tsv",
            "--out-dir", tmp_path, "--graph", "delaunay", "--method", "total",
            "--n-perm", "10", "--seed", "1",
        ])
        assert code == 0
        rows = read_tsv(tmp_path / "report.tsv")
        assert 0 < len(rows) <= 16

    def test_allow_raw_skips_transform(self, sim_dir, tmp_path):
        code = run_cli([
            "test", "--counts", sim_dir / "counts.tsv", "--coords", sim_dir / "coords.tsv",
            "--out-dir", tmp_path, "--graph", "delaunay", "--method", "total",
            "--n-perm", "10", "--seed", "1", "--no-qc", "--allow-raw",
        ])
        assert code == 0
        assert len(read_tsv(tmp_path / "report.tsv")) == 16

    def test_p_inf_battery(self, sim_dir, tmp_path):
        code = run_cli([
            "test", "--counts", sim_dir / "counts.tsv", "--coords", sim_dir / "coords.tsv",
            "--out-dir", tmp_path, "--graph", "delaunay", "--method", "betti",
            "--p", "inf", "--n-perm", "15", "--seed", "4", "--no-qc",
        ])
        assert code == 0
        rows = read_tsv(tmp_path / "report.tsv")
        assert all(1 / 16 <= float(r["p_value"]) <= 1.0 for r in rows)
        assert json.loads((tmp_path / "manifest.json").read_text())["parameters"]["p"] == "inf"

    def test_hex_pitch_and_strict_flags(self, tmp_path):
        import numpy as np
        from topospat import Dataset, write_dataset
        from oracles import hex_lattice

        pts = hex_lattice(4, 4, pitch=2.0)
        rng = np.random.default_rng(1)
        ds = Dataset(locations=pts,
                     values=[rng.integers(0, 9, len(pts)).astype(float) for _ in range(4)],
                     feature_names=[f"g{i}" for i in range(4)])
        write_dataset(ds, tmp_path / "c.tsv", tmp_path / "l.tsv")
        code = run_cli([
            "test", "--counts", tmp_path / "c.tsv", "--coords", tmp_path / "l.tsv",
            "--out-dir", tmp_path / "out", "--graph", "hex", "--pitch", "2.0",
            "--strict", "--method", "total", "--n-perm", "10", "--seed", "1", "--no-qc",
        ])
        assert code == 0

    def test_strict_hex_on_random_coords_fails(self, sim_dir, tmp_path):
        code = run_cli([
            "test", "--counts", sim_dir / "counts.tsv", "--coords", sim_dir / "coords.tsv",
            "--out-dir", tmp_path, "--graph", "hex", "--strict", "--method", "total",
            "--n-perm", "10", "--seed", "1", "--no-qc",
        ])
        assert code == 1  # geometry mismatch surfaces as a runtime error


class TestEvalCommand:
    @pytest.fixture()
    def report_dir(self, sim_dir, tmp_path):
        run_cli([
            "test", "--counts", sim_dir / "counts.tsv", "--coords", sim_dir / "coords.tsv",
            "--out-dir", tmp_path / "rep", "--graph", "delaunay", "--method", "betti",
            "--n-perm", "40", "--seed", "2", "--no-qc",
        ])
        return tmp_path / "rep"

    def test_auprc_row(self, sim_dir, report_dir, tmp_path):
        out = tmp_path / "eval.tsv"
        code = run_cli(["eval", "--report", report_dir / "report.tsv", "--labels",
                        sim_dir / "labels.tsv", "--metric", "auprc", "--n-boot", "50",
                        "--out", out])
        assert code == 0
        rows = read_tsv(out)
        assert rows[0]["metric"] == "auprc" and rows[0]["method"] == "betti"
        assert 0.0 <= float(rows[0]["value"]) <= 1.0
        assert rows[0]["sd"] != ""

    def test_sens_spec_rows(self, sim_dir, report_dir, tmp_path):
        out = tmp_path / "ss.tsv"
        run_cli(["eval", "--report", report_dir / "report.tsv", "--labels",
                 sim_dir / "labels.tsv", "--metric", "sens-spec", "--alpha", "0.1",
                 "--n-boot", "20", "--out", out])
        rows = read_tsv(out)
        assert {r["metric"] for r in rows} == {"sensitivity", "specificity"}

    def test_topk_requires_k(self, report_dir, sim_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["eval", "--report", report_dir / "report.tsv", "--labels",
                     sim_dir / "labels.tsv", "--metric", "topk", "--k", "0",
                     "--out", tmp_path / "x.tsv"])
        assert exc.value.code == 2

    def test_spearman_pairs(self, sim_dir, report_dir, tmp_path):
        run_cli([
            "test", "--counts", sim_dir / "counts.tsv", "--coords", sim_dir / "coords.tsv",
            "--out-dir", tmp_path / "rep2", "--graph", "delaunay", "--method", "moran",
            "--n-perm", "40", "--seed", "2", "--no-qc",
        ])
        out = tmp_path / "sp.tsv"
        code = run_cli(["eval", "--report", report_dir / "report.tsv", "--report",
                        tmp_path / "rep2" / "report.tsv", "--metric", "spearman",
                        "--out", out])
        assert code == 0
        rows = read_tsv(out)
        assert len(rows) == 1
        assert rows[0]["method"] == "betti|moran"
        assert -1.0 <= float(rows[0]["value"]) <= 1.0

    def test_spearman_without_ok_rows_is_runtime_error(self, tmp_path, capsys):
        report = ("feature\tmethod\tstatistic\tp_value\tq_value\trank\tstatus\n"
                  "g1\tbetti\tnan\tnan\tnan\t1\tDegenerateDataError: constant feature\n")
        for name in ("a.tsv", "b.tsv"):
            (tmp_path / name).write_text(report)
        code = run_cli(["eval", "--report", tmp_path / "a.tsv", "--report", tmp_path / "b.tsv",
                        "--metric", "spearman", "--out", tmp_path / "sp.tsv"])
        assert code == 1
        assert "topospat: error:" in capsys.readouterr().err
        assert not (tmp_path / "sp.tsv").exists()

    def test_label_misalignment_names_offender(self, report_dir, tmp_path):
        bad = tmp_path / "labels.tsv"
        bad.write_text("feature\tlabel\nnot_a_gene\t1\n")
        code = run_cli(["eval", "--report", report_dir / "report.tsv", "--labels", bad,
                        "--metric", "auprc", "--out", tmp_path / "x.tsv"])
        assert code == 1

    def test_perfectly_separating_report_scores_one(self, report_dir, tmp_path):
        # labels crafted to split the report exactly at a distinct p-value, so
        # the ranking separates the classes perfectly
        report = read_tsv(report_dir / "report.tsv")
        ps = sorted({float(r["p_value"]) for r in report})
        assert len(ps) >= 2
        cut = ps[len(ps) // 2]
        lines = ["feature\tlabel"]
        for row in report:
            lines.append(f"{row['feature']}\t{1 if float(row['p_value']) < cut else 0}")
        labels = tmp_path / "labels.tsv"
        labels.write_text("\n".join(lines) + "\n")
        out = tmp_path / "perfect.tsv"
        code = run_cli(["eval", "--report", report_dir / "report.tsv", "--labels", labels,
                        "--metric", "auprc", "--n-boot", "20", "--out", out])
        assert code == 0
        assert float(read_tsv(out)[0]["value"]) == 1.0


class TestSweepCommand:
    def test_small_grid(self, tmp_path):
        code = run_cli([
            "sweep", "--out-dir", tmp_path, "--axis", "zero-prop", "--values", "0.1,0.5",
            "--methods", "total,moran", "--pattern", "clusters", "--n-locations", "50",
            "--n-perm", "19", "--n-signal", "6", "--n-null", "6", "--n-boot", "20",
            "--seed", "11",
        ])
        assert code == 0
        rows = read_tsv(tmp_path / "sweep.tsv")
        # 1 pattern x 2 values x 2 methods x 3 metrics
        assert len(rows) == 12
        auprc_rows = [r for r in rows if r["metric"] == "auprc"]
        assert len(auprc_rows) == 4
        assert all(r["status"] == "ok" for r in rows)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["subcommand"] == "sweep"

    def test_rerun_identical(self, tmp_path):
        args = ["sweep", "--axis", "effect-scale", "--values", "1,3", "--methods",
                "total", "--pattern", "streaks", "--n-locations", "40", "--n-perm", "9",
                "--n-signal", "4", "--n-null", "4", "--n-boot", "10", "--seed", "2"]
        run_cli(args + ["--out-dir", tmp_path / "a"])
        run_cli(args + ["--out-dir", tmp_path / "b"])
        assert (tmp_path / "a/sweep.tsv").read_bytes() == (tmp_path / "b/sweep.tsv").read_bytes()

    def test_rows_carry_the_status_of_a_method_that_failed_everywhere(self, tmp_path):
        # an epsilon this small leaves the graph without edges, so every Moran
        # feature fails; the rows say why, not that no feature scored
        code = run_cli([
            "sweep", "--out-dir", tmp_path, "--axis", "zero-prop", "--values", "0.1",
            "--methods", "moran,total", "--graph", "epsilon", "--epsilon", "0.0001",
            "--n-locations", "30", "--n-perm", "9", "--n-signal", "3", "--n-null", "3",
            "--n-boot", "10",
        ])
        assert code == 0
        rows = read_tsv(tmp_path / "sweep.tsv")
        moran = [r for r in rows if r["method"] == "moran"]
        assert len(moran) == 3
        assert all(r["status"] == "DegenerateDataError: graph has no edges, so all spatial "
                                  "weights are zero" for r in moran)
        assert all(r["status"] == "ok" for r in rows if r["method"] == "total")

    def test_effect_scale_grid(self, tmp_path):
        code = run_cli([
            "sweep", "--out-dir", tmp_path, "--axis", "effect-scale",
            "--values", "6,5,4,3,2,1", "--methods", "total", "--pattern", "gradient",
            "--n-locations", "40", "--n-perm", "9", "--n-signal", "4", "--n-null", "4",
            "--n-boot", "10", "--seed", "3",
        ])
        assert code == 0
        rows = read_tsv(tmp_path / "sweep.tsv")
        auprc_rows = [r for r in rows if r["metric"] == "auprc"]
        assert len(auprc_rows) == 6  # one per grid value for the single method/pattern
        assert [float(r["axis_value"]) for r in auprc_rows] == [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]


@pytest.mark.parametrize("argv", [
    ["simulate", "--out-dir", "{tmp}", "--pattern", "clusters"],
    ["sweep", "--out-dir", "{tmp}", "--axis", "zero-prop", "--values", "0.1",
     "--methods", "total"],
    ["eval", "--report", "{tmp}/report.tsv", "--metric", "spearman", "--out", "{tmp}/e.tsv"],
], ids=["simulate", "sweep", "eval"])
def test_negative_seed_is_usage_error(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([a.format(tmp=tmp_path) for a in argv] + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed must be >= 0" in capsys.readouterr().err


def test_unparsable_sweep_value_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--out-dir", tmp_path, "--axis", "zero-prop", "--values", "0.1,abc",
                 "--methods", "total"])
    assert exc.value.code == 2
    assert "argument --values: could not convert string to float: 'abc'" in capsys.readouterr().err


_SWEEP = ["sweep", "--axis", "zero-prop", "--values", "0.1", "--methods", "total",
          "--n-locations", "30", "--n-perm", "9", "--n-signal", "3", "--n-null", "3",
          "--n-boot", "10"]


@pytest.mark.parametrize("extra, message", [
    (["--n-perm", "0"], "n_perm must be >= 1, got 0"),
    (["--max-levels", "0"], "max_levels must be >= 1, got 0"),
    (["--n-boot", "0"], "--n-boot must be >= 1"),
    (["--axis", "effect-scale", "--values", "2,0.5"], "effect_scale must be >= 1, got 0.5"),
    (["--values", "0.1,1.5"], "zero_prop must lie in [0, 1), got 1.5"),
    (["--n-locations", "0"], "n_locations must be >= 1"),
    (["--mu", "nan"], "mu must be a finite real, got nan"),
    (["--dispersion", "inf"], "dispersion must be a finite real, got inf"),
    (["--methods", ","], "argument --methods: no values given"),
    (["--methods", "total, tda"],
     "argument --methods: unknown method 'tda'; choose from ['betti', 'landscape', "
     "'total', 'moran']"),
], ids=["n_perm", "max_levels", "n_boot", "effect_scale", "zero_prop", "n_locations",
        "mu_nan", "dispersion_inf", "no_method", "unknown_method"])
def test_bad_sweep_setting_is_usage_error_before_any_work(extra, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(_SWEEP + ["--out-dir", tmp_path / "out"] + extra)
    assert exc.value.code == 2
    # argparse's own errors name the subcommand: "topospat sweep: error: ..."
    assert capsys.readouterr().err.endswith(f": error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, message", [
    (["--mu", "nan"], "mu must be a finite real, got nan"),
    (["--mu", "inf"], "mu must be a finite real, got inf"),
    (["--dispersion", "nan"], "dispersion must be a finite real, got nan"),
    (["--effect-scale", "nan"], "effect_scale must be a finite real, got nan"),
    (["--effect-sizes", "2,nan,3,4"], "each effect size must be a finite real, got nan"),
], ids=["mu_nan", "mu_inf", "dispersion_nan", "effect_scale_nan", "effect_size_nan"])
def test_bad_simulate_setting_is_usage_error_before_any_work(extra, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--pattern", "gradient", "--n-locations", "30",
                 "--out-dir", tmp_path / "out"] + extra)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f": error: {message}\n") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["test", "--counts", "c.tsv", "--coords", "l.tsv", "--graph", "rect", "--method", "betti",
      "--n-perm", "0"], "n_perm must be >= 1, got 0"),
    (["test", "--counts", "c.tsv", "--coords", "l.tsv", "--graph", "rect",
      "--method", "landscape", "--max-levels", "0"], "max_levels must be >= 1, got 0"),
    (["simulate", "--pattern", "clusters", "--zero-prop", "-0.1"],
     "zero_prop must lie in [0, 1), got -0.1"),
    (["simulate", "--pattern", "clusters", "--mu", "0"], "mu must be positive, got 0.0"),
    (["eval", "--report", "r.tsv", "--labels", "l.tsv", "--metric", "auprc", "--n-boot", "0"],
     "--n-boot must be >= 1"),
    *[([*command, "--alpha", alpha], f"--alpha must lie in (0, 1], got {float(alpha)}")
      for command in (_SWEEP, ["eval", "--report", "r.tsv", "--labels", "l.tsv",
                               "--metric", "sens-spec"])
      for alpha in ("-1", "nan", "2")],
    *[(["test", "--counts", "c.tsv", "--coords", "l.tsv", "--graph", graph, "--method",
        "betti", f"--{flag}", value], f"--{flag} must be a positive real, got {float(value)}")
      for graph, flag, value in [("hex", "pitch", "-1"), ("hex", "pitch", "nan"),
                                 ("epsilon", "epsilon", "nan"), ("epsilon", "epsilon", "inf"),
                                 ("epsilon", "epsilon", "-1")]],
], ids=["test_n_perm", "test_max_levels", "simulate_zero_prop", "simulate_mu", "eval_n_boot",
        "sweep_alpha_-1", "sweep_alpha_nan", "sweep_alpha_2",
        "eval_alpha_-1", "eval_alpha_nan", "eval_alpha_2",
        "test_pitch_-1", "test_pitch_nan", "test_epsilon_nan", "test_epsilon_inf",
        "test_epsilon_-1"])
def test_bad_setting_is_usage_error(argv, message, tmp_path, capsys):
    # the input files need not exist: the settings are checked first
    out = ["--out", tmp_path / "e.tsv"] if argv[0] == "eval" else ["--out-dir", tmp_path / "o"]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + out)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"topospat: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_sweep_manifest_lists_the_methods(tmp_path):
    assert run_cli(_SWEEP[:6] + ["total, moran,"] + _SWEEP[7:] + ["--out-dir", tmp_path]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["parameters"]["methods"] == ["total", "moran"]
    assert [r["method"] for r in read_tsv(tmp_path / "sweep.tsv")] == ["total"] * 3 + ["moran"] * 3


def test_eval_of_a_report_with_a_bad_row_is_runtime_error(tmp_path, capsys):
    report = tmp_path / "report.tsv"
    report.write_text("feature\tmethod\tstatistic\tp_value\tq_value\trank\tstatus\n"
                      "g1\tbetti\t0.5\tabc\t0.5\t1\tok\n")
    (tmp_path / "labels.tsv").write_text("feature\tlabel\ng1\t1\n")
    code = run_cli(["eval", "--report", report, "--labels", tmp_path / "labels.tsv",
                    "--metric", "auprc", "--out", tmp_path / "e.tsv"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"topospat: error: {report}: row 2: could not convert string to float: 'abc'\n")
    assert not (tmp_path / "e.tsv").exists()


@pytest.mark.parametrize("delim", ["\t", ","])
def test_feature_names_through_test_and_eval(tmp_path, capsys, delim):
    # Names a report row can hold go through `test` and back through `eval`;
    # a name with a tab, which would split its report row, is refused before
    # any feature is tested.
    rng = np.random.default_rng(4)
    ids = [f"s{i}" for i in range(30)]
    counts = rng.poisson(3.0, size=(4, 30)).tolist()

    def write_inputs(names, out):
        out.mkdir()
        for name, header, rows in (
                ("counts.tsv", ["feature"] + ids, [[n] + c for n, c in zip(names, counts)]),
                ("coords.tsv", ["id", "x", "y"], [[i] + xy for i, xy in
                                                  zip(ids, rng.random((30, 2)).tolist())]),
                ("labels.tsv", ["feature", "label"], [[n, k % 2] for k, n in enumerate(names)])):
            with open(out / name, "w", newline="", encoding="utf-8") as f:
                writer = csv.writer(f, delimiter="\t" if name == "labels.tsv" else delim,
                                    lineterminator="\n")
                writer.writerows([header] + rows)
        return ["test", "--counts", out / "counts.tsv", "--coords", out / "coords.tsv",
                "--out-dir", out / "rep", "--graph", "delaunay", "--method", "moran",
                "--n-perm", "9", "--no-qc"]

    names = ['g "quoted"', "g, comma", "gène 3", "g4"]
    assert run_cli(write_inputs(names, tmp_path / "good")) == 0
    report = tmp_path / "good" / "rep" / "report.tsv"
    assert sorted(r.feature_name for r in read_report(report)) == sorted(names)
    assert run_cli(["eval", "--report", report, "--labels", tmp_path / "good" / "labels.tsv",
                    "--metric", "auprc", "--n-boot", "5", "--out", tmp_path / "e.tsv"]) == 0
    assert read_tsv(tmp_path / "e.tsv")[0]["metric"] == "auprc"

    capsys.readouterr()
    names[1] = "bad\tname"
    assert run_cli(write_inputs(names, tmp_path / "bad")) == 1
    assert "feature name 'bad\\tname' holds a tab" in capsys.readouterr().err
    assert not (tmp_path / "bad" / "rep" / "report.tsv").exists()


def test_input_hash_reads_in_chunks(tmp_path, monkeypatch):
    import hashlib
    import io

    from topospat import cli

    path = tmp_path / "big.bin"
    path.write_bytes(np.random.default_rng(3).bytes(5 * (1 << 19) + 7))  # 2.5 MiB
    reads = []
    real_read = io.BufferedReader.read

    class Reader(io.BufferedReader):
        def read(self, size=-1):
            reads.append(size)
            return real_read(self, size)

    monkeypatch.setattr(cli, "open", lambda p, mode: Reader(io.FileIO(p, mode)), raising=False)
    assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert reads and all(0 < size <= 1 << 20 for size in reads)


@pytest.mark.parametrize("bad", ["counts", "labels", "report"])
def test_non_utf8_input_is_runtime_error(bad, tmp_path, capsys):
    files = {"counts": "feature\ts1\ng\u00e8ne\t1\n", "coords": "id\tx\ty\ns1\t0\t0\n",
             "labels": "feature\tlabel\ng\u00e8ne\t1\n",
             "report": "feature\tmethod\tstatistic\tp_value\tq_value\trank\tstatus\n"
                       "g\u00e8ne\tmoran\t0.1\t0.5\t0.5\t1\tok\n"}
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode("latin-1" if name == bad else "utf-8"))
    if bad == "counts":
        argv = ["test", "--counts", tmp_path / "counts", "--coords", tmp_path / "coords",
                "--out-dir", tmp_path / "out", "--graph", "delaunay", "--method", "betti"]
    else:
        argv = ["eval", "--report", tmp_path / "report", "--labels", tmp_path / "labels",
                "--metric", "auprc", "--out", tmp_path / "eval.tsv"]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"topospat: error: {tmp_path / bad}: not UTF-8 text (")


@pytest.mark.parametrize("argv, config", [
    (["simulate", "--out-dir", "o", "--pattern", "clusters"], SimConfig),
    (["test", "--counts", "c", "--coords", "l", "--out-dir", "o", "--graph", "rect",
      "--method", "total"], TestConfig),
], ids=["simulate", "test"])
def test_every_config_field_is_a_flag(argv, config):
    # the CLI builds each config from the flags named like its fields, and a
    # field without a flag would silently keep its default
    flags = vars(build_parser().parse_args(argv))
    assert {f.name for f in dataclasses.fields(config)} <= set(flags)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert "topospat" in capsys.readouterr().out


def _python(code, *args, env=None):
    """Run `code` in a fresh interpreter with the package on its path; stdout."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import topospat

    src = str(Path(topospat.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is slow to import and `topospat test` never needs it
    out = _python("import sys, topospat.cli; print('scipy.stats' in sys.modules)")
    assert out.strip() == "False"


# runs `topospat test` with the given arguments, then lists the scipy modules loaded
_TEST_THEN_LIST_SCIPY = """
import sys
from topospat.cli import main
code = main(sys.argv[1:])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

_TEST_THEN_LIST_POOL = """
import sys
from topospat.cli import main
code = main(sys.argv[1:])
print(code, sorted(m for m in sys.modules
                   if m.split(".")[0] == "multiprocessing" or m == "concurrent.futures.process"))
"""


def _lattice_inputs(tmp_path, graph_kind, rows=6, cols=6, n_features=4, seed=0):
    """Counts and coordinates of rows x cols spots: a hex or rect lattice, or
    uniform random points for "delaunay"."""
    import numpy as np
    from topospat import Dataset, write_dataset
    from oracles import hex_lattice

    if graph_kind == "hex":
        pts = hex_lattice(rows, cols)
    elif graph_kind == "delaunay":
        pts = np.random.default_rng(seed + 1).random((rows * cols, 2))
    else:
        pts = np.asarray([(float(x), float(y)) for y in range(rows) for x in range(cols)])
    rng = np.random.default_rng(seed)
    ds = Dataset(locations=pts, values=rng.integers(0, 9, (n_features, len(pts))).astype(float),
                 feature_names=[f"g{i}" for i in range(n_features)])
    write_dataset(ds, tmp_path / "c.tsv", tmp_path / "l.tsv")
    return tmp_path / "c.tsv", tmp_path / "l.tsv"


class TestImportFootprint:
    """No run loads a scipy module: Moran, landscape, betti and total tests
    alike, and Spearman evaluation."""

    @pytest.mark.parametrize("graph_kind, method", [
        pytest.param("hex", "moran", id="hex"),
        pytest.param("rect", "moran", id="rect"),
        pytest.param("hex", "landscape", id="hex-landscape"),
        pytest.param("rect", "landscape", id="rect-landscape"),
        pytest.param("delaunay", "landscape", id="delaunay-landscape"),
        pytest.param("delaunay", "moran", id="delaunay-moran"),
    ])
    def test_lattice_moran_loads_no_scipy(self, graph_kind, method, tmp_path):
        counts, coords = _lattice_inputs(tmp_path, graph_kind)
        out = _python(_TEST_THEN_LIST_SCIPY, "test", "--counts", counts, "--coords", coords,
                      "--out-dir", tmp_path / "out", "--graph", graph_kind,
                      "--method", method, "--n-perm", "9", "--no-qc")
        assert out.strip() == "0 []"
        assert len(read_tsv(tmp_path / "out" / "report.tsv")) == 4

    def test_eval_spearman_loads_no_scipy_stats(self, tmp_path):
        header = "feature\tmethod\tstatistic\tp_value\tq_value\trank\tstatus\n"
        for name, ranks in (("a.tsv", [1, 2, 3, 4]), ("b.tsv", [2, 1, 4, 3])):
            (tmp_path / name).write_text(header + "".join(
                f"g{i}\tmoran\t0.5\t0.1\t0.2\t{r}\tok\n" for i, r in enumerate(ranks)))
        out = _python(_TEST_THEN_LIST_SCIPY, "eval", "--report", tmp_path / "a.tsv",
                      "--report", tmp_path / "b.tsv", "--metric", "spearman",
                      "--out", tmp_path / "sp.tsv")
        code, modules = out.split(" ", 1)
        assert code == "0" and "scipy.stats" not in modules
        assert float(read_tsv(tmp_path / "sp.tsv")[0]["value"]) == pytest.approx(0.6)

    def test_one_worker_run_loads_no_process_pool(self, tmp_path):
        counts, coords = _lattice_inputs(tmp_path, "hex")
        out = _python(_TEST_THEN_LIST_POOL, "test", "--counts", counts, "--coords", coords,
                      "--out-dir", tmp_path / "out", "--graph", "hex",
                      "--method", "betti", "--n-perm", "9", "--no-qc", "--threads", "1")
        assert out.strip() == "0 []"
        assert len(read_tsv(tmp_path / "out" / "report.tsv")) == 4

    def test_delaunay_betti_imports_what_it_needs(self, sim_dir, tmp_path):
        # Betti and total runs on zero-inflated counts, which take the kernels'
        # floor path, and a betti run on continuous values, which have no floor
        # plateau and take the whole-graph path: the triangulation and the
        # spanning forest of every path are built without scipy
        from topospat import load_dataset, persistence

        counts = load_dataset(sim_dir / "counts.tsv", sim_dir / "coords.tsv").values
        assert all(persistence._dense_ranks(row)[2] is not None for row in counts)
        rng = np.random.default_rng(11)
        (tmp_path / "continuous.tsv").write_text(
            "feature\t" + "\t".join(f"loc{i:04d}" for i in range(counts.shape[1])) + "\n"
            + "".join(f"c{f}\t" + "\t".join(map(repr, rng.lognormal(size=counts.shape[1]).tolist()))
                      + "\n" for f in range(4)))
        continuous = load_dataset(tmp_path / "continuous.tsv", sim_dir / "coords.tsv").values
        assert all(persistence._dense_ranks(row)[2] is None for row in continuous)
        for method, counts_path in (("betti", sim_dir / "counts.tsv"),
                                    ("total", sim_dir / "counts.tsv"),
                                    ("betti", tmp_path / "continuous.tsv")):
            out_dir = tmp_path / f"{method}-{counts_path.stem}"
            out = _python(_TEST_THEN_LIST_SCIPY, "test", "--counts", counts_path,
                          "--coords", sim_dir / "coords.tsv", "--out-dir", out_dir,
                          "--graph", "delaunay", "--method", method, "--n-perm", "9", "--no-qc")
            assert out.strip() == "0 []", (method, counts_path.name, out)
            assert len(read_tsv(out_dir / "report.tsv")) == len(
                load_dataset(counts_path, sim_dir / "coords.tsv").values)

    def test_graph_constructors_after_cold_import(self):
        out = _python(
            "import numpy as np\n"
            "from topospat import GeometryError, delaunay_graph, epsilon_graph\n"
            "pts = np.random.default_rng(0).random((30, 2))\n"
            "print(epsilon_graph(pts, 0.3).n_edges > 0, delaunay_graph(pts).n_edges > 0)\n"
            "try:\n"
            "    delaunay_graph([(0, 0), (1, 0), (2, 0)])\n"
            "except GeometryError:\n"
            "    print('collinear')\n"
        )
        assert out.split() == ["True", "True", "collinear"]


def test_moran_report_is_the_same_for_every_blas_thread_setting(tmp_path):
    # A 4096-spot hex lattice has about 12000 edges, enough for OpenBLAS to
    # split a dot product over threads; the Moran statistic must not depend
    # on it.
    import os

    counts, coords = _lattice_inputs(tmp_path, "hex", rows=64, cols=64, n_features=3, seed=5)
    reports = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out_dir = tmp_path / f"out_{threads}"
        _python("import sys\nfrom topospat.cli import main\nsys.exit(main(sys.argv[1:]))",
                "test", "--counts", counts, "--coords", coords, "--out-dir", out_dir,
                "--graph", "hex", "--method", "moran", "--n-perm", "19", "--no-qc",
                "--threads", "1", env=env)
        reports.append((out_dir / "report.tsv").read_bytes())
    assert reports[0] == reports[1]


def test_every_name_the_bench_traces_resolves():
    # bench/traced_cli.py times each layer by replacing these attributes; a
    # deleted or renamed one would otherwise fail only a traced benchmark run
    import importlib.util
    import sys
    from pathlib import Path

    import topospat.cli  # noqa: F401  (loads every module the table names)

    path = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    assert traced_cli.WRAPPED
    for module_name, attr, _, _ in traced_cli.WRAPPED:
        assert callable(getattr(sys.modules[module_name], attr, None)), (module_name, attr)
