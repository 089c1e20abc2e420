import json

import pytest

from topospat.cli import main


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

    def test_threads_env_default(self, sim_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("TOPOSPAT_THREADS", "2")
        code = run_cli([
            "test", "--counts", sim_dir / "counts.tsv", "--coords", sim_dir / "coords.tsv",
            "--out-dir", tmp_path, "--graph", "delaunay", "--method", "total",
            "--n-perm", "10", "--seed", "1", "--no-qc",
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["threads"] == 2

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


def _lattice_inputs(tmp_path, graph_kind, rows=6, cols=6, n_features=4, seed=0):
    import numpy as np
    from topospat import Dataset, write_dataset
    from oracles import hex_lattice

    if graph_kind == "hex":
        pts = hex_lattice(rows, cols)
    else:
        pts = np.asarray([(float(x), float(y)) for y in range(rows) for x in range(cols)])
    rng = np.random.default_rng(seed)
    ds = Dataset(locations=pts, values=rng.integers(0, 9, (n_features, len(pts))).astype(float),
                 feature_names=[f"g{i}" for i in range(n_features)])
    write_dataset(ds, tmp_path / "c.tsv", tmp_path / "l.tsv")
    return tmp_path / "c.tsv", tmp_path / "l.tsv"


class TestImportFootprint:
    """Lattice Moran runs load no scipy module; the graphs and kernels that
    need scipy import it themselves."""

    @pytest.mark.parametrize("graph_kind", ["hex", "rect"])
    def test_lattice_moran_loads_no_scipy(self, graph_kind, tmp_path):
        counts, coords = _lattice_inputs(tmp_path, graph_kind)
        out = _python(_TEST_THEN_LIST_SCIPY, "test", "--counts", counts, "--coords", coords,
                      "--out-dir", tmp_path / "out", "--graph", graph_kind,
                      "--method", "moran", "--n-perm", "9", "--no-qc")
        assert out.strip() == "0 []"
        assert len(read_tsv(tmp_path / "out" / "report.tsv")) == 4

    def test_delaunay_betti_imports_what_it_needs(self, sim_dir, tmp_path):
        out = _python(_TEST_THEN_LIST_SCIPY, "test", "--counts", sim_dir / "counts.tsv",
                      "--coords", sim_dir / "coords.tsv", "--out-dir", tmp_path,
                      "--graph", "delaunay", "--method", "betti", "--n-perm", "9", "--no-qc")
        code, modules = out.split(" ", 1)
        assert code == "0"
        assert "scipy.spatial" in modules and "scipy.sparse.csgraph" in modules
        assert len(read_tsv(tmp_path / "report.tsv")) == 16

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
