"""Command-line entry point: simulate, test, eval and sweep subcommands.

Every subcommand resolves its full parameter set up front, hashes its inputs
and writes a manifest next to its outputs, so a result directory is
self-describing and reruns with the same flags reproduce the result tables
byte for byte. Result files are written atomically (temp file + rename).

Exit codes: 0 success, 2 usage error, 1 runtime error.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .evaluate import (
    EvalResult,
    auprc,
    bootstrap_sd,
    sensitivity_specificity,
    spearman,
    top_k_true_proportion,
)
from .exceptions import LoadError, ParameterError, TopospatError
from .ingest import (
    Dataset,
    atomic_write,
    exclude_prefixes,
    load_dataset,
    load_labels,
    qc_filter,
    shifted_log_transform,
    write_dataset,
    write_table,
)
from .simulate import CountDistribution, SimConfig, SpatialPattern, simulate_dataset
from .spatial_graph import (
    delaunay_graph,
    epsilon_graph,
    hex_grid_graph,
    rect_grid_graph,
)
from .spatial_stats import SummaryMethod, TestConfig, read_report, run_battery, write_report

_METHOD_NAMES = [m.value for m in SummaryMethod]
_PATTERN_NAMES = [p.value for p in SpatialPattern]


def _parse_p(text: str) -> float:
    if text == "inf":
        return math.inf
    if text in ("1", "2"):
        return float(text)
    raise argparse.ArgumentTypeError(f"p must be 1, 2 or inf, got {text!r}")


def _method_name(text: str) -> str:
    name = text.strip()
    if name not in _METHOD_NAMES:
        raise ValueError(f"unknown method {name!r}; choose from {_METHOD_NAMES}")
    return name


def _comma_list(parse):
    """An argparse type: the non-blank items of a comma list, converted by `parse`."""
    def convert(text: str) -> list:
        try:
            items = [parse(v) for v in text.split(",") if v.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not items:
            raise argparse.ArgumentTypeError("no values given")
        return items
    return convert


def _config(kind, args, **override):
    """A SimConfig or TestConfig from the flags named like its fields; fields
    without a flag keep their defaults, and `override` takes precedence. A
    value the config rejects is a usage error."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(kind)
             if hasattr(args, f.name)}
    try:
        return kind(**{**flags, **override})
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, subcommand: str, params: dict, seed,
                    input_hashes: dict, timings: dict, outputs: list[str], **extra) -> None:
    manifest = {
        "tool": "topospat",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "seed": seed,
        "input_hashes": input_hashes,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "outputs": outputs,
        **extra,
    }
    atomic_write(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    cfg = _config(SimConfig, args)
    out = Path(args.out_dir)
    timings = {}
    t0 = time.perf_counter()
    ds = simulate_dataset(cfg)
    timings["simulate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    write_dataset(ds, out / "counts.tsv", out / "coords.tsv", out / "labels.tsv")
    timings["write"] = time.perf_counter() - t0

    params = {k: (v.value if hasattr(v, "value") else list(v) if isinstance(v, tuple) else v)
              for k, v in vars(cfg).items()}
    _write_manifest(out, "simulate", params, cfg.seed, {}, timings,
                    ["counts.tsv", "coords.tsv", "labels.tsv"])
    return 0


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------

def _build_graph(args, ds: Dataset):
    if args.graph == "epsilon":
        return epsilon_graph(ds.locations, args.epsilon)
    if args.graph == "delaunay":
        return delaunay_graph(ds.locations)
    if args.graph == "hex":
        return hex_grid_graph(ds.locations, pitch=args.pitch, strict=args.strict)
    return rect_grid_graph(ds.locations)


def _cmd_test(args) -> int:
    cfg = _config(TestConfig, args)
    out = Path(args.out_dir)
    timings = {}
    t0 = time.perf_counter()
    ds = load_dataset(args.counts, args.coords)
    if args.exclude_prefix:
        ds = exclude_prefixes(ds, args.exclude_prefix)
    if not args.no_qc:
        ds = qc_filter(ds)
    if not args.allow_raw:
        ds = shifted_log_transform(ds)
    timings["ingest"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    graph = _build_graph(args, ds)
    timings["graph"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    reports = run_battery(ds, graph, cfg, threads=args.threads, allow_raw=args.allow_raw)
    timings["battery"] = time.perf_counter() - t0

    write_report(sorted(reports, key=lambda r: r.rank), out / "report.tsv", cfg, meta={
        "graph": graph.kind.value, "graph_params": graph.params, "max_levels": cfg.max_levels,
        "n_features": ds.n_features, "n_locations": ds.n_locations,
    })
    params = {k: v for k, v in vars(args).items() if k != "func"}
    params["p"] = "inf" if math.isinf(args.p) else args.p
    _write_manifest(out, "test", params, args.seed,
                    {"counts": _sha256(args.counts), "coords": _sha256(args.coords)},
                    timings, ["report.tsv", "report.tsv.json"], dataset=ds.metadata)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _scores(reports, labels: dict[str, bool], source):
    """Names, scores (-p), q-values, labels and method of the ok reports;
    `source` names the reports in the error for a feature without a label."""
    rows = [r for r in reports if r.ok]
    missing = [r.feature_name for r in rows if r.feature_name not in labels]
    if missing:
        raise LoadError(f"{source}: features absent from the label table: "
                        f"{', '.join(sorted(missing)[:5])}")
    names = [r.feature_name for r in rows]
    return (names, np.asarray([-r.p_value for r in rows]), np.asarray([r.q_value for r in rows]),
            np.asarray([labels[n] for n in names], dtype=bool),
            rows[0].method if rows else "unknown")


def _cmd_eval(args) -> int:
    labels = load_labels(args.labels) if args.labels else {}
    results: list[EvalResult] = []
    if args.metric == "spearman":
        if len(args.report) < 2:
            raise TopospatError("--metric spearman needs at least two --report files")
        parsed = []
        for path in args.report:
            reports = {r.feature_name: r for r in read_report(path) if r.ok}
            if not reports:
                raise TopospatError(f"{path}: no feature has status ok")
            parsed.append((path, reports))
        for (p1, r1), (p2, r2) in itertools.combinations(parsed, 2):
            common = sorted(set(r1) & set(r2))
            mismatch = sorted(set(r1) ^ set(r2))
            if mismatch:
                raise LoadError(
                    f"reports {p1} and {p2} disagree on features: {', '.join(mismatch[:5])}"
                )
            x = [r1[n].rank for n in common]
            y = [r2[n].rank for n in common]
            m1 = next(iter(r1.values())).method
            m2 = next(iter(r2.values())).method
            results.append(EvalResult("spearman", spearman(x, y),
                                      method=f"{m1}|{m2}", params={"n": len(common)}))
    else:
        for path in args.report:
            names, scores, qs, labs, method = _scores(read_report(path), labels, path)
            if args.metric == "auprc":
                results.append(EvalResult(
                    "auprc", auprc(scores, labs), method=method,
                    bootstrap_sd=bootstrap_sd(auprc, scores, labs, n_boot=args.n_boot,
                                              seed=args.seed),
                    params={"n_boot": args.n_boot}))
            elif args.metric == "sens-spec":
                sens, spec = sensitivity_specificity(qs, labs, alpha=args.alpha)
                sd_sens, sd_spec = bootstrap_sd(
                    lambda q, l: sensitivity_specificity(q, l, alpha=args.alpha),
                    qs, labs, n_boot=args.n_boot, seed=args.seed)
                results.append(EvalResult("sensitivity", sens, method=method,
                                          bootstrap_sd=sd_sens, params={"alpha": args.alpha}))
                results.append(EvalResult("specificity", spec, method=method,
                                          bootstrap_sd=sd_spec, params={"alpha": args.alpha}))
            else:  # topk
                results.append(EvalResult(
                    "top_k_true_proportion",
                    top_k_true_proportion(scores, labs, args.k, names=names),
                    method=method, params={"k": args.k}))

    write_table(args.out, ["metric", "method", "value", "sd", "params"],
                ([r.metric, r.method, r.value, "" if r.bootstrap_sd is None else r.bootstrap_sd,
                  ";".join(f"{k}={v}" for k, v in r.params.items())] for r in results))
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _score_method(args, ds: Dataset, graph, cfg: TestConfig) -> tuple[str, dict]:
    """Status and {metric: (value, sd)} of one method on one sweep cell. When
    every feature failed, the status is the first feature's."""
    try:
        reports = run_battery(ds, graph, cfg, threads=args.threads)
        if reports and not any(r.ok for r in reports):
            return reports[0].status, {}
        _, scores, qs, labs, _ = _scores(
            reports, dict(zip(ds.feature_names, ds.labels.tolist())), "simulated dataset")
        val = auprc(scores, labs)
        sd = bootstrap_sd(auprc, scores, labs, n_boot=args.n_boot, seed=args.seed)
        sens, spec = sensitivity_specificity(qs, labs, alpha=args.alpha)
    except TopospatError as exc:
        return f"{type(exc).__name__}: {exc}", {}
    return "ok", {"auprc": (val, sd), "sensitivity": (sens, math.nan),
                  "specificity": (spec, math.nan)}


def _cmd_sweep(args) -> int:
    out = Path(args.out_dir)
    # every config first, so a bad setting stops the sweep before any work
    tests = [(method, _config(TestConfig, args, method=method)) for method in args.methods]
    axis_field = args.axis.replace("-", "_")
    cells = []
    for pat_idx, pattern in enumerate(args.pattern or ["clusters"]):
        for val_idx, axis_value in enumerate(args.values):
            cell_seed = int(np.random.SeedSequence(
                entropy=args.seed, spawn_key=(pat_idx, val_idx)).generate_state(1)[0])
            cells.append((pattern, axis_value, _config(
                SimConfig, args, pattern=pattern, seed=cell_seed, **{axis_field: axis_value})))

    rows = []
    timings = {}
    for pattern, axis_value, sim_cfg in cells:
        t0 = time.perf_counter()
        try:
            # simulated data skips QC: every simulated feature must be scored
            ds = shifted_log_transform(simulate_dataset(sim_cfg))
            graph = _build_graph(args, ds)
            cell_status = "ok"
        except TopospatError as exc:
            cell_status = f"{type(exc).__name__}: {exc}"
        for method, cfg in tests:
            status, scores = cell_status, {}
            if status == "ok":
                status, scores = _score_method(args, ds, graph, cfg)
            for metric in ("auprc", "sensitivity", "specificity"):
                value, sd = scores.get(metric, (math.nan, math.nan))
                rows.append((pattern, args.axis, axis_value, method, metric,
                             value, sd, status))
        timings[f"{pattern}@{axis_value:g}"] = time.perf_counter() - t0

    header = ["pattern", "axis", "axis_value", "method", "metric", "value", "sd", "status"]
    write_table(out / "sweep.tsv", header, rows)

    params = {k: v for k, v in vars(args).items() if k != "func"}
    params["p"] = "inf" if math.isinf(args.p) else args.p
    _write_manifest(out, "sweep", params, args.seed, {}, timings, ["sweep.tsv"])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topospat",
        description="Detect spatially variable features via persistent homology "
                    "of superlevel-set filtrations on spatial graphs.",
    )
    parser.add_argument("--version", action="version", version=f"topospat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a labelled synthetic dataset")
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--pattern", required=True, choices=_PATTERN_NAMES)
    sim.add_argument("--n-locations", type=int, default=400)
    sim.add_argument("--mu", type=float, default=1.0)
    sim.add_argument("--dispersion", type=float, default=0.3)
    sim.add_argument("--zero-prop", type=float, default=0.0)
    sim.add_argument("--effect-sizes", type=lambda s: tuple(float(x) for x in s.split(",")),
                     default=None, metavar="E1,E2,...")
    sim.add_argument("--effect-scale", type=float, default=1.0)
    sim.add_argument("--distribution", choices=[d.value for d in CountDistribution],
                     default="negbinomial")
    sim.add_argument("--n-signal", type=int, default=50)
    sim.add_argument("--n-null", type=int, default=50)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--continuous-gradient", action="store_true")
    sim.set_defaults(func=_cmd_simulate)

    test = sub.add_parser("test", help="run the spatial-dependence battery on a dataset")
    test.add_argument("--counts", required=True)
    test.add_argument("--coords", required=True)
    test.add_argument("--out-dir", required=True)
    test.add_argument("--graph", required=True, choices=["epsilon", "delaunay", "hex", "rect"])
    test.add_argument("--epsilon", type=float, default=None)
    test.add_argument("--pitch", type=float, default=None)
    test.add_argument("--strict", action="store_true")
    test.add_argument("--method", required=True, choices=_METHOD_NAMES)
    test.add_argument("--p", type=_parse_p, default=2.0)
    test.add_argument("--n-perm", type=int, default=1000)
    test.add_argument("--max-levels", type=int, default=5)
    test.add_argument("--seed", type=int, default=0)
    test.add_argument("--exclude-prefix", action="append", default=[])
    test.add_argument("--threads", type=int, default=1)
    test.add_argument("--no-qc", action="store_true")
    test.add_argument("--allow-raw", action="store_true")
    test.set_defaults(func=_cmd_test)

    ev = sub.add_parser("eval", help="score a report against ground-truth labels")
    ev.add_argument("--report", action="append", required=True)
    ev.add_argument("--labels", default=None)
    ev.add_argument("--metric", required=True,
                    choices=["auprc", "sens-spec", "topk", "spearman"])
    ev.add_argument("--alpha", type=float, default=0.05)
    ev.add_argument("--k", type=int, default=None)
    ev.add_argument("--n-boot", type=int, default=1000)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=_cmd_eval)

    sw = sub.add_parser("sweep", help="simulate/test/evaluate over a parameter grid")
    sw.add_argument("--out-dir", required=True)
    sw.add_argument("--axis", required=True, choices=["zero-prop", "effect-scale"])
    sw.add_argument("--values", required=True, type=_comma_list(float), metavar="V1,V2,...")
    sw.add_argument("--methods", required=True, type=_comma_list(_method_name),
                    metavar="M1,M2,...")
    sw.add_argument("--pattern", action="append", choices=_PATTERN_NAMES)
    sw.add_argument("--n-locations", type=int, default=400)
    sw.add_argument("--mu", type=float, default=1.0)
    sw.add_argument("--dispersion", type=float, default=0.3)
    sw.add_argument("--zero-prop", type=float, default=0.1)
    sw.add_argument("--distribution", choices=[d.value for d in CountDistribution],
                    default="negbinomial")
    sw.add_argument("--n-signal", type=int, default=50)
    sw.add_argument("--n-null", type=int, default=50)
    sw.add_argument("--graph", choices=["delaunay", "epsilon"], default="delaunay")
    sw.add_argument("--epsilon", type=float, default=None)
    sw.add_argument("--p", type=_parse_p, default=2.0)
    sw.add_argument("--n-perm", type=int, default=200)
    sw.add_argument("--max-levels", type=int, default=5)
    sw.add_argument("--alpha", type=float, default=0.05)
    sw.add_argument("--n-boot", type=int, default=1000)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--threads", type=int, default=1)
    sw.set_defaults(func=_cmd_sweep)
    return parser


def _validate_cross_flags(parser: argparse.ArgumentParser, args) -> None:
    if args.command in ("test", "sweep"):
        if getattr(args, "graph", None) == "epsilon" and args.epsilon is None:
            parser.error("--graph epsilon requires --epsilon")
        for flag in ("epsilon", "pitch"):  # the graph builders' checks, before ingest
            value = getattr(args, flag, None)
            if value is not None and not (math.isfinite(value) and value > 0):
                parser.error(f"--{flag} must be a positive real, got {value}")
        if args.threads < 1:
            parser.error("--threads must be >= 1")
    # `test` masks its seed to 64 bits; the others seed numpy's SeedSequence
    if args.command in ("simulate", "sweep", "eval") and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.command in ("eval", "sweep") and args.n_boot < 1:
        parser.error("--n-boot must be >= 1")
    if args.command in ("eval", "sweep") and not 0 < args.alpha <= 1:  # NaN too
        parser.error(f"--alpha must lie in (0, 1], got {args.alpha}")
    if args.command == "eval":
        if args.metric == "topk":
            if args.k is None or args.k < 1:
                parser.error("--metric topk requires --k >= 1")
        if args.metric != "spearman" and not args.labels:
            parser.error(f"--metric {args.metric} requires --labels")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_cross_flags(parser, args)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:  # from _config, before any work
        parser.error(str(exc))
    except (TopospatError, OSError) as exc:
        print(f"topospat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
