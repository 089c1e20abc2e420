"""Workload definitions and their seeded input generators.

Each workload is one `topospat test` invocation on generated TSVs. The inputs
depend on the seed alone, and the same seed gives byte-identical files.
`clusters-betti` goes through `topospat.simulate`; the continuous and the
Visium-lattice generators live here because `simulate` only emits counts.
Generation is never timed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Visium capture area: 78 columns x 64 rows of spots on a hexagonal lattice.
VISIUM_COLS, VISIUM_ROWS = 78, 64
# Default QC of `topospat test` (ingest.qc_filter), mirrored to predict which
# features reach the battery.
QC_MIN_FEATURE_TOTAL = 10
QC_MIN_PRESENCE_FRACTION = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str          # "clusters", "continuous" or "visium"
    n_features: int         # features in a timed run's input
    n_ref_features: int     # features in the reference input
    cli_args: tuple[str, ...]
    threads: int


WORKLOADS = {w.name: w for w in (
    Workload(
        "clusters-betti",
        "acceptance-shaped clusters counts, betti on delaunay: the union-find sweep "
        "(persistence) dominates; ingest and graph build are negligible",
        "clusters", 20, 6,
        ("--graph", "delaunay", "--method", "betti", "--n-perm", "200", "--no-qc"), 1),
    Workload(
        "continuous-landscape",
        "every value distinct and continuous, landscape on delaunay: "
        "summaries.landscape dominates and grows with the pair count",
        "continuous", 4, 2,
        ("--graph", "delaunay", "--method", "landscape", "--n-perm", "200", "--no-qc"), 1),
    Workload(
        "visium-moran",
        "wide sparse counts on a 4992-spot hex lattice, QC on, moran: import and "
        "ingest dominate set-up and persistence is never called",
        "visium", 400, 120,
        ("--graph", "hex", "--method", "moran", "--n-perm", "100",
         "--exclude-prefix", "MT-"), 1),
    Workload(
        "visium-moran-2w",
        "visium-moran inputs with --threads 2: the only workload on the "
        "process-pool path of run_battery",
        "visium", 400, 120,
        ("--graph", "hex", "--method", "moran", "--n-perm", "100",
         "--exclude-prefix", "MT-"), 2),
)}


# Workloads defined here but left out of BENCHMARK.json, with the reason.
# They still run by name, to reproduce the finding.
DROPPED = {
    "visium-moran-2w": (
        "unsteady by a known defect: each pool worker's OpenBLAS dot product "
        "oversubscribes the 2 cores, so one battery takes 10-33 s from run to run "
        "(4-5 s at --threads 1); no run length fits the benchmark's time budget "
        "with a spread under the largest bound"),
}


@dataclass(frozen=True)
class Inputs:
    counts: Path
    coords: Path
    expected_features: tuple[str, ...]   # names that must appear in the report


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,))))


def _write_tsv(counts_path: Path, coords_path: Path, ids, xy, names, rows) -> None:
    """Counts (features x locations) and coordinates in the format load_dataset reads."""
    with open(counts_path, "w", encoding="utf-8") as fh:
        fh.write("feature\t" + "\t".join(ids) + "\n")
        for name, row in zip(names, rows):
            fh.write(name + "\t" + "\t".join(row) + "\n")
    with open(coords_path, "w", encoding="utf-8") as fh:
        fh.write("id\tx\ty\n")
        for lid, (x, y) in zip(ids, xy):
            fh.write(f"{lid}\t{float(x)!r}\t{float(y)!r}\n")


def _clusters(seed: int, n_features: int, counts: Path, coords: Path) -> tuple[str, ...]:
    from topospat.ingest import write_dataset
    from topospat.simulate import SimConfig, simulate_dataset

    n_signal = n_features // 2
    ds = simulate_dataset(SimConfig(pattern="clusters", zero_prop=0.1, n_locations=400,
                                    n_signal=n_signal, n_null=n_features - n_signal,
                                    seed=seed))
    write_dataset(ds, counts, coords)
    return tuple(ds.feature_names)


def _continuous(seed: int, n_features: int, counts: Path, coords: Path) -> tuple[str, ...]:
    """Log-normal background; half the features add a Gaussian bump of width 0.15.

    Values are continuous and non-negative, so every value of a feature is
    distinct (checked) and each diagram has as many pairs as local maxima.
    """
    xy = _rng(seed, 0).random((400, 2))
    names, rows = [], []
    for i in range(n_features):
        rng = _rng(seed, 1 + i)
        vals = np.exp(0.5 * rng.standard_normal(len(xy)))
        if i % 2 == 0:
            centre = 0.2 + 0.6 * rng.random(2)
            vals += 3.0 * np.exp(-np.sum((xy - centre) ** 2, axis=1) / (2 * 0.15 ** 2))
        if len(np.unique(np.log(vals + 2.0))) != len(vals):
            raise RuntimeError(f"continuous feature {i} has tied values")
        names.append(f"cont{i + 1:04d}")
        rows.append([repr(float(v)) for v in vals])
    _write_tsv(counts, coords, [f"loc{i:04d}" for i in range(len(xy))], xy, names, rows)
    return tuple(names)


def _visium(seed: int, n_features: int, counts: Path, coords: Path) -> tuple[str, ...]:
    """Sparse Poisson counts on the Visium lattice, shaped so most features fail QC.

    Features come in three expression classes fixed by their index, so the
    number that pass QC is the same for every seed. One in eight is highly
    expressed, which keeps every spot's total far above QC's location
    threshold; a fifth of these carry the `MT-` prefix. One in six is
    moderately expressed (about 150 nonzero spots against QC's 50). The rest,
    about three quarters, are too sparse to reach QC's presence threshold.
    One feature in three has a spatial bump for Moran's I to find.
    """
    rows_i, cols_i = np.divmod(np.arange(VISIUM_ROWS * VISIUM_COLS), VISIUM_COLS)
    xy = np.column_stack([cols_i + 0.5 * (rows_i % 2), rows_i * math.sqrt(3.0) / 2.0])
    ids = [f"r{r:02d}c{c:02d}" for r, c in zip(rows_i, cols_i)]
    names, rows = [], []
    for i in range(n_features):
        rng = _rng(seed, 1 + i)
        if i % 8 == 0:
            mean = 10 ** rng.uniform(-0.5, 0.7)
        elif i % 6 == 3:
            mean = 10 ** rng.uniform(-1.5, -1.0)
        else:
            mean = 10 ** rng.uniform(-5.0, -2.7)
        lam = np.full(len(xy), mean)
        if i % 3 == 0:
            centre = xy.max(axis=0) * (0.2 + 0.6 * rng.random(2))
            lam *= 1.0 + 4.0 * np.exp(-np.sum((xy - centre) ** 2, axis=1) / (2 * 8.0 ** 2))
        names.append(f"MT-G{i + 1:04d}" if i % 40 == 0 else f"G{i + 1:04d}")
        rows.append(rng.poisson(lam))
    _write_tsv(counts, coords, ids, xy, names, [[str(v) for v in r.tolist()] for r in rows])

    min_presence = math.ceil(QC_MIN_PRESENCE_FRACTION * len(xy))
    return tuple(
        name for name, r in zip(names, rows)
        if not name.lower().startswith("mt-")
        and r.sum() >= QC_MIN_FEATURE_TOTAL and np.count_nonzero(r) >= min_presence
    )


_GENERATORS = {"clusters": _clusters, "continuous": _continuous, "visium": _visium}


def generate(workload: Workload, seed: int, out_dir: Path, reference: bool = False) -> Inputs:
    """Write the workload's counts and coordinates TSVs for `seed` into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    counts, coords = out_dir / "counts.tsv", out_dir / "coords.tsv"
    n = workload.n_ref_features if reference else workload.n_features
    expected = _GENERATORS[workload.generator](seed, n, counts, coords)
    return Inputs(counts, coords, expected)
