"""One-sample randomized permutation test for spatial dependence.

The spatial graph and the multiset of feature values are held fixed while the
assignment of values to vertices is permuted uniformly at random. For
functional summaries (Betti curve, landscape) the test statistic of an
assignment is its L^p distance from the pointwise mean summary taken over all
permutations plus the observed assignment; for scalar summaries (total
lifetime, Moran's I) it is the absolute deviation from the analogous mean.
Deviations in either direction enlarge a distance, so the distance form
realizes a two-sided test. The p-value applies the +1/+1 pseudo-count, so it
is never exactly zero:

    p = (#{permutations with statistic >= observed} + 1) / (n_perm + 1)

A permutation counts when its measure, a quantity that orders assignments as
the statistic does, is at least the observed one less the sum of their
rounding bounds. A bound is a few ulps of every level a Betti (finite p) or
total-lifetime measure is built from, the levels' own rounding included, of
the domain ends for a landscape distance, or of (largest vertex degree) *
n / 2m for Moran's I, a bound on its edge sum's rounding, and zero for the
sup-norm Betti distance, an exact integer. Near ties within the bounds are
exact ties of the real-valued data more often than not (log(c + 2) levels
obey log 3 - log 2 = log 6 - log 4, decimal levels have equal gaps), and
breaking them by rounding would let p-values fall or rise at random;
counting them only ever makes a p-value larger.

A feature's test is one pass over index permutations from a stream keyed by
the global seed and its values' rank pattern, so batteries are bit-reproducible
whatever the feature order, execution order or worker count. Each method
measures a read-out of it: Moran's I, landscapes, or for Betti curves and total
lifetime the integer component counts of `persistence._block_counts`, whose
row i, on the open intervals between the distinct values, is the Betti curve
of assignment i; counts and diagrams share one basin forest a block. Assignments
whose integer deviations from the mean agree up to sign (entry by entry for
Betti curves, as a whole for total lifetime) tie bitwise with no bound: where
an entry flips sign the column mean is a half-integer, which a float holds.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import (
    DegenerateDataError,
    DimensionError,
    ParameterError,
    ParseError,
    StateError,
    ValidationError,
)
from .ingest import Dataset, atomic_write, read_text, write_table
# betti_curve, curve_lp_distance, landscape, landscape_lp_distance,
# mean_step_curve, superlevel_diagram and total_lifetime are not called here:
# bench/traced_cli.py wraps them on this module, so they stay bound.
from .persistence import (
    _FOREST_BLOCK_SIZE,
    _block_counts,
    _block_diagrams,
    _block_forests,
    _check_values,
    superlevel_diagram,
)
from .spatial_graph import SpatialGraph
from .summaries import (
    _check_int,
    _check_p,
    _landscape_measures,
    _landscapes,
    betti_curve,
    curve_lp_distance,
    landscape,
    landscape_lp_distance,
    mean_landscape,
    mean_step_curve,
    total_lifetime,
)


# Rounding allowance of a Betti, total-lifetime, landscape or Moran statistic, in ulps.
_TIE_ULPS = 16


class SummaryMethod(str, Enum):
    BETTI_CURVE = "betti"
    LANDSCAPE = "landscape"
    TOTAL_LIFETIME = "total"
    MORANS_I = "moran"


@dataclass(frozen=True)
class TestConfig:
    __test__ = False  # not a pytest class

    method: SummaryMethod
    n_perm: int = 1000
    p: float = 2.0
    max_levels: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "method", SummaryMethod(self.method))
        object.__setattr__(self, "p", _check_p(self.p))
        for name in ("n_perm", "max_levels", "seed"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name)))
        if self.n_perm < 1:
            raise ParameterError(f"n_perm must be >= 1, got {self.n_perm}")
        if self.max_levels < 1:
            raise ParameterError(f"max_levels must be >= 1, got {self.max_levels}")


@dataclass
class TestReport:
    __test__ = False  # not a pytest class

    feature_name: str
    method: str
    statistic: float
    p_value: float
    q_value: float = math.nan
    rank: int = 0
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def morans_i(graph: SpatialGraph, values) -> float:
    """Moran's I with binary adjacency weights over ordered vertex pairs."""
    return float(_moran_reader(graph, _check_values(graph, values))([np.arange(len(values))])[0])


def _feature_rng(seed: int, values: np.ndarray) -> np.random.Generator:
    """Counter-based stream keyed by (seed, rank pattern of the values).

    The rank pattern is invariant under feature reordering and under strictly
    increasing value transforms, so batteries are reproducible regardless of
    input order and monotone preprocessing rescales leave every feature's
    permutation draws (hence its p-value) untouched. Features with identical
    rank patterns therefore share their permutation draws, so their p-values
    are not independent, as Benjamini-Hochberg assumes."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.arange(len(values), dtype=np.int64)
    digest = hashlib.sha256(ranks.tobytes()).digest()
    key = tuple(int.from_bytes(digest[i:i + 8], "little") for i in range(0, 32, 8))
    seq = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def _configs(cfg) -> tuple:
    """`cfg`, one TestConfig or a tuple sharing one pass, as a tuple."""
    cfgs = (cfg,) if isinstance(cfg, TestConfig) else tuple(cfg)
    if len({(c.n_perm, c.seed, c.max_levels) for c in cfgs}) != 1:
        raise ParameterError("configs tested in one pass must share n_perm, seed and max_levels")
    return cfgs


def permutation_test(graph: SpatialGraph, values, cfg: TestConfig | tuple,
                     feature_name: str = "feature") -> TestReport | list[TestReport]:
    """Test a single feature for spatial dependence; q_value and rank stay unset.

    `cfg` is a TestConfig, or a tuple sharing n_perm, seed and max_levels,
    tested in one pass: a list of reports, an error in one's read-out or
    measure its status, not raised."""
    cfgs = _configs(cfg)
    vals = _check_values(graph, values)
    rng = _feature_rng(cfgs[0].seed, vals)
    # drawn as the read-outs take them, one block at a time, in stream order
    perms = (rng.permutation(len(vals)) for _ in range(cfgs[0].n_perm))
    found = _read_outs(graph, vals, perms, {_METHODS[c.method][0] for c in cfgs},
                       cfgs[0].max_levels)
    reports = []
    for c in cfgs:
        kind, measure_of = _METHODS[c.method]
        try:
            if isinstance(found[kind], Exception):
                raise found[kind]
            statistic, measure, slack = measure_of(graph, found[kind], c)
            count = int(np.sum(_extreme(measure, slack)[1:]))
            reports.append(TestReport(feature_name, c.method.value, statistic,
                                      (count + 1) / (c.n_perm + 1)))
        except Exception as exc:
            if isinstance(cfg, TestConfig):
                raise
            reports.append(_failed(feature_name, c, exc))
    return reports[0] if isinstance(cfg, TestConfig) else reports


def _extreme(measure: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """Mask of the assignments at least as extreme as the observed one, entry 0."""
    return measure >= measure[0] - (slack + slack[0])


def _read_outs(graph: SpatialGraph, vals: np.ndarray, perms, kinds, max_levels: int) -> dict:
    """The read-outs in `kinds` of the assignments, the identity and then every
    perm, in one pass: "moran" (Moran's I), and off one basin forest per block
    "counts" (levels, counts) and "landscapes"; or the error each raised."""
    found = {kind: [] for kind in kinds}
    moran = _moran_reader(graph, vals) if "moran" in kinds else None

    def read(kind, readout, *args):
        if isinstance(found.get(kind), list):
            try:
                found[kind].append(readout(*args))
            except Exception as exc:  # that read-out's alone
                found[kind] = exc

    def blocks():  # the forests, each block read by the riders; no read-out reads the floor
        for block in _block_forests(graph, vals, perms, keep_floor=False):
            read("moran", moran, block[2])
            read("counts", _block_counts, graph, *block)
            yield block

    if kinds == {"moran"}:  # no forest to build: the draws themselves
        read("moran", moran, itertools.chain([np.arange(len(vals))], perms))
    else:
        stream = blocks()
        read("landscapes", _landscapes, (_block_diagrams(*block) for block in stream), max_levels)
        if isinstance(found.get("landscapes"), Exception) and stream.gi_frame is None:
            raise found["landscapes"]  # ended, maybe by a forest error, leaving the others short
        for _ in stream:  # every block, or those a failed landscape read-out left
            pass
    return {kind: _FINISH[kind](parts) if isinstance(parts, list) else parts
            for kind, parts in found.items()}


_FINISH = {"moran": np.concatenate, "landscapes": lambda parts: parts[0],
           "counts": lambda parts: (parts[0][0], np.vstack([counts for _, counts in parts]))}


def _moran_reader(graph: SpatialGraph, vals: np.ndarray):
    """Index rows -> the Moran's I of `vals[row]` each, or DegenerateDataError."""
    dev = vals - vals.mean()
    # np.sum and np.add.reduce, not `@`: their pairwise summation order is fixed,
    # while a BLAS dot product may split a sum over threads and round differently
    ss = float(np.sum(dev * dev))
    (e0, e1), _ = graph.edge_index
    a, b = np.empty((2, graph.n_edges))  # the edge ends' values, reused

    def read(rows) -> np.ndarray:
        if graph.n_edges == 0:
            raise DegenerateDataError("graph has no edges, so all spatial weights are zero")
        if ss == 0.0:
            raise DegenerateDataError("feature is constant; spatial autocorrelation is undefined")
        # SpatialGraph keeps every end in range(n), so no gather checks bounds
        sums = [np.add.reduce(np.multiply(np.take(x, e0, out=a, mode="clip"),
                                          np.take(x, e1, out=b, mode="clip"), out=a))
                for x in (dev[row] for row in rows)]
        return graph.n_vertices / (2.0 * graph.n_edges) * (2.0 * np.asarray(sums) / ss)
    return read


def _betti_measure(graph, counts, cfg):
    levels, counts = counts
    segments = counts[:, 1:]  # Betti curves on the open intervals between levels
    n_assign, col_sums = len(segments), segments.sum(axis=0)
    # float deviations from the float mean, as in mean_step_curve, so distances match
    if math.isinf(cfg.p):
        statistic = np.abs(segments[0] - col_sums / n_assign).max(initial=0.0)
        measure = np.abs(n_assign * segments - col_sums).max(axis=1, initial=0)  # exact
        return float(statistic), measure, np.zeros_like(measure)
    weights = np.abs(segments - col_sums / n_assign) ** cfg.p
    measure = np.sum(weights * np.diff(levels), axis=1)  # distance ** p
    ends = np.abs(levels[:-1]) + np.abs(levels[1:])
    slack = _TIE_ULPS * np.finfo(np.float64).eps * np.sum(weights * ends, axis=1)
    return float(measure[0] ** (1.0 / cfg.p)), measure, slack


def _total_measure(graph, counts, cfg):
    levels, counts = counts
    segments = counts[:, 1:]
    n_assign, col_sums = len(segments), segments.sum(axis=0)
    lengths, ends = np.diff(levels), np.abs(levels[:-1]) + np.abs(levels[1:])
    measure, slack = np.empty(n_assign), np.empty(n_assign)
    step = max(1, _FOREST_BLOCK_SIZE // max(1, len(levels)))  # rows; the counts stay as is
    for rows in (slice(start, start + step) for start in range(0, n_assign, step)):
        scaled = segments[rows] * n_assign - col_sums  # n_assign * (row - mean), exact
        measure[rows] = np.abs(np.sum(scaled * lengths, axis=1)) / n_assign
        slack[rows] = np.sum(np.abs(scaled) / n_assign * ends, axis=1)
    return float(measure[0]), measure, _TIE_ULPS * np.finfo(np.float64).eps * slack


def _landscape_measure(graph, lands, cfg):
    measure, slack = _landscape_measures(lands, mean_landscape(lands), cfg.p, _TIE_ULPS)
    return float(measure[0]), measure, slack


def _moran_measure(graph, stats, cfg):
    # an edge sum rounds by a few ulps of sum |dev_u * dev_v| <= (largest
    # degree) / 2 * sum dev**2, which Moran's I scales by n / 2m * 2 / sum dev**2
    bound = _TIE_ULPS * np.finfo(np.float64).eps * graph.degrees().max() * graph.n_vertices
    slack = np.full(len(stats), bound / (2.0 * graph.n_edges))
    return float(stats[0]), np.abs(stats - stats.mean()), slack


# each method's read-out, and its measure of it: (statistic, measure, slack), observed first
_METHODS = {SummaryMethod.BETTI_CURVE: ("counts", _betti_measure),
            SummaryMethod.TOTAL_LIFETIME: ("counts", _total_measure),
            SummaryMethod.LANDSCAPE: ("landscapes", _landscape_measure),
            SummaryMethod.MORANS_I: ("moran", _moran_measure)}


def benjamini_hochberg(p_values) -> np.ndarray:
    """Step-up q-values mapped back to input order; ties keep their input order."""
    ps = np.asarray(p_values, dtype=np.float64)
    if ps.ndim != 1:
        raise DimensionError("p-values must form a 1-D vector")
    if len(ps) == 0:
        return np.zeros(0)
    if np.any(~np.isfinite(ps)) or np.any(ps <= 0) or np.any(ps > 1):
        raise ValidationError("p-values must lie in (0, 1]")
    m = len(ps)
    order = np.argsort(ps, kind="stable")
    scaled = ps[order] * m / np.arange(1, m + 1)
    q_sorted = np.minimum.accumulate(scaled[::-1])[::-1]
    np.clip(q_sorted, None, 1.0, out=q_sorted)
    q = np.empty(m)
    q[order] = q_sorted
    return q


def _failed(name: str, cfg: TestConfig, exc: Exception) -> TestReport:
    return TestReport(feature_name=name, method=cfg.method.value, statistic=math.nan,
                      p_value=math.nan, status=f"{type(exc).__name__}: {exc}")


def _test_one(graph, cfgs, name, values) -> list[TestReport]:
    # Any failure inside one feature's test is recorded on its reports so the
    # rest of the battery still runs, serial or pooled.
    try:
        return permutation_test(graph, values, cfgs, feature_name=name)
    except Exception as exc:
        return [_failed(name, cfg, exc) for cfg in cfgs]


def run_battery(ds: Dataset, graph: SpatialGraph, cfg: TestConfig | tuple, threads: int = 1,
                allow_raw: bool = False) -> list:
    """Permutation-test every feature, BH-adjust and rank.

    Reports come back in dataset feature order. Ranks run 1..k by ascending
    p-value, ties broken by descending statistic and then by name; failed
    features sort last and keep a NaN p/q. Results are bit-identical for any
    thread count because each feature owns its random stream. A tuple of
    configs, one pass per feature, gives a list of such lists, one per config."""
    cfgs = _configs(cfg)
    if graph.n_vertices != ds.n_locations:
        raise DimensionError(
            f"graph has {graph.n_vertices} vertices but dataset has {ds.n_locations} locations"
        )
    if not allow_raw and not ds.transformed:
        raise StateError(
            "dataset holds raw counts; transform it first or pass allow_raw=True"
        )
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")

    if threads == 1 or ds.n_features <= 1:
        features = [_test_one(graph, cfgs, name, row)
                    for name, row in zip(ds.feature_names, ds.values)]
    else:
        # imported here, so a one-worker run loads no multiprocessing machinery
        from concurrent.futures import ProcessPoolExecutor

        # pickled with every chunk of jobs, so it leaves the cached properties behind
        lean_graph = SpatialGraph(graph.coords, graph.edges, graph.kind, graph.params)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            features = list(pool.map(functools.partial(_test_one, lean_graph, cfgs),
                                     ds.feature_names, ds.values,
                                     chunksize=max(1, ds.n_features // (4 * threads))))
    batteries = [[reports[i] for reports in features] for i in range(len(cfgs))]
    for reports in batteries:  # each config's adjusted and ranked on its own
        ok = [r for r in reports if r.ok]
        for r, q in zip(ok, benjamini_hochberg([r.p_value for r in ok])):
            r.q_value = float(q)
        for rank, r in enumerate(sorted(reports, key=_rank_key), start=1):
            r.rank = rank
    return batteries[0] if isinstance(cfg, TestConfig) else batteries


def _rank_key(r: TestReport) -> tuple:
    return (0, r.p_value, -r.statistic, r.feature_name) if r.ok else (1, 0.0, 0.0, r.feature_name)


def write_report(reports, path, cfg: TestConfig, meta: dict | None = None) -> None:
    """Report TSV (feature, method, statistic, p_value, q_value, rank, status)
    plus a JSON sidecar `<path>.json` of the test settings, then `meta`."""
    write_table(path, ["feature", "method", "statistic", "p_value", "q_value", "rank", "status"],
                ([r.feature_name, r.method, float(r.statistic), float(r.p_value),
                  float(r.q_value), r.rank, r.status] for r in reports))
    sidecar = {"method": cfg.method.value, "n_perm": cfg.n_perm,
               "p": "inf" if math.isinf(cfg.p) else cfg.p, "seed": cfg.seed, **(meta or {})}
    atomic_write(f"{path}.json", json.dumps(sidecar, indent=2) + "\n")


def read_report(path) -> list[TestReport]:
    """Parse a report TSV written by write_report; ParseError names a bad row."""
    reports = []
    for r, line in enumerate(read_text(path).splitlines()[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 7:
            raise ParseError(
                f"{path}: row {r}: expected 7 tab-separated fields, got {len(fields)}")
        name, method, stat, p_value, q_value, rank, status = fields
        try:
            reports.append(TestReport(name, method, float(stat), float(p_value),
                                      float(q_value), int(rank), status))
        except ValueError as exc:  # its message names the bad text
            raise ParseError(f"{path}: row {r}: {exc}") from None
    return reports
