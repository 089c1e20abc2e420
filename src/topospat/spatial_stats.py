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

Betti curves and total lifetime are computed from integer component counts
(`persistence.superlevel_betti_counts`) instead of diagrams: row i of the
count matrix, restricted to the open intervals between the feature's distinct
values, is the Betti curve of assignment i, and its dot product with the
interval lengths is the total lifetime. Assignments whose integer deviations
from the mean agree up to sign (entry by entry for Betti curves, as a whole
for total lifetime) tie bitwise with no bound, because where an entry flips
sign the column mean is a half-integer, which a float holds exactly.

Each feature draws its permutations from a counter-based stream keyed by the
global seed and a hash of the feature's values, which makes batteries
bit-reproducible regardless of feature order, execution order or worker
count.
"""
from __future__ import annotations

import functools
import hashlib
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
# superlevel_diagram, betti_curve, curve_lp_distance, landscape,
# landscape_lp_distance, mean_step_curve and total_lifetime are no longer
# called here (the landscape test reads its diagrams as flat arrays), but
# bench/traced_cli.py looks these names up on this module to wrap them in
# timing spans, and a traced run fails if one is missing, so they stay bound.
from .persistence import (
    _check_values,
    _diagram_blocks,
    superlevel_betti_counts,
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
    vals = _check_values(graph, values)
    return float(_moran_stats(graph, vals - vals.mean(), ())[0])


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


def permutation_test(graph: SpatialGraph, values, cfg: TestConfig,
                     feature_name: str = "feature") -> TestReport:
    """Test a single feature for spatial dependence; q_value and rank stay unset."""
    vals = _check_values(graph, values)
    rng = _feature_rng(cfg.seed, vals)
    if cfg.method is SummaryMethod.MORANS_I:
        statistic, measure, slack = _moran_null(graph, vals, rng, cfg.n_perm)
    else:
        # drawn as the kernels read them, one block at a time, in stream order
        perms = (rng.permutation(len(vals)) for _ in range(cfg.n_perm))
        null = _landscape_null if cfg.method is SummaryMethod.LANDSCAPE else _component_null
        statistic, measure, slack = null(graph, vals, perms, cfg)
    count = int(np.sum(_extreme(measure, slack)[1:]))
    return TestReport(feature_name=feature_name, method=cfg.method.value, statistic=statistic,
                      p_value=(count + 1) / (cfg.n_perm + 1))


def _extreme(measure: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """Mask of the assignments at least as extreme as the observed one, entry 0."""
    return measure >= measure[0] - (slack + slack[0])


def _component_null(graph, vals, perms, cfg):
    levels, counts = superlevel_betti_counts(graph, vals, perms)
    n_assign = len(counts)
    segments = counts[:, 1:]  # Betti curve on the open intervals between levels
    lengths = np.diff(levels)
    col_sums = segments.sum(axis=0)
    ulps = _TIE_ULPS * np.finfo(np.float64).eps
    ends = np.abs(levels[:-1]) + np.abs(levels[1:])
    # Betti: float deviations from the float mean, as in mean_step_curve, so distances match
    if cfg.method is SummaryMethod.TOTAL_LIFETIME:
        scaled = np.multiply(segments, n_assign, out=segments)  # counts is not read again
        scaled -= col_sums  # n_assign * (row - mean), exact
        measure = np.abs(np.sum(scaled * lengths, axis=1)) / n_assign
        statistic = measure[0]
        slack = ulps * np.sum(np.abs(scaled) / n_assign * ends, axis=1)
    elif math.isinf(cfg.p):
        statistic = np.abs(segments[0] - col_sums / n_assign).max(initial=0.0)
        measure = np.abs(n_assign * segments - col_sums).max(axis=1, initial=0)  # exact
        slack = np.zeros_like(measure)
    else:
        weights = np.abs(segments - col_sums / n_assign) ** cfg.p
        measure = np.sum(weights * lengths, axis=1)  # distance ** p
        statistic = measure[0] ** (1.0 / cfg.p)
        slack = ulps * np.sum(weights * ends, axis=1)
    return float(statistic), measure, slack


def _landscape_null(graph, vals, perms, cfg):
    # the floor's pairs have zero lifetime, and no landscape reads them
    lands = _landscapes(_diagram_blocks(graph, vals, perms, keep_floor=False), cfg.max_levels)
    measure, slack = _landscape_measures(lands, mean_landscape(lands), cfg.p, _TIE_ULPS)
    return float(measure[0]), measure, slack


def _moran_null(graph, vals, rng, n_perm: int):
    dev = vals - vals.mean()
    # rng.permutation(dev) is dev[rng.permutation(len(dev))], without the gather
    stats = _moran_stats(graph, dev, (rng.permutation(dev) for _ in range(n_perm)))
    # an edge sum rounds by a few ulps of sum |dev_u * dev_v| <= (largest
    # degree) / 2 * sum dev**2, which Moran's I scales by n / 2m * 2 / sum dev**2
    bound = _TIE_ULPS * np.finfo(np.float64).eps * graph.degrees().max() * graph.n_vertices
    slack = np.full(len(stats), bound / (2.0 * graph.n_edges))
    return float(stats[0]), np.abs(stats - stats.mean()), slack


def _moran_stats(graph: SpatialGraph, dev: np.ndarray, shuffled) -> np.ndarray:
    """Moran's I of the centred values `dev` (entry 0) and of each array of
    an iterable of them shuffled."""
    if graph.n_edges == 0:
        raise DegenerateDataError("graph has no edges, so all spatial weights are zero")
    # np.sum, not `@`: its pairwise summation order is fixed, while a BLAS dot
    # product may split the sum over threads and round differently per setting
    ss = float(np.sum(dev * dev))
    if ss == 0.0:
        raise DegenerateDataError("feature is constant; spatial autocorrelation is undefined")
    (e0, e1), _ = graph.edge_index
    scale = graph.n_vertices / (2.0 * graph.n_edges)
    stats = [float(np.sum(dev[e0] * dev[e1]))]
    stats += [float(np.sum(dp[e0] * dp[e1])) for dp in shuffled]
    return scale * (2.0 * np.asarray(stats) / ss)


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


def _test_one(graph, cfg, name, values) -> TestReport:
    # Any failure inside one feature's test is recorded on its report so the
    # rest of the battery still runs, serial or pooled.
    try:
        return permutation_test(graph, values, cfg, feature_name=name)
    except Exception as exc:
        return TestReport(
            feature_name=name, method=cfg.method.value, statistic=math.nan,
            p_value=math.nan, status=f"{type(exc).__name__}: {exc}",
        )


def run_battery(ds: Dataset, graph: SpatialGraph, cfg: TestConfig,
                threads: int = 1, allow_raw: bool = False) -> list[TestReport]:
    """Permutation-test every feature, BH-adjust and rank.

    Reports come back in dataset feature order. Ranks run 1..k by ascending
    p-value, ties broken by descending statistic and then by name; failed
    features sort last and keep a NaN p/q. Results are bit-identical for any
    thread count because each feature owns its random stream.
    """
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
        reports = [_test_one(graph, cfg, name, row)
                   for name, row in zip(ds.feature_names, ds.values)]
    else:
        # imported here, so a one-worker run loads no multiprocessing machinery
        from concurrent.futures import ProcessPoolExecutor

        # pickled with every chunk of jobs, so it leaves the cached properties behind
        lean_graph = SpatialGraph(graph.coords, graph.edges, graph.kind, graph.params)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(functools.partial(_test_one, lean_graph, cfg),
                                    ds.feature_names, ds.values,
                                    chunksize=max(1, ds.n_features // (4 * threads))))

    ok_idx = [i for i, r in enumerate(reports) if r.ok]
    if ok_idx:
        qs = benjamini_hochberg([reports[i].p_value for i in ok_idx])
        for i, q in zip(ok_idx, qs):
            reports[i].q_value = float(q)

    def sort_key(i):
        r = reports[i]
        if not r.ok:
            return (1, 0.0, 0.0, r.feature_name)
        return (0, r.p_value, -r.statistic, r.feature_name)

    for rank, i in enumerate(sorted(range(len(reports)), key=sort_key), start=1):
        reports[i].rank = rank
    return reports


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
