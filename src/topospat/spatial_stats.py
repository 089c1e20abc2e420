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

Betti curves and total lifetime are computed from integer component counts
(`persistence.superlevel_betti_counts`) instead of diagrams: row i of the
count matrix, restricted to the open intervals between the feature's distinct
values, is the Betti curve of assignment i, and its dot product with the
interval lengths is the total lifetime. Ties are decided as follows:

  * an assignment whose integer deviation from the mean, (n_perm + 1) *
    row_i - sum of rows, equals the observed one in absolute value (entry by
    entry for Betti curves, up to the sign of the whole vector for total
    lifetime) has an equal statistic, and its float statistic is bitwise
    equal too: it goes through the same float operations up to sign, and
    where an entry flips sign the column mean is a half-integer, which a
    float holds exactly;
  * the sup-norm Betti distance is compared as an integer, exactly;
  * statistics closer than their rounding bound (a few ulps of every feature
    value they are built from, or of the domain ends for landscape
    distances) count as ties. Such near ties are exact ties of the
    real-valued data more often than not, and breaking them by rounding
    would let p-values fall or rise at random; counting them only ever makes
    a p-value larger.

Each feature draws its permutations from a counter-based stream keyed by the
global seed and a hash of the feature's values, which makes batteries
bit-reproducible regardless of feature order, execution order or worker
count.
"""
from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .exceptions import (
    DegenerateDataError,
    DimensionError,
    ParameterError,
    StateError,
    ValidationError,
)
from .ingest import Dataset
# superlevel_diagram, betti_curve, curve_lp_distance, landscape_lp_distance,
# mean_step_curve and total_lifetime are no longer called here, but
# bench/traced_cli.py looks these names up on this module to wrap them in
# timing spans, and a traced run fails if one is missing, so they stay bound.
from .persistence import (
    _check_values,
    superlevel_betti_counts,
    superlevel_diagram,
    superlevel_diagrams,
)
from .spatial_graph import SpatialGraph
from .summaries import (
    _check_p,
    betti_curve,
    curve_lp_distance,
    landscape,
    landscape_lp_distance,
    landscape_lp_distances,
    mean_landscape,
    mean_step_curve,
    total_lifetime,
)


# Rounding allowance of a Betti, total-lifetime or landscape statistic, in ulps.
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
    alpha: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "method", SummaryMethod(self.method))
        object.__setattr__(self, "p", _check_p(self.p))
        if self.n_perm < 1:
            raise ParameterError(f"n_perm must be >= 1, got {self.n_perm}")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
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
    n_perm: int = 0
    p: float = 2.0
    seed: int = 0
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def morans_i(graph: SpatialGraph, values) -> float:
    """Moran's I with binary adjacency weights over ordered vertex pairs."""
    return float(_moran_stats(graph, _check_values(graph, values), [])[0])


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
    n = len(vals)
    perms = [rng.permutation(n) for _ in range(cfg.n_perm)]

    if cfg.method in (SummaryMethod.BETTI_CURVE, SummaryMethod.TOTAL_LIFETIME):
        reported, extreme = _component_test(graph, vals, perms, cfg)
    elif cfg.method is SummaryMethod.MORANS_I:
        stats = _moran_stats(graph, vals, perms)
        deviations = np.abs(stats - stats.mean())
        reported, extreme = float(stats[0]), deviations >= deviations[0]
    else:
        lands = [landscape(d, cfg.max_levels)
                 for d in superlevel_diagrams(graph, vals, perms)]
        deviations, slack = _landscape_stats(lands, cfg.p)
        reported, extreme = float(deviations[0]), deviations >= deviations[0] - slack

    count = int(np.sum(extreme[1:]))
    p_value = (count + 1) / (cfg.n_perm + 1)
    return TestReport(
        feature_name=feature_name, method=cfg.method.value, statistic=reported,
        p_value=p_value, n_perm=cfg.n_perm, p=cfg.p, seed=cfg.seed,
    )


def _component_test(graph: SpatialGraph, vals: np.ndarray, perms,
                    cfg: TestConfig) -> tuple[float, np.ndarray]:
    """Observed Betti-curve distance or total-lifetime deviation, and the mask
    of assignments whose statistic is at least as large."""
    levels, counts = superlevel_betti_counts(graph, vals, perms)
    n_assign = len(counts)
    segments = counts[:, 1:]  # Betti curve on the open intervals between levels
    lengths = np.diff(levels)
    scaled = n_assign * segments - segments.sum(axis=0)  # n_assign * (row - mean), exact
    if cfg.method is SummaryMethod.TOTAL_LIFETIME:
        weights = np.abs(scaled) / n_assign
        measure = np.abs(np.sum(scaled * lengths, axis=1)) / n_assign
        statistic = measure[0]
    else:
        # float deviations from the float mean, as mean_step_curve and
        # curve_lp_distance form them, so reported distances match that path
        diff = np.abs(segments - segments.sum(axis=0) / n_assign)
        if math.isinf(cfg.p):
            measure = np.abs(scaled).max(axis=1, initial=0)  # no length enters: exact
            return float(diff[0].max(initial=0.0)), measure >= measure[0]
        weights = diff ** cfg.p
        measure = np.sum(weights * lengths, axis=1)  # distance ** p
        statistic = measure[0] ** (1.0 / cfg.p)
    # A measure carries rounding of a few ulps of every level it is built from,
    # the rounding of the levels themselves included. Measures closer than
    # that can be exact ties of the real-valued data (log(c + 2) levels obey
    # identities such as log 3 - log 2 = log 6 - log 4, decimal levels have
    # equal gaps), so they count as ties too.
    ends = np.abs(levels[:-1]) + np.abs(levels[1:])
    slack = _TIE_ULPS * np.finfo(np.float64).eps * np.sum(weights * ends, axis=1)
    return float(statistic), measure >= measure[0] - (slack + slack[0])


def _landscape_stats(lands, p: float) -> tuple[np.ndarray, float]:
    """L^p distance of every landscape from their mean, and the rounding
    allowance within which two such distances count as tied. Equal
    landscapes have equal knots, so their distances are bitwise equal."""
    center = mean_landscape(lands)
    stats = landscape_lp_distances(lands, center, p)
    # Knots, and so each pointwise difference from the mean, carry rounding
    # of a few ulps of the abscissae (at most `scale`), which moves a level's
    # distance by at most that times width ** (1/p). Decimal values split
    # exact ties that way: equal widths 0.3 - 0.1 = 0.7 - 0.5 round apart.
    lo, hi = center.domain
    scale = max(abs(lo), abs(hi))
    slack = (2 * _TIE_ULPS * np.finfo(np.float64).eps * center.max_levels
             * scale * (hi - lo) ** (1.0 / p))
    return stats, slack


def _moran_stats(graph: SpatialGraph, vals: np.ndarray, perms) -> np.ndarray:
    """Moran's I of vals (entry 0) and of vals[perm] for each perm."""
    if graph.n_edges == 0:
        raise DegenerateDataError("graph has no edges, so all spatial weights are zero")
    # np.sum, not `@`: its pairwise summation order is fixed, while a BLAS dot
    # product may split the sum over threads and round differently per setting
    dev = vals - vals.mean()
    ss = float(np.sum(dev * dev))
    if ss == 0.0:
        raise DegenerateDataError("feature is constant; spatial autocorrelation is undefined")
    e0, e1 = graph.edges[:, 0], graph.edges[:, 1]
    scale = graph.n_vertices / (2.0 * graph.n_edges)
    out = np.empty(len(perms) + 1)
    out[0] = scale * (2.0 * float(np.sum(dev[e0] * dev[e1])) / ss)
    for i, perm in enumerate(perms):
        dp = dev[perm]
        out[i + 1] = scale * (2.0 * float(np.sum(dp[e0] * dp[e1])) / ss)
    return out


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
            p_value=math.nan, n_perm=cfg.n_perm, p=cfg.p, seed=cfg.seed,
            status=f"{type(exc).__name__}: {exc}",
        )


# worker-process state: the graph and the feature matrix are shipped once per
# worker, and jobs are row indices
_WORKER_CTX: dict = {}


def _init_worker(graph, cfg, names, values):
    _WORKER_CTX.update(graph=graph, cfg=cfg, names=names, values=values)


def _pool_worker(i):
    ctx = _WORKER_CTX
    return _test_one(ctx["graph"], ctx["cfg"], ctx["names"][i], ctx["values"][i])


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
        lean_graph = SpatialGraph(graph.coords, graph.edges, graph.kind, graph.params)
        with ProcessPoolExecutor(max_workers=threads, initializer=_init_worker,
                                 initargs=(lean_graph, cfg, ds.feature_names, ds.values)) as pool:
            reports = list(pool.map(_pool_worker, range(ds.n_features),
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


def write_report(reports, path, meta: dict | None = None) -> None:
    """Report TSV (feature, method, statistic, p_value, q_value, rank, status)
    plus a JSON metadata sidecar `<path>.json`."""
    path = Path(path)
    lines = ["feature\tmethod\tstatistic\tp_value\tq_value\trank\tstatus"]
    for r in reports:
        status = r.status.replace("\t", " ").replace("\n", " ")
        lines.append(
            f"{r.feature_name}\t{r.method}\t{float(r.statistic)!r}\t{float(r.p_value)!r}"
            f"\t{float(r.q_value)!r}\t{r.rank}\t{status}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if reports:
        first = reports[0]
        sidecar = {"method": first.method, "n_perm": first.n_perm,
                   "p": "inf" if math.isinf(first.p) else first.p, "seed": first.seed}
    else:
        sidecar = {}
    sidecar.update(meta or {})
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")


def read_report(path) -> list[TestReport]:
    """Parse a report TSV written by write_report."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    reports = []
    for line in lines[1:]:
        if not line.strip():
            continue
        name, method, stat, p_value, q_value, rank, status = line.split("\t")
        reports.append(TestReport(
            feature_name=name, method=method, statistic=float(stat),
            p_value=float(p_value), q_value=float(q_value), rank=int(rank), status=status,
        ))
    return reports
