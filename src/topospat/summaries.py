"""Functional summaries of persistence diagrams.

Total lifetime, Betti curves (exact step functions) and persistence
landscapes (exact piecewise-linear level functions), together with L^p
norms, L^p distances and pointwise means. Everything is computed in closed
form on breakpoints rather than on a sampling grid, so no resolution
parameter exists and the L^1 norm of a Betti curve equals the total
lifetime up to float rounding. Supported norm orders are p in {1, 2, inf}.
"""
from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DomainMismatchError, ParameterError
from .persistence import _FOREST_BLOCK_SIZE, PersistenceDiagram


def _check_p(p) -> float:
    if p == 1 or p == 2:
        return float(p)
    if isinstance(p, (int, float)) and math.isinf(p):
        return math.inf
    raise ParameterError(f"norm order must be 1, 2 or inf, got {p!r}")


# ---------------------------------------------------------------------------
# Step curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepCurve:
    """Piecewise-constant function on a closed interval.

    knots includes both domain endpoints; segment_values[i] is the value on
    the open interval (knots[i], knots[i+1]) and point_values[i] the value at
    knots[i] itself, which lets the curve carry exact counts at breakpoints
    (merge values, zero-lifetime spikes). The function is zero outside the
    domain. Integrals depend on segment values only.
    """

    knots: np.ndarray
    segment_values: np.ndarray
    point_values: np.ndarray

    def __post_init__(self):
        if len(self.knots) < 1:
            raise ParameterError("a step curve needs at least one knot")
        if np.any(np.diff(self.knots) <= 0):
            raise ParameterError("knots must be strictly increasing")
        if len(self.segment_values) != len(self.knots) - 1:
            raise ParameterError("need one segment value per interval between knots")
        if len(self.point_values) != len(self.knots):
            raise ParameterError("need one point value per knot")

    @classmethod
    def from_intervals(cls, domain, breakpoints, values, point_values=None) -> "StepCurve":
        """Build from interior breakpoints plus one value per resulting interval."""
        lo, hi = float(domain[0]), float(domain[1])
        bps = np.asarray(breakpoints, dtype=np.float64)
        vals = np.asarray(values, dtype=np.float64)
        if lo > hi:
            raise ParameterError("empty domain")
        if np.any((bps <= lo) | (bps >= hi)):
            raise ParameterError("breakpoints must lie strictly inside the domain")
        knots = np.concatenate([[lo], bps, [hi]]) if lo < hi else np.asarray([lo])
        if len(vals) != max(len(knots) - 1, 0) and not (lo == hi and len(vals) <= 1):
            raise ParameterError("need one value per interval")
        if lo == hi:
            pv = np.asarray([vals[0] if len(vals) else 0.0])
            return cls(knots, np.zeros(0), pv)
        if point_values is None:
            # right-continuous default: value at a knot is the segment to its right
            point_values = np.concatenate([vals, [vals[-1]]])
        return cls(knots, vals, np.asarray(point_values, dtype=np.float64))

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    def value_at(self, delta: float) -> float:
        if delta < self.knots[0] or delta > self.knots[-1]:
            return 0.0
        pos = int(np.searchsorted(self.knots, delta))
        if pos < len(self.knots) and self.knots[pos] == delta:
            return float(self.point_values[pos])
        return float(self.segment_values[pos - 1])


def _same_domain(a, b) -> bool:
    return a.domain == b.domain


def _step_on_grid(curve: StepCurve, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment and point values of `curve` re-expressed on a finer knot grid."""
    n_seg = len(curve.segment_values)
    if n_seg == 0:
        return np.zeros(max(len(grid) - 1, 0)), np.full(len(grid), curve.point_values[0])
    mids = 0.5 * (grid[:-1] + grid[1:])
    seg_idx = np.clip(np.searchsorted(curve.knots, mids) - 1, 0, n_seg - 1)
    segs = curve.segment_values[seg_idx]
    pos = np.clip(np.searchsorted(curve.knots, grid), 0, len(curve.knots) - 1)
    exact = curve.knots[pos] == grid
    pts = np.where(exact, curve.point_values[pos],
                   curve.segment_values[np.clip(pos - 1, 0, n_seg - 1)])
    return segs, pts


def total_lifetime(d: PersistenceDiagram) -> float:
    """Sum of (birth - death) over all pairs; 0 for an empty diagram."""
    if len(d) == 0:
        return 0.0
    return float(np.sum(d.births - d.deaths))


def betti_curve(d: PersistenceDiagram) -> StepCurve:
    """Step function counting the pairs alive at each filtration value.

    Segment values count pairs whose (death, birth) interval covers the
    segment. Values at the knots themselves follow the component-count
    semantics of the filtration: a merged pair is no longer alive at its
    death value, while components of the full graph still count at f_min.
    At every threshold the curve therefore equals the number of connected
    components of the corresponding superlevel subgraph.
    """
    lo, hi = d.f_min, d.f_max
    if len(d) == 0:
        knots = np.asarray([lo]) if lo == hi else np.asarray([lo, hi])
        return StepCurve(knots, np.zeros(len(knots) - 1), np.zeros(len(knots)))
    knots = np.unique(np.concatenate([[lo, hi], d.births, d.deaths]))
    K = len(knots)
    bi = np.searchsorted(knots, d.births)
    di = np.searchsorted(knots, d.deaths)

    seg_diff = np.zeros(K, dtype=np.float64)
    np.add.at(seg_diff, di, 1.0)
    np.add.at(seg_diff, bi, -1.0)
    segments = np.cumsum(seg_diff)[:-1] if K > 1 else np.zeros(0)

    pt_diff = np.zeros(K + 1, dtype=np.float64)
    np.add.at(pt_diff, di + 1, 1.0)
    np.add.at(pt_diff, bi + 1, -1.0)
    points = np.cumsum(pt_diff)[:K]
    points[0] += float(np.count_nonzero(d.essential))
    return StepCurve(knots, segments, points)


def curve_lp_norm(c: StepCurve, p) -> float:
    """Exact L^p norm; the degenerate single-point curve has norm 0 for finite p."""
    p = _check_p(p)
    seg = c.segment_values
    if seg.size == 0:
        return 0.0
    if math.isinf(p):
        return float(np.max(np.abs(seg)))
    lengths = np.diff(c.knots)
    return float(np.sum(np.abs(seg) ** p * lengths) ** (1.0 / p))


def curve_lp_distance(c1: StepCurve, c2: StepCurve, p) -> float:
    """L^p distance between step curves sharing the same domain."""
    p = _check_p(p)
    if not _same_domain(c1, c2):
        raise DomainMismatchError(f"curve domains differ: {c1.domain} vs {c2.domain}")
    grid = np.unique(np.concatenate([c1.knots, c2.knots]))
    s1, _ = _step_on_grid(c1, grid)
    s2, _ = _step_on_grid(c2, grid)
    if s1.size == 0:
        return 0.0
    diff = np.abs(s1 - s2)
    if math.isinf(p):
        return float(diff.max())
    lengths = np.diff(grid)
    return float(np.sum(diff ** p * lengths) ** (1.0 / p))


def mean_step_curve(curves) -> StepCurve:
    """Pointwise arithmetic mean of step curves on a common domain."""
    curves = list(curves)
    if not curves:
        raise ParameterError("cannot average an empty list of curves")
    first = curves[0]
    for c in curves[1:]:
        if not _same_domain(first, c):
            raise DomainMismatchError(f"curve domains differ: {first.domain} vs {c.domain}")
    grid = np.unique(np.concatenate([c.knots for c in curves]))
    segs = np.zeros(max(len(grid) - 1, 0))
    pts = np.zeros(len(grid))
    for c in curves:
        s, q = _step_on_grid(c, grid)
        segs += s
        pts += q
    k = float(len(curves))
    return StepCurve(grid, segs / k, pts / k)


# ---------------------------------------------------------------------------
# Persistence landscapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LandscapeSet:
    """Persistence landscape: level k is the pointwise k-th largest tent.

    Each level is an exact piecewise-linear function stored as (xs, ys) knot
    arrays; levels beyond the number of pairs are the zero function. Levels
    are pointwise ordered and zero at the domain ends.
    """

    levels: tuple[tuple[np.ndarray, np.ndarray], ...]
    domain: tuple[float, float]

    @property
    def max_levels(self) -> int:
        return len(self.levels)

    def value_at(self, k: int, delta: float) -> float:
        """Value of level k (1-based) at delta; zero outside domain or level range."""
        if k < 1:
            raise ParameterError("landscape levels are numbered from 1")
        if k > len(self.levels):
            return 0.0
        lo, hi = self.domain
        if delta < lo or delta > hi:
            return 0.0
        xs, ys = self.levels[k - 1]
        return float(np.interp(delta, xs, ys))


def landscape(d: PersistenceDiagram, max_levels: int = 5) -> LandscapeSet:
    """First `max_levels` landscape levels of the diagram, as exact knot lists.

    The tent of a pair (birth, death) with birth > death rises with slope 1
    from death to the midpoint and falls back to zero at birth; level k is the
    pointwise k-th maximum over all tents. Levels come from the sweep of
    Bubenik & Dłotko, "A persistence landscapes toolbox for topological
    statistics", J. Symb. Comput. 78 (2017). Knots are strictly increasing;
    slopes are exactly -1, 0 or +1 wherever the knot arithmetic is exact.
    """
    if max_levels < 1:
        raise ParameterError(f"max_levels must be >= 1, got {max_levels}")
    lo, hi = d.f_min, d.f_max
    keep = d.births > d.deaths
    queue = sorted(zip(d.deaths[keep].tolist(), d.births[keep].tolist()), key=_sweep_order)
    levels = []
    while queue and len(levels) < max_levels:
        levels.append(_sweep_level(queue, lo, hi))
    ends = np.unique([lo, hi])  # levels past the pairs are the zero function
    levels += [(ends.copy(), np.zeros(len(ends))) for _ in range(max_levels - len(levels))]
    return LandscapeSet(tuple(levels), (lo, hi))


def _sweep_order(interval: tuple[float, float]) -> tuple[float, float]:
    return interval[0], -interval[1]  # death ascending, then birth descending


def _sweep_level(queue: list, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Upper envelope of the tents over the (death, birth) intervals in
    `queue`, padded to [lo, hi]. Its tents leave the queue; where the next
    tent [a2, b2] crosses the current one [a, b], their overlap [a2, b] goes
    back in order, for a lower level."""
    xs, ys = [lo], [0.0]

    def knot(x: float, y: float) -> None:
        if x > xs[-1]:
            xs.append(x)
            ys.append(y)
        elif y < ys[-1]:  # two knots rounded onto one abscissa: keep the lower
            ys[-1] = y

    a, b = queue.pop(0)
    knot(a, 0.0)
    knot(0.5 * (a + b), 0.5 * (b - a))
    j = 0
    while True:
        while j < len(queue) and queue[j][1] <= b:  # nested under the current tent
            j += 1
        if j == len(queue):
            break
        a2, b2 = queue.pop(j)
        if a2 < b:
            knot(0.5 * (a2 + b), 0.5 * (b - a2))
            bisect.insort(queue, (a2, b), lo=j, key=_sweep_order)
        else:
            knot(b, 0.0)
            knot(a2, 0.0)
        knot(0.5 * (a2 + b2), 0.5 * (b2 - a2))
        b = b2
    knot(b, 0.0)
    knot(hi, 0.0)
    return np.asarray(xs), np.asarray(ys)


def _check_landscapes(a: LandscapeSet, b: LandscapeSet) -> None:
    if a.max_levels != b.max_levels:
        raise ParameterError(
            f"landscapes carry different level counts: {a.max_levels} vs {b.max_levels}"
        )
    if a.domain != b.domain:
        raise DomainMismatchError(f"landscape domains differ: {a.domain} vs {b.domain}")


def landscape_lp_norm(L: LandscapeSet, p) -> float:
    """Sum over levels of the per-level L^p norm (sup value per level for p=inf)."""
    ends = np.unique(L.domain)
    zero = LandscapeSet(((ends, np.zeros(len(ends))),) * L.max_levels, L.domain)
    return float(landscape_lp_distances([L], zero, p)[0])


def landscape_lp_distance(L1: LandscapeSet, L2: LandscapeSet, p) -> float:
    """Sum over levels of the per-level L^p distance."""
    return float(landscape_lp_distances([L1], L2, p)[0])


def landscape_lp_distances(lands, center: LandscapeSet, p) -> np.ndarray:
    """L^p distance of every landscape from `center`: per level, the exact
    integral of |level - center level|^p (the sup for p=inf), summed over
    levels after taking the 1/p-th power.

    Each level is compared on one grid, the union of the knots of the center
    and of every landscape. When the center's knots include all the others,
    as those of their mean do, that is the grid of every pairwise distance,
    and each distance is bitwise the one computed alone. Landscapes are
    interpolated onto the grid a block of rows at a time, which bounds the
    memory.
    """
    p = _check_p(p)
    lands = list(lands)
    for L in lands:
        _check_landscapes(L, center)
    total = np.zeros(len(lands))
    for k, (cx, cy) in enumerate(center.levels):
        levels = [L.levels[k] for L in lands]
        grid = np.unique(np.concatenate([cx] + [xs for xs, _ in levels]))
        ref = np.interp(grid, cx, cy)
        dx = np.diff(grid)
        # a level on the grid is a path of knots and segments, counted like
        # the vertices and edges of a spanning-forest block
        rows = max(1, _FOREST_BLOCK_SIZE // (2 * len(grid) - 1))
        integral = np.empty(len(levels))
        for s in range(0, len(levels), rows):
            block = np.asarray([np.interp(grid, xs, ys) for xs, ys in levels[s:s + rows]])
            integral[s:s + rows] = _abs_pow_integrals(dx, block - ref, p)
        if math.isinf(p):
            total += integral
        else:
            total += [v ** (1.0 / p) if v > 0 else 0.0 for v in integral.tolist()]
    return total


def _abs_pow_integrals(dx: np.ndarray, ys: np.ndarray, p: float) -> np.ndarray:
    """Exact integral of |f|^p (max |f| for p=inf) for each row of `ys`, a
    piecewise-linear f with knots spaced `dx` apart; 0 on a one-knot grid."""
    if len(dx) == 0:
        return np.zeros(len(ys))
    if math.isinf(p):
        return np.max(np.abs(ys), axis=1)
    y1, y2 = ys[:, :-1], ys[:, 1:]
    if p == 1.0:
        # where the segment crosses zero, the part on either side is a triangle;
        # the crossing fraction t is discarded (and may be 0/0) elsewhere
        with np.errstate(invalid="ignore", divide="ignore"):
            t = y1 / (y1 - y2)
            crossing = 0.5 * dx * (t * np.abs(y1) + (1.0 - t) * np.abs(y2))
        area = np.where(y1 * y2 >= 0, 0.5 * dx * (np.abs(y1) + np.abs(y2)), crossing)
        return area.sum(axis=1)
    # p == 2: closed form for the integral of a squared linear segment
    return np.sum(dx * (y1 * y1 + y1 * y2 + y2 * y2) / 3.0, axis=1)


def mean_landscape(landscapes) -> LandscapeSet:
    """Per-level pointwise mean over landscapes with common domain and level count."""
    ls = list(landscapes)
    if not ls:
        raise ParameterError("cannot average an empty list of landscapes")
    first = ls[0]
    for other in ls[1:]:
        _check_landscapes(first, other)
    levels = []
    for k in range(first.max_levels):
        xs = np.unique(np.concatenate([L.levels[k][0] for L in ls]))
        ys = np.zeros(len(xs))
        for L in ls:
            ys += np.interp(xs, L.levels[k][0], L.levels[k][1])
        levels.append((xs, ys / len(ls)))
    return LandscapeSet(tuple(levels), first.domain)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def write_step_curve(c: StepCurve, path, p=None) -> None:
    """Segment table with a JSON comment header (kind, p, domain)."""
    header = {"kind": "step_curve", "p": None if p is None else str(p), "domain": list(c.domain)}
    lines = [f"# {json.dumps(header)}", "start\tend\tvalue"]
    for i in range(len(c.segment_values)):
        lines.append(f"{float(c.knots[i])!r}\t{float(c.knots[i + 1])!r}\t{float(c.segment_values[i])!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_landscape(L: LandscapeSet, path, p=None) -> None:
    """Knot table with a JSON comment header (kind, p, domain, levels)."""
    header = {"kind": "landscape", "p": None if p is None else str(p),
              "domain": list(L.domain), "levels": L.max_levels}
    lines = [f"# {json.dumps(header)}", "level\tx\ty"]
    for k, (xs, ys) in enumerate(L.levels, start=1):
        for x, y in zip(xs, ys):
            lines.append(f"{k}\t{float(x)!r}\t{float(y)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
