"""Functional summaries of persistence diagrams.

Total lifetime, Betti curves (exact step functions) and persistence
landscapes (exact piecewise-linear level functions), together with L^p
norms, L^p distances and pointwise means. Everything is computed in closed
form on breakpoints rather than on a sampling grid, so no resolution
parameter exists and the L^1 norm of a Betti curve equals the total
lifetime up to float rounding. Supported norm orders are p in {1, 2, inf}.

One read-out, `_landscapes`, turns a stream of diagram blocks into
landscapes: the permutation test passes it the blocks of the diagram
read-out (`persistence._diagram_blocks`) as they come, and `landscape`
passes its one diagram as a stream of one block. Level k is a staircase of
tents where the running k-th largest birth rises, one numpy pass per level
over a group of consecutive blocks (`staircase`).

The mean of many landscapes sums slope events instead of interpolating each
landscape onto the union of their knots, and the permutation test's L^2
distances from it come from its moments, so neither grows with the product
of the landscape count and that union. One function, `_landscape_measures`,
measures every distance of the test and its rounding slack; `spatial_stats`
calls the read-out, the centre and the measures, and counts.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainMismatchError, ParameterError
from .persistence import _FOREST_BLOCK_SIZE, PersistenceDiagram
from .staircase import _level_tents, _staircase, _tent_groups


# Rounding allowance of each term of a squared landscape distance, in ulps;
# generous, since only assignments within it of a tie go back to the grid.
_MOMENT_ULPS = 2**20


def _check_int(name: str, value) -> int:
    """`value` as an int; a float or any other non-integer raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


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

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    def value_at(self, delta: float) -> float:
        if not self.knots[0] <= delta <= self.knots[-1]:  # NaN included
            return 0.0
        return float(_step_on_grid(self, np.asarray([delta], dtype=np.float64))[1][0])


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


def _on_union_grid(curves: list) -> tuple:
    """The union of the knots of step curves sharing one domain, and each
    curve's (segment, point) values on it, read lazily."""
    first = curves[0]
    for c in curves[1:]:
        if first.domain != c.domain:
            raise DomainMismatchError(f"curve domains differ: {first.domain} vs {c.domain}")
    grid = np.unique(np.concatenate([c.knots for c in curves]))
    return grid, (_step_on_grid(c, grid) for c in curves)


def _segments_lp(knots: np.ndarray, segments: np.ndarray, p: float) -> float:
    """Exact L^p norm of the step function with `segments` between `knots`."""
    if segments.size == 0:
        return 0.0
    if math.isinf(p):
        return float(np.max(np.abs(segments)))
    return float(np.sum(np.abs(segments) ** p * np.diff(knots)) ** (1.0 / p))


def curve_lp_norm(c: StepCurve, p) -> float:
    """Exact L^p norm; the degenerate single-point curve has norm 0 for finite p."""
    return _segments_lp(c.knots, c.segment_values, _check_p(p))


def curve_lp_distance(c1: StepCurve, c2: StepCurve, p) -> float:
    """L^p distance between step curves sharing the same domain."""
    p = _check_p(p)
    grid, ((s1, _), (s2, _)) = _on_union_grid([c1, c2])
    return _segments_lp(grid, s1 - s2, p)


def mean_step_curve(curves) -> StepCurve:
    """Pointwise arithmetic mean of step curves on a common domain."""
    curves = list(curves)
    if not curves:
        raise ParameterError("cannot average an empty list of curves")
    grid, values = _on_union_grid(curves)
    segs = np.zeros(max(len(grid) - 1, 0))
    pts = np.zeros(len(grid))
    for s, q in values:
        segs += s
        pts += q
    return StepCurve(grid, segs / len(curves), pts / len(curves))


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
        if not lo <= delta <= hi:  # NaN included
            return 0.0
        xs, ys = self.levels[k - 1]
        return float(np.interp(delta, xs, ys))


def landscape(d: PersistenceDiagram, max_levels: int = 5) -> LandscapeSet:
    """First `max_levels` landscape levels of the diagram, as exact knot lists.

    The tent of a pair (birth, death) with birth > death rises with slope 1
    from death to the midpoint and falls back to zero at birth; level k is the
    pointwise k-th maximum over all tents (Bubenik, JMLR 16, 2015). With the
    tents in order of death, wherever the k-th largest birth so far rises
    above the death d to b, level k has the tent (d, b); its knots are those
    tents' corners, apexes and crossings, the knots of the sweep of Bubenik &
    Dłotko (J. Symb. Comput. 78, 2017) but for the sign of a tied zero
    (`staircase`). Knots are strictly increasing; slopes are exactly -1, 0
    or +1 wherever the knot arithmetic is exact.
    """
    max_levels = _check_int("max_levels", max_levels)
    if max_levels < 1:
        raise ParameterError(f"max_levels must be >= 1, got {max_levels}")
    lows, highs = np.asarray([[d.f_min], [d.f_max]], dtype=np.float64)
    block = (np.zeros(len(d), dtype=np.intp), d.births, d.deaths, None, None, lows, highs)
    return _landscapes([block], max_levels)[0]


def _landscapes(blocks, max_levels: int) -> list[LandscapeSet]:
    """The landscape of every diagram of a stream of blocks of flat pair
    arrays, as `persistence._diagram_blocks` yields them: pair j belongs to
    diagram owner[j] (non-decreasing), diagram i spans [f_min[i], f_max[i]]."""
    lands = []
    for owner, births, deaths, lows, highs in _tent_groups(blocks):
        n_rows = len(lows)
        xs, ys, stops = _staircase(*_level_tents(owner, births, deaths, n_rows, max_levels),
                                   np.tile(lows, max_levels), np.tile(highs, max_levels))
        spans = list(zip([0] + stops[:-1], stops))  # of level k of row i at k * n_rows + i
        lands += [LandscapeSet(tuple((xs[start:stop], ys[start:stop])
                                     for start, stop in spans[i::n_rows]), (lo, hi))
                  for i, (lo, hi) in enumerate(zip(lows.tolist(), highs.tolist()))]
    return lands


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
    and each distance is bitwise the one computed alone.
    """
    p = _check_p(p)
    lands = list(lands)
    for L in lands:
        _check_landscapes(L, center)
    grids = [np.unique(np.concatenate([cx] + [L.levels[k][0] for L in lands]))
             for k, (cx, _) in enumerate(center.levels)]
    return sum(_level_distances(grids, lands, center, p))


def _level_distances(grids, lands: list, center: LandscapeSet, p: float) -> np.ndarray:
    """Per level (row), the L^p distance of each landscape (column) from
    `center` on grids[k], which must hold the knots of that level of the
    center and of every landscape, as the mean's knots do; summed row by
    row, in level order, they are the distances. Landscapes are
    interpolated onto a grid a block of rows at a time, into one buffer,
    which bounds the memory."""
    out = np.empty((len(grids), len(lands)))
    for k, (grid, (cx, cy)) in enumerate(zip(grids, center.levels)):
        ref = cy if len(grid) == len(cx) else np.interp(grid, cx, cy)  # grid is cx, or holds it
        dx = np.diff(grid)
        # a level on the grid is a path of knots and segments, counted like
        # the vertices and edges of a spanning-forest block
        rows = max(1, _FOREST_BLOCK_SIZE // (2 * len(grid) - 1))
        buffer = np.empty((min(rows, len(lands)), len(grid)))
        integral = np.empty(len(lands))
        for s in range(0, len(lands), rows):
            block = buffer[:len(lands) - s]
            for row, L in zip(block, lands[s:s + rows]):
                row[:] = np.interp(grid, *L.levels[k])
            block -= ref
            integral[s:s + rows] = _abs_pow_integrals(dx, block, p)
        out[k] = integral if math.isinf(p) else [
            v ** (1.0 / p) if v > 0 else 0.0 for v in integral.tolist()]
    return out


def _abs_pow_integrals(dx: np.ndarray, ys: np.ndarray, p: float) -> np.ndarray:
    """Exact integral of |f|^p (max |f| for p=inf) for each row of `ys`, a
    piecewise-linear f with knots spaced `dx` apart; 0 on a one-knot grid.
    Overwrites `ys`."""
    if len(dx) == 0:
        return np.zeros(len(ys))
    if math.isinf(p):
        return np.abs(ys, out=ys).max(axis=1)
    y1, y2 = ys[:, :-1], ys[:, 1:]
    prod = y1 * y2
    if p == 1.0:
        # a segment whose ends differ in sign is two triangles, split where
        # it crosses zero, at the fraction t of its width
        at = np.nonzero(prod < 0)
        first, second = y1[at], y2[at]
        t = first / (first - second)
        np.abs(ys, out=ys)
        area = np.add(y1, y2, out=prod)
        area[at] = t * np.abs(first) + (1.0 - t) * np.abs(second)
        area *= 0.5 * dx
        return area.sum(axis=1)
    # p == 2: closed form for the integral of a squared linear segment,
    # dx * (y1 * y1 + y1 * y2 + y2 * y2) / 3
    np.multiply(ys, ys, out=ys)
    prod += y1
    prod += y2
    prod *= dx
    prod /= 3.0
    return prod.sum(axis=1)


def mean_landscape(landscapes) -> LandscapeSet:
    """Per-level pointwise mean over landscapes with common domain and level count.

    Each level of the mean lives on the union of the knots of that level.
    No landscape is interpolated onto it: the slope of each landscape's
    piece enters a running sum at the piece's first knot and leaves it at
    its last, and the level is the running sum of slope times knot gap,
    both sums compensated. A level's knots must be strictly increasing, as
    `landscape` makes them."""
    ls = list(landscapes)
    if not ls:
        raise ParameterError("cannot average an empty list of landscapes")
    first = ls[0]
    for other in ls[1:]:
        _check_landscapes(first, other)
    return LandscapeSet(tuple((grid, total / len(ls)) for grid, total in _level_sums(ls)),
                        first.domain)


def _flat_levels(lands: list) -> tuple:
    """The knots of every level of every landscape in two flat arrays, level
    by level and, within a level, landscape by landscape; the knot count of
    each (level, landscape); the index of the first knot of every piece,
    which is every knot but the last of each (level, landscape); the union
    of each level's knots; and each knot's flat index in the matrix whose
    row k is level k's union, padded as by `_padded`."""
    n, n_levels = len(lands), lands[0].max_levels
    funcs = [L.levels[k] for k in range(n_levels) for L in lands]
    xs = np.concatenate([x for x, _ in funcs])
    ys = np.concatenate([y for _, y in funcs])
    counts = np.asarray([len(x) for x, _ in funcs])
    inner = np.ones(len(xs) - 1, dtype=bool)
    inner[np.cumsum(counts)[:-1] - 1] = False
    stops = np.cumsum(counts.reshape(n_levels, n).sum(axis=1)).tolist()
    grids, at = zip(*(np.unique(xs[start:stop], return_inverse=True)
                      for start, stop in zip([0] + stops, stops)))
    width = max(len(g) for g in grids)
    at = np.concatenate([place + k * width for k, place in enumerate(at)])
    return xs, ys, counts, np.flatnonzero(inner), grids, at


def _padded(rows, pad_with_last: bool) -> np.ndarray:
    """The 1-D arrays `rows` as the rows of one matrix, each padded to the
    longest with copies of its last entry, or with zeros."""
    out = np.zeros((len(rows), max(len(r) for r in rows)))
    for line, r in zip(out, rows):
        line[:len(r)] = r
        if pad_with_last:
            line[len(r):] = r[-1]
    return out


def _level_sums(lands: list) -> list:
    """Per level, the union of the landscapes' knots and the sum of the
    landscapes on it, each level constant beyond its own ends as np.interp
    reads it. A level is a row of padded matrices, so one running sum along
    the rows serves all."""
    n, n_levels = len(lands), lands[0].max_levels
    xs, ys, counts, a, grids, at = _flat_levels(lands)
    grid = _padded(grids, True)
    width = xs[a + 1] - xs[a]
    if not np.all(width > 0):
        raise ParameterError("landscape knots must be strictly increasing")
    slope = (ys[a + 1] - ys[a]) / width
    # a piece's slope enters the running sum at its first knot and leaves it at its last
    enter = np.bincount(at[a], slope, grid.size) - np.bincount(at[a + 1], slope, grid.size)
    slopes = _prefix_sums(enter.reshape(grid.shape))
    rises = np.empty(grid.shape)
    starts = np.cumsum(counts) - counts
    rises[:, 0] = np.bincount(np.arange(n_levels * n) // n, ys[starts], n_levels)  # left ends
    rises[:, 1:] = slopes[:, :-1] * np.diff(grid, axis=1)  # zero past a level's last knot
    return [(g, s[:len(g)]) for g, s in zip(grids, _prefix_sums(rises))]


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    """Running sums along the last axis of `terms`, about as accurate as in
    twice the precision: np.cumsum's sums plus a running sum of the exact
    rounding error of each of its additions (TwoSum; Ogita, Rump & Oishi's
    Sum2)."""
    total = np.cumsum(terms, axis=-1)
    before = np.zeros_like(total)
    before[..., 1:] = total[..., :-1]
    added = total - before
    return total + np.cumsum((before - (total - added)) + (terms - added), axis=-1)


def _landscape_measures(lands: list, center: LandscapeSet, p: float,
                        tie_ulps: float) -> tuple[np.ndarray, np.ndarray]:
    """The permutation test's measure of each landscape, its L^p distance
    from `center`, the mean of `lands` (lands[0] the observed one); and its
    slack, a bound of `tie_ulps` ulps on the rounding of the distance.
    Equal landscapes have equal knots, so their measures are bitwise equal.

    The mean's knots hold every landscape's, so at p = 1 and inf each level
    is compared on them. At p = 2 no landscape is interpolated onto them.
    Per level, the square is the integral of lambda^2 - 2 lambda mu + mu^2.
    Every level is zero at the domain's low end, as swept levels are, so it
    is a sum of ramps: its piece [x_a, x_b] of slope s adds s * min(max(t -
    x_a, 0), x_b - x_a), whose integral against mu is s * (Q(x_a) - Q(x_b))
    with Q(x) = integral over t > x of (t - x) mu(t), read at the center's
    knots. Q and the mass of mu right of each knot are running sums of
    non-negative terms from the high end, one level per row of padded
    matrices. A square d2 that lies within e of the grid's has a root within
    e / (d + sqrt(d2 - e)) of it if d2 > e, else within sqrt(d2 + e). A
    level bitwise equal to the observed one's takes its distance on the
    grid, exactly. The observed assignment, and every assignment whose
    distance lies within that bound of where the test counts it, are
    measured on the grid, so every count is the one the grid gives."""
    grids = [xs for xs, _ in center.levels]
    # Knots, and so each pointwise difference from the mean, carry rounding
    # of a few ulps of the abscissae (at most max(|lo|, |hi|)), which moves a level's
    # distance by at most that times width ** (1/p). Decimal values split
    # exact ties that way: equal widths 0.3 - 0.1 = 0.7 - 0.5 round apart.
    lo, hi = center.domain
    bound = tie_ulps * np.finfo(np.float64).eps * center.max_levels * max(abs(lo), abs(hi))
    slack = np.full(len(lands), bound * (hi - lo) ** (1.0 / p))
    if p != 2.0:
        return sum(_level_distances(grids, lands, center, p)), slack

    n, n_levels = len(lands), center.max_levels
    grid = _padded(grids, True)
    mu = _padded([ys for _, ys in center.levels], False)
    gap, left, right = np.diff(grid, axis=1), mu[:, :-1], mu[:, 1:]
    mass, q = np.zeros(grid.shape), np.zeros(grid.shape)
    mass[:, :-1] = _prefix_sums((gap * (left + right) / 2.0)[:, ::-1])[:, ::-1]
    moment = gap * gap * (left + 2.0 * right) / 6.0  # of (t - x) mu over each gap
    q[:, :-1] = _prefix_sums((moment + gap * mass[:, 1:])[:, ::-1])[:, ::-1]
    center_sq = np.sum(gap * (left * left + left * right + right * right), axis=1)[:, None] / 3.0

    xs, ys, counts, a, _, at = _flat_levels(lands)  # the unions are the center's knots
    q = q.ravel()
    func = np.repeat(np.arange(n_levels * n), counts)  # the (level, landscape) of each knot
    width, y1, y2 = xs[a + 1] - xs[a], ys[a], ys[a + 1]
    slope = (y2 - y1) / width
    qa, qb = q[at[a]], q[at[a + 1]]

    def per_level(weights, of=func[a]):
        return np.bincount(of, weights, n_levels * n).reshape(n_levels, n)

    own_sq = per_level(width * (y1 * y1 + y1 * y2 + y2 * y2)) / 3.0
    sq = np.maximum(own_sq - 2.0 * per_level(slope * (qa - qb)) + center_sq, 0.0)
    # each term rounds a fixed number of times on either path, and a
    # landscape's sum over its pieces once per piece
    ulps = _MOMENT_ULPS + counts.reshape(n_levels, n)
    size = own_sq + 2.0 * per_level(np.abs(slope) * (qa + qb)) + center_sq
    error = ulps * np.finfo(np.float64).eps * size
    root = np.sqrt(sq)
    spread = np.sqrt(sq + error)
    far = sq > error
    spread[far] = error[far] / (root[far] + np.sqrt(sq[far] - error[far]))

    starts = np.cumsum(counts) - counts
    first = func - func % n  # the first landscape's (level, landscape)
    ref = starts[first] + np.minimum(np.arange(len(xs)) - starts[func], counts[first] - 1)
    bits_x, bits_y = xs.view(np.int64), ys.view(np.int64)
    same = (counts[func] == counts[first]) & (bits_x == bits_x[ref]) & (bits_y == bits_y[ref])
    same = per_level(~same, func) == 0
    # summed level by level, as on the grid
    measure = sum(np.where(same, _level_distances(grids, lands[:1], center, p), root))
    reach = np.where(same, 0.0, spread).sum(axis=0)  # how far from the grid's each may lie
    # within reach of the test's threshold; a measure of no reach, lands[0]'s too, is the grid's
    near = np.flatnonzero((np.abs(measure - (measure[0] - (slack + slack[0]))) <= reach)
                          & (reach > 0))
    measure[near] = sum(_level_distances(grids, [lands[i] for i in near], center, p))
    return measure, slack
