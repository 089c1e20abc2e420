"""Landscape levels as staircases of tents, read off flat pair arrays.

The landscape of a diagram is its pointwise k-th largest tents, level by
level (Bubenik, JMLR 16, 2015). With a diagram's tents in order of death,
level k changes only where the k-th largest birth so far rises above the
death: there it gains a tent. `_tent_groups` keeps the tents of diagram
blocks, `_level_tents` finds those level tents for a group of blocks at
once, one numpy pass per level over padded matrices, and `_staircase` turns
them into knots: their corners, apexes and crossings, by the float formulas
and knot rule of the sweep of Bubenik & Dłotko, J. Symb. Comput. 78 (2017),
whose knots these are to the bit (but for the sign of a zero where -0.0 and
0.0 tie). `summaries._landscapes`, the one read-out, wraps them.
"""
from __future__ import annotations

import numpy as np

from .persistence import _FOREST_BLOCK_SIZE


def _tent_groups(blocks):
    """The tents (pairs with birth > death) of consecutive diagram blocks,
    as `persistence._diagram_blocks` yields them, as `(owner, births,
    deaths, f_min, f_max)`, joined while the rows times the most tents of
    one row, the cells of `_level_tents`' padded matrices, stay within
    _FOREST_BLOCK_SIZE; a block alone may exceed it."""
    group, rows, width = [], 0, 0
    for owner, births, deaths, _, _, f_min, f_max in blocks:
        tent = births > deaths
        most = int(np.bincount(owner[tent]).max(initial=0))
        if group and (rows + len(f_min)) * max(width, most) > _FOREST_BLOCK_SIZE:
            yield [np.concatenate(parts) for parts in zip(*group)]
            group, rows, width = [], 0, 0
        group.append((owner[tent] + rows, births[tent], deaths[tent], f_min, f_max))
        rows, width = rows + len(f_min), max(width, most)
    yield [np.concatenate(parts) for parts in zip(*group)]


def _level_tents(owner, births, deaths, n_rows: int, max_levels: int) -> tuple:
    """The tents (a[j], b[j]) of level 1 + row[j] // n_rows of diagram
    row[j] % n_rows, by level, diagram and death, as `(row, a, b)`, from
    the tents of a group of `_tent_groups`.

    Row i of matrices B and D holds diagram i's tents by death, padded
    with B = -inf and D = +inf. V_k, the k-th largest birth of a row's
    first m tents, is the running maximum of min(B, V_{k-1} one
    column right), V_0 = +inf. Where V_k rises over a run of equal deaths
    ending at m, to V_k(m) > D_m, level k has the tent (D_m, V_k(m)). These
    are the sweep's tents, bit for bit, except that a run's tents enter as
    a set: where -0.0 and 0.0 tie, a tent may carry either."""
    counts = np.bincount(owner, minlength=n_rows)
    width = max(1, int(counts.max(initial=0)))
    b, d = np.full((n_rows, width), -np.inf), np.full((n_rows, width), np.inf)
    column = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    b[owner, column], d[owner, column] = births, deaths
    by_death = np.argsort(d, axis=1, kind="stable")
    b, d = np.take_along_axis(b, by_death, axis=1), np.take_along_axis(d, by_death, axis=1)
    # each run of equal deaths ends where the next death differs
    ends = np.flatnonzero(np.append(d[:, :-1] != d[:, 1:], np.ones((n_rows, 1), bool), axis=1))
    a = d.flat[ends]
    first = np.append(True, ends[1:] // width != ends[:-1] // width)  # of its row
    tents = []
    v, shifted = np.empty_like(b), np.full_like(b, np.inf)  # V_k and V_{k-1} one column right
    for k in range(max_levels):
        np.minimum(b, shifted, out=v)
        np.maximum.accumulate(v, axis=1, out=v)
        shifted[:, 0] = -np.inf
        shifted[:, 1:] = v[:, :-1]
        top = v.flat[ends]
        before = np.roll(top, 1)
        before[first] = -np.inf
        event = np.flatnonzero((top > before) & (top > a))
        tents.append((ends[event] // width + k * n_rows, a[event], top[event]))
        if len(event) == 0:  # nor has any lower level a tent
            break
    return tuple(np.concatenate(parts) for parts in zip(*tents))


def _staircase(row, a, b, lows, highs) -> tuple[np.ndarray, np.ndarray, list]:
    """The knots of landscape levels, flat, and the end of each level's knots.
    Level i spans [lows[i], highs[i]] with the tents (a[j], b[j]) where
    row[j] == i, by death. Its candidate knots are (lows[i], 0); per tent,
    the crossing with the previous tent twice if they overlap, else (b_prev,
    0) and (a, 0), then the apex, then (b, 0) after the last tent, else the
    apex again; and (highs[i], 0). Each run of equal abscissae is one knot,
    the lowest, at the first: the sweep's float formulas and knot rule."""
    first = row != np.append(-1, row[:-1])
    last = row != np.append(row[1:], -1)
    prev = np.roll(b, 1)  # the previous tent's birth
    cross = ~first & (a < prev)
    x, y = np.empty((len(a), 4)), np.zeros((len(a), 4))
    x[:, 1] = np.where(cross, 0.5 * (a + prev), a)
    x[:, 0] = np.where(first | cross, x[:, 1], prev)
    y[:, 0] = y[:, 1] = np.where(cross, 0.5 * (prev - a), 0.0)
    x[:, 2], y[:, 2] = 0.5 * (a + b), 0.5 * (b - a)  # the apex
    x[:, 3] = np.where(last, b, x[:, 2])
    y[:, 3] = np.where(last, 0.0, y[:, 2])
    size = 2 + 4 * np.bincount(row, minlength=len(lows))
    tail = np.cumsum(size) - 1
    head = tail + 1 - size
    inner = np.ones(tail[-1] + 1, dtype=bool)
    inner[head] = inner[tail] = False
    cx, cy = np.empty(len(inner)), np.zeros(len(inner))
    cx[inner], cy[inner] = x.ravel(), y.ravel()
    cx[head], cx[tail] = lows, highs
    new = np.empty(len(cx), dtype=bool)
    np.not_equal(cx[1:], cx[:-1], out=new[1:])
    new[head] = True
    knots = np.flatnonzero(new)
    return cx[knots], np.minimum.reduceat(cy, knots), np.searchsorted(knots, tail + 1).tolist()
