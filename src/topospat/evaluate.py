"""Scoring detection methods against ground-truth labels.

Scores are "higher means more spatially variable"; p-value based rankings
should be passed as -p (or 1-p). AUPRC uses the tie-grouped average-precision
step estimator, which stays well defined when permutation p-values collapse
onto a handful of distinct levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DegenerateDataError,
    DimensionError,
    ParameterError,
    ValidationError,
)


@dataclass
class EvalResult:
    metric: str
    value: float
    method: str = ""
    bootstrap_sd: float | None = None
    params: dict = field(default_factory=dict)


def _scores_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    l = np.asarray(labels, dtype=bool)
    if s.ndim != 1 or l.ndim != 1 or len(s) != len(l):
        raise DimensionError("scores and labels must be 1-D vectors of equal length")
    if not np.all(np.isfinite(s)):
        raise ValidationError("scores contain NaN or infinite entries")
    if l.all() or not l.any():
        raise DegenerateDataError("labels contain a single class; metric undefined")
    return s, l


def auprc(scores, labels) -> float:
    """Area under the precision-recall curve, tie-grouped step form.

    The score threshold sweeps over the distinct values from high to low;
    equal scores enter as one block, and each block contributes its recall
    increment times its precision.
    """
    s, l = _scores_labels(scores, labels)
    order = np.argsort(-s, kind="stable")
    s, l = s[order], l[order]
    # last index of every tie block
    block_end = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    tp = np.cumsum(l)[block_end]
    pp = block_end + 1.0
    tp_prev = np.concatenate([[0.0], tp[:-1]])
    total_pos = float(l.sum())
    # fsum: correctly-rounded total, independent of block order
    return math.fsum(((tp - tp_prev) * tp / pp).tolist()) / total_pos


def sensitivity_specificity(q_values, labels, alpha: float = 0.05) -> tuple[float, float]:
    """(sensitivity, specificity) of the call `q <= alpha`."""
    q = np.asarray(q_values, dtype=np.float64)
    l = np.asarray(labels, dtype=bool)
    if q.ndim != 1 or len(q) != len(l):
        raise DimensionError("q-values and labels must be 1-D vectors of equal length")
    if np.any(~np.isfinite(q)) or np.any(q <= 0) or np.any(q > 1):
        raise ValidationError("q-values must lie in (0, 1]")
    if l.all() or not l.any():
        raise DegenerateDataError("labels contain a single class; metric undefined")
    called = q <= alpha
    tp = np.count_nonzero(called & l)
    fn = np.count_nonzero(~called & l)
    tn = np.count_nonzero(~called & ~l)
    fp = np.count_nonzero(called & ~l)
    return tp / (tp + fn), tn / (tn + fp)


def top_k_true_proportion(scores, labels, k: int, names=None) -> float:
    """Fraction of true labels among the k best-scored features.

    Ties are broken deterministically by descending score, then by name
    (feature order when no names are given).
    """
    s = np.asarray(scores, dtype=np.float64)
    l = np.asarray(labels, dtype=bool)
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if k > len(s):
        raise ParameterError(f"k={k} exceeds the number of features ({len(s)})")
    if names is None:
        order = sorted(range(len(s)), key=lambda i: (-s[i], i))
    else:
        if len(names) != len(s):
            raise DimensionError("need one name per score")
        order = sorted(range(len(s)), key=lambda i: (-s[i], str(names[i])))
    top = order[:k]
    return float(np.count_nonzero(l[top])) / k


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 1 or yv.ndim != 1 or len(xv) != len(yv):
        raise DimensionError("inputs must be 1-D vectors of equal length")
    if len(xv) < 3:
        raise ParameterError("need at least 3 observations")
    if np.all(xv == xv[0]) or np.all(yv == yv[0]):
        raise DegenerateDataError("constant vector; rank correlation undefined")
    if np.isnan(xv).any() or np.isnan(yv).any():
        return math.nan  # a NaN has no rank, and every average rank becomes NaN
    return float(np.corrcoef(_average_ranks(xv), _average_ranks(yv))[0, 1])


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of `v`, each tie block given its average rank."""
    order = np.argsort(v, kind="stable")
    s = v[order]
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True)) + 1  # past each block
    starts = np.concatenate([[0], ends[:-1]])
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def bootstrap_sd(metric, scores, labels, n_boot: int = 1000, seed: int = 0):
    """Standard deviation of `metric(scores, labels)` over feature resamples;
    for a metric that returns a tuple, a tuple of the SDs of its entries.

    Resamples drawn with replacement; draws on which the metric is undefined
    (single class in the resample) are redrawn, up to 100 consecutive retries.
    """
    s = np.asarray(scores, dtype=np.float64)
    l = np.asarray(labels, dtype=bool)
    if len(s) != len(l):
        raise DimensionError("scores and labels must have equal length")
    if n_boot < 1:
        raise ParameterError(f"n_boot must be >= 1, got {n_boot}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    values = []
    consecutive_bad = 0
    while len(values) < n_boot:
        idx = rng.integers(0, len(s), len(s))
        try:
            values.append(metric(s[idx], l[idx]))
        except DegenerateDataError:
            consecutive_bad += 1
            if consecutive_bad >= 100:
                raise DegenerateDataError(
                    "100 consecutive bootstrap resamples were degenerate"
                ) from None
            continue
        consecutive_bad = 0
    if isinstance(values[0], tuple):
        return tuple(_sd(column) for column in zip(*values))
    return _sd(values)


def _sd(values) -> float:
    if len(values) == 1:
        return 0.0
    return float(np.std(np.asarray(values, dtype=np.float64), ddof=1))
