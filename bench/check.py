"""Correctness checks on `topospat test` reports, behind `failed_frac`.

A report is compared row by row: `p_value`, `q_value`, `rank`, `status` and
`method` must match exactly, and `statistic` within STAT_REL_TOL. Byte
comparison would be wrong: the Moran statistic of the same report changes in
its last digits with the OpenBLAS thread count while p, q and rank do not.

Reports on the seeded timed inputs have no recorded reference, so they are
held to what the method guarantees instead (see `invariant_failures`) and to
the first report of the same run.
"""
from __future__ import annotations

import math
from pathlib import Path

REPORT_COLUMNS = ("feature", "method", "statistic", "p_value", "q_value", "rank", "status")
# Relative tolerance on `statistic`. Reassociated float sums differ by a few
# ulps (~1e-16 relative); 1e-9 admits that and nothing a real change makes.
STAT_REL_TOL = 1e-9
STAT_ABS_TOL = 1e-12


def read_report(path: Path) -> dict[str, dict]:
    """Rows of a report TSV keyed by feature name."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or tuple(lines[0].split("\t")) != REPORT_COLUMNS:
        raise ValueError(f"{path}: not a topospat report")
    rows = {}
    for line in lines[1:]:
        name, method, stat, p, q, rank, status = line.split("\t")
        rows[name] = {"method": method, "statistic": float(stat), "p_value": float(p),
                      "q_value": float(q), "rank": int(rank), "status": status}
    return rows


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def rows_agree(row: dict, ref: dict) -> bool:
    stat, ref_stat = row["statistic"], ref["statistic"]
    return (row["status"] == ref["status"] and row["method"] == ref["method"]
            and row["rank"] == ref["rank"]
            and _same(row["p_value"], ref["p_value"]) and _same(row["q_value"], ref["q_value"])
            and (_same(stat, ref_stat)
                 or math.isclose(stat, ref_stat, rel_tol=STAT_REL_TOL, abs_tol=STAT_ABS_TOL)))


def disagreements(rows: dict, ref: dict) -> set[str]:
    """Features missing from either report or whose rows differ."""
    return {n for n in rows.keys() | ref.keys()
            if n not in rows or n not in ref or not rows_agree(rows[n], ref[n])}


def benjamini_hochberg(p_values: list[float]) -> list[float]:
    """Step-up BH q-values in input order."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    q = [0.0] * m
    running = 1.0
    for pos in range(m - 1, -1, -1):
        i = order[pos]
        running = min(running, p_values[i] * m / (pos + 1))
        q[i] = running
    return q


def invariant_failures(rows: dict, expected: tuple[str, ...], n_perm: int) -> set[str]:
    """Features that break what every correct report of these inputs satisfies.

    Every expected feature is present and `ok`, and no other is. Each p-value
    is (k + 1) / (n_perm + 1) for an integer 0 <= k <= n_perm. Each q-value is
    the BH adjustment of the p-values. Ranks run 1..F by ascending p, then
    descending statistic, then name.
    """
    bad = {n for n in rows.keys() ^ set(expected)}
    ok = {n: r for n, r in rows.items() if r["status"] == "ok"}
    bad |= rows.keys() - ok.keys()
    for name, r in ok.items():
        k = r["p_value"] * (n_perm + 1) - 1
        if not (abs(k - round(k)) < 1e-6 and 0 <= round(k) <= n_perm):
            bad.add(name)
    names = sorted(ok)
    qs = benjamini_hochberg([ok[n]["p_value"] for n in names])
    for name, q in zip(names, qs):
        if not math.isclose(ok[name]["q_value"], q, rel_tol=1e-12):
            bad.add(name)
    order = sorted(ok, key=lambda n: (ok[n]["p_value"], -ok[n]["statistic"], n))
    order += sorted(rows.keys() - ok.keys())
    bad |= {n for rank, n in enumerate(order, start=1) if rows[n]["rank"] != rank}
    return bad
