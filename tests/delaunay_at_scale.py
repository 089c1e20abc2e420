"""Delaunay graphs at scale, against scipy's Qhull.

Run from the repository root:

    PYTHONPATH=src python3 tests/delaunay_at_scale.py

- 50 000 uniform points: `delaunay_graph` must give Qhull's edges. Both
  builds are also timed in fresh processes, imports included, and printed.
- 20 000 distinct integer-pixel points, full of cocircular quadruples: the
  edge count must equal Qhull's, and every edge that Qhull lacks must be a
  diagonal of an exactly cocircular quadrilateral.

Exits 1 on the first mismatch.
"""
from __future__ import annotations

import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import delaunay_edges_qhull, exact_incircle, exact_orient  # noqa: E402

from topospat import delaunay_graph  # noqa: E402

_TIMED_BUILD = """
import time
t0 = time.perf_counter()
import sys
import numpy as np
sys.path.insert(0, {tests!r})
from {module} import {name} as build
build(np.load({path!r}))
print(time.perf_counter() - t0)
"""


def fresh_process_seconds(module: str, name: str, path: Path) -> float:
    """Seconds from the first import to the built graph, in a new interpreter."""
    code = _TIMED_BUILD.format(tests=str(Path(__file__).resolve().parent), module=module,
                               name=name, path=str(path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    return float(out)


def uniform_points_equal_qhull(n: int) -> bool:
    pts = np.random.default_rng(2024).random((n, 2))
    same = np.array_equal(delaunay_graph(pts).edges, delaunay_edges_qhull(pts))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pts.npy"
        np.save(path, pts)
        ours = fresh_process_seconds("topospat.spatial_graph", "delaunay_graph", path)
        qhull = fresh_process_seconds("oracles", "delaunay_edges_qhull", path)
    print(f"{n} uniform points: edges equal Qhull's: {same}; fresh-process build "
          f"{ours:.2f} s, Qhull {qhull:.2f} s")
    return same


def pixel_points_differ_only_by_cocircular_diagonals(n: int, side: int = 400) -> bool:
    cells = np.random.default_rng(7).choice(side * side, n, replace=False)
    pts = np.column_stack(np.divmod(cells, side)).astype(np.float64)
    ours = {tuple(e) for e in delaunay_graph(pts).edges.tolist()}
    qhull = {tuple(e) for e in delaunay_edges_qhull(pts).tolist()}
    nbrs: dict[int, set[int]] = {}
    for i, j in ours:
        nbrs.setdefault(i, set()).add(j)
        nbrs.setdefault(j, set()).add(i)
    exact = [(Fraction(x), Fraction(y)) for x, y in pts.tolist()]
    unlicensed = []
    for i, j in ours - qhull:
        a, b = exact[i], exact[j]
        common = nbrs[i] & nbrs[j]
        left = [k for k in common if exact_orient(a, b, exact[k]) > 0]
        right = [k for k in common if exact_orient(a, b, exact[k]) < 0]
        if not any(exact_incircle(a, b, exact[k], exact[m]) == 0 for k in left for m in right):
            unlicensed.append((i, j))
    same_count = len(ours) == len(qhull)
    print(f"{n} integer pixels: {len(ours)} edges, Qhull {len(qhull)}; "
          f"{len(ours - qhull)} differ, {len(unlicensed)} of them not a diagonal of an "
          f"exactly cocircular quadrilateral")
    return same_count and not unlicensed


if __name__ == "__main__":
    ok = uniform_points_equal_qhull(50_000)
    ok = pixel_points_differ_only_by_cocircular_diagonals(20_000) and ok
    sys.exit(0 if ok else 1)
