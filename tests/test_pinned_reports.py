"""Pinned battery reports on two small tie-heavy fixtures.

Every method runs, betti and landscape at p = 1, 2 and inf, on count data
with log(c + 2) levels on a Delaunay graph and on counts on a hex lattice.
Both give many exactly tied permutation statistics, so a change in how ties
are decided moves a p-value here. p, q, rank and status must match the
recorded rows exactly and the statistic to 1e-12 relative.

The rows in data/pinned_reports.tsv are a recording, not a derivation. A
change that alters them on purpose rewrites the file with

    PYTHONPATH=src python tests/test_pinned_reports.py

and names the change in CHANGES.md.
"""
import math
from pathlib import Path

import numpy as np
import pytest

from topospat import (
    Dataset,
    SimConfig,
    TestConfig,
    delaunay_graph,
    hex_grid_graph,
    run_battery,
    shifted_log_transform,
    simulate_dataset,
)

from oracles import hex_lattice

PINNED = Path(__file__).parent / "data" / "pinned_reports.tsv"
SETTINGS = [("betti", 1.0), ("betti", 2.0), ("betti", math.inf), ("total", 2.0),
            ("landscape", 1.0), ("landscape", 2.0), ("landscape", math.inf), ("moran", 2.0)]
N_PERM = 49


def counts_delaunay():
    ds = shifted_log_transform(simulate_dataset(SimConfig(
        pattern="clusters", zero_prop=0.5, n_locations=80, n_signal=4, n_null=4, seed=1)))
    return ds, delaunay_graph(ds.locations)


def counts_hex():
    coords = hex_lattice(8, 8)
    counts = np.random.default_rng(5).poisson(1.0, size=(6, len(coords)))
    ds = shifted_log_transform(Dataset(
        locations=coords, values=counts, feature_names=[f"f{i}" for i in range(6)]))
    return ds, hex_grid_graph(ds.locations)


FIXTURES = {"counts-delaunay": counts_delaunay, "counts-hex": counts_hex}


def report_rows(fixture: str, method: str, p: float) -> list[list[str]]:
    ds, graph = FIXTURES[fixture]()
    reports = run_battery(ds, graph, TestConfig(method=method, n_perm=N_PERM, p=p,
                                                max_levels=3, seed=2))
    return [[fixture, method, repr(p), r.feature_name, repr(r.statistic), repr(r.p_value),
             repr(r.q_value), str(r.rank), r.status] for r in reports]


def pinned_rows(fixture: str, method: str, p: float) -> list[list[str]]:
    rows = [line.split("\t") for line in PINNED.read_text().splitlines()[1:]]
    return [row for row in rows if row[:3] == [fixture, method, repr(p)]]


@pytest.mark.parametrize("fixture", list(FIXTURES))
@pytest.mark.parametrize("method, p", SETTINGS,
                         ids=[f"{m}-p{p:g}" for m, p in SETTINGS])
def test_report_matches_pinned_rows(fixture, method, p):
    expected = pinned_rows(fixture, method, p)
    got = report_rows(fixture, method, p)
    assert len(got) == len(expected) > 0
    for row, want in zip(got, expected):
        assert row[3] == want[3]
        assert row[5:] == want[5:], row[3]
        assert float(row[4]) == pytest.approx(float(want[4]), rel=1e-12, abs=0.0), row[3]


if __name__ == "__main__":
    header = "fixture\tmethod\tp\tfeature\tstatistic\tp_value\tq_value\trank\tstatus"
    rows = [row for fixture in FIXTURES for method, p in SETTINGS
            for row in report_rows(fixture, method, p)]
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text("\n".join([header] + ["\t".join(row) for row in rows]) + "\n")
