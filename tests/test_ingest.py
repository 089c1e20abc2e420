import math
import time
import tracemalloc

import numpy as np
import pytest
from oracles import ROW_BREAKS, load_dataset_csv

from topospat import (
    Dataset,
    DegenerateDataError,
    LoadError,
    ParameterError,
    ParseError,
    StateError,
    ValidationError,
    exclude_prefixes,
    load_dataset,
    load_labels,
    qc_filter,
    read_report,
    shifted_log_transform,
    write_dataset,
)
from topospat.ingest import _ROW_BREAKS, write_table


def write_pair(tmp_path, counts_rows, coords_rows, delim="\t"):
    counts = tmp_path / "counts.tsv"
    coords = tmp_path / "coords.tsv"
    counts.write_text("\n".join(delim.join(r) for r in counts_rows) + "\n")
    coords.write_text("\n".join(delim.join(r) for r in coords_rows) + "\n")
    return counts, coords


GOOD_COUNTS = [
    ["feature", "s1", "s2", "s3"],
    ["geneA", "1", "0", "5"],
    ["geneB", "2", "3", "0"],
]
GOOD_COORDS = [
    ["id", "x", "y"],
    ["s1", "0.0", "0.0"],
    ["s2", "1.0", "0.5"],
    ["s3", "2.0", "1.0"],
]


class TestLoadDataset:
    def test_well_formed_pair(self, tmp_path):
        ds = load_dataset(*write_pair(tmp_path, GOOD_COUNTS, GOOD_COORDS))
        assert ds.n_locations == 3 and ds.n_features == 2
        assert ds.feature_names == ["geneA", "geneB"]
        assert np.array_equal(ds.values[0], [1.0, 0.0, 5.0])
        assert ds.location_ids == ["s1", "s2", "s3"]

    def test_comma_delimited_accepted(self, tmp_path):
        ds = load_dataset(*write_pair(tmp_path, GOOD_COUNTS, GOOD_COORDS, delim=","))
        assert ds.n_locations == 3

    def test_locations_follow_coords_order(self, tmp_path):
        counts = [["feature", "s3", "s1", "s2"], ["geneA", "30", "10", "20"]]
        ds = load_dataset(*write_pair(tmp_path, counts, GOOD_COORDS))
        assert np.array_equal(ds.values[0], [10.0, 20.0, 30.0])

    def test_matrix_matches_cell_by_cell_parse(self, tmp_path):
        rng = np.random.default_rng(4)
        n_loc, n_feat = 40, 6
        order = rng.permutation(n_loc)  # counts column c holds location order[c]
        spellings = [repr, "{:.3e}".format, " {} ".format, "+{}".format, "{:.0f}".format]
        cells = [[spellings[(f + c) % len(spellings)](float(v))
                  for c, v in enumerate(rng.random(n_loc) * 10.0 ** f)]
                 for f in range(n_feat)]
        want = np.empty((n_feat, n_loc))
        for f, row in enumerate(cells):
            for c, cell in enumerate(row):
                want[f, order[c]] = float(cell)
        counts = [["feature"] + [f"s{j}" for j in order]]
        counts += [[f"g{f}"] + row for f, row in enumerate(cells)]
        coords = [["id", "x", "y"]] + [[f"s{j}", str(j), "0"] for j in range(n_loc)]
        ds = load_dataset(*write_pair(tmp_path, counts, coords))
        assert ds.location_ids == [f"s{j}" for j in range(n_loc)]
        assert np.array_equal(ds.values, want)

    def test_missing_id_in_coords_is_named(self, tmp_path):
        coords = [r for r in GOOD_COORDS if r[0] != "s2"]
        with pytest.raises(LoadError, match="'s2'"):
            load_dataset(*write_pair(tmp_path, GOOD_COUNTS, coords))

    def test_missing_id_in_counts_is_named(self, tmp_path):
        counts = [["feature", "s1", "s2"], ["geneA", "1", "0"]]
        with pytest.raises(LoadError, match="'s3'"):
            load_dataset(*write_pair(tmp_path, counts, GOOD_COORDS))

    def test_non_numeric_cell_cites_row_and_column(self, tmp_path):
        counts = [GOOD_COUNTS[0], ["geneA", "1", "abc", "5"]]
        with pytest.raises(ParseError, match=r"row 2.*'s2'.*'abc'"):
            load_dataset(*write_pair(tmp_path, counts, GOOD_COORDS))

    def test_errors_cite_the_line_in_the_file(self, tmp_path):
        # blank lines count: the bad cell sits on line 5 of the counts file
        counts, coords = write_pair(tmp_path, GOOD_COUNTS, GOOD_COORDS)
        counts.write_text("feature\ts1\ts2\ts3\n\ngeneA\t1\t0\t5\n\ngeneB\t2\tx\t0\n")
        with pytest.raises(ParseError, match=r"row 5, column 's2'"):
            load_dataset(counts, coords)
        labels = tmp_path / "labels.tsv"
        labels.write_text("feature\tlabel\n\ngeneA\tmaybe\n")
        with pytest.raises(ParseError, match=r"row 3, column 'label'"):
            load_labels(labels)

    def test_short_row_cites_row_and_expected_width(self, tmp_path):
        counts = [GOOD_COUNTS[0], GOOD_COUNTS[1], ["geneB", "2", "3"]]
        with pytest.raises(ParseError, match=r"row 3: expected 4 columns, got 3"):
            load_dataset(*write_pair(tmp_path, counts, GOOD_COORDS))

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_cites_row_and_column(self, tmp_path, cell):
        counts = [GOOD_COUNTS[0], GOOD_COUNTS[1], ["geneB", "2", "3", cell]]
        with pytest.raises(ParseError, match=rf"row 3, column 's3': non-finite value '{cell}'"):
            load_dataset(*write_pair(tmp_path, counts, GOOD_COORDS))

    def test_duplicate_feature_name(self, tmp_path):
        counts = GOOD_COUNTS + [["geneA", "1", "1", "1"]]
        with pytest.raises(ValidationError, match="duplicate feature"):
            load_dataset(*write_pair(tmp_path, counts, GOOD_COORDS))

    @pytest.mark.parametrize("delim, column, error", [
        ("\t", "feature name", ValidationError),
        (",", "feature name", ValidationError),
        ("\t", "location ID", ValidationError),
        # the header of a comma-delimited counts file holds the tab: its first
        # data row, which splits as the header does at commas only, says it is comma-delimited
        (",", "location ID", ValidationError),
    ])
    def test_tab_in_a_name(self, tmp_path, delim, column, error):
        # a tab-delimited file holds a tab only inside quotes; a comma-delimited one anywhere
        bad = '"bad\tname"' if delim == "\t" else "bad\tname"
        counts = [row[:] for row in GOOD_COUNTS]
        coords = [row[:] for row in GOOD_COORDS]
        if column == "feature name":
            counts[2][0] = bad
        else:
            counts[0][3] = coords[3][0] = bad
        with pytest.raises(error, match=rf"{column} 'bad\\tname' holds a tab"):
            load_dataset(*write_pair(tmp_path, counts, coords, delim=delim))

    def test_commas_in_the_location_ids_of_a_tab_delimited_file(self, tmp_path):
        counts = [row[:] for row in GOOD_COUNTS]
        coords = [row[:] for row in GOOD_COORDS]
        counts[0][1] = coords[1][0] = "s,1"
        counts[0][2] = coords[2][0] = '"s,2"'
        ds = load_dataset(*write_pair(tmp_path, counts, coords))
        assert ds.location_ids == ["s,1", "s,2", "s3"]
        assert np.array_equal(ds.values, [[1, 0, 5], [2, 3, 0]])

    @pytest.mark.parametrize("delim", ["\t", ","])
    def test_short_first_row_keeps_the_headers_delimiter(self, tmp_path, delim):
        # neither delimiter splits the header and this row alike, so the header decides
        counts = [GOOD_COUNTS[0], ["geneA", "1", "0"], GOOD_COUNTS[2]]
        with pytest.raises(ParseError, match=r"row 2: expected 4 columns, got 3"):
            load_dataset(*write_pair(tmp_path, counts, GOOD_COORDS, delim=delim))

    def test_duplicate_location_id(self, tmp_path):
        coords = GOOD_COORDS + [["s1", "9", "9"]]
        counts = [GOOD_COUNTS[0][:4] + [], GOOD_COUNTS[1]]
        with pytest.raises(LoadError):
            load_dataset(*write_pair(tmp_path, counts, coords))

    def test_negative_raw_count(self, tmp_path):
        counts = [GOOD_COUNTS[0], ["geneA", "1", "-2", "3"]]
        with pytest.raises(ValidationError, match="non-negative"):
            load_dataset(*write_pair(tmp_path, counts, GOOD_COORDS))

    def test_bad_coords_header(self, tmp_path):
        coords = [["spot", "x", "y"]] + GOOD_COORDS[1:]
        with pytest.raises(LoadError, match="header"):
            load_dataset(*write_pair(tmp_path, GOOD_COUNTS, coords))

    def test_round_trip(self, tmp_path):
        ds = load_dataset(*write_pair(tmp_path, GOOD_COUNTS, GOOD_COORDS))
        write_dataset(ds, tmp_path / "c2.tsv", tmp_path / "l2.tsv")
        again = load_dataset(tmp_path / "c2.tsv", tmp_path / "l2.tsv")
        assert again.feature_names == ds.feature_names
        assert again.location_ids == ds.location_ids
        assert np.array_equal(again.locations, ds.locations)
        for a, b in zip(again.values, ds.values):
            assert np.array_equal(a, b)

    def test_round_trip_keeps_every_bit(self, tmp_path):
        # signed zeros, subnormals and counts above 2^53 read back as written
        big = [2.0**53 + 2, 2.0**60 + 2**8, 2.0**63, 1e300]
        ds = Dataset(locations=[[-0.0, 5e-324], [0.1 + 0.2, 2.0**53 + 2], [1.0, -1e-300]],
                     values=[[-0.0, 5e-324, big[0]], big[1:]], feature_names=["a", "b"],
                     labels=[True, False])
        paths = [tmp_path / name for name in ("counts.tsv", "coords.tsv", "labels.tsv")]
        write_dataset(ds, *paths)
        again = load_dataset(*paths[:2])
        for got, want in ((again.values, ds.values), (again.locations, ds.locations)):
            assert got.tobytes() == want.tobytes()
        assert load_labels(paths[2]) == {"a": True, "b": False}

    def test_failed_write_keeps_the_previous_files(self, tmp_path):
        ds = load_dataset(*write_pair(tmp_path, GOOD_COUNTS, GOOD_COORDS))
        out = tmp_path / "out"
        out.mkdir()
        write_dataset(ds, out / "c.tsv", out / "l.tsv")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # a lone surrogate cannot be encoded, so the write fails before its rename
        bad = Dataset(locations=ds.locations, values=ds.values,
                      feature_names=["gene\ud800", "geneB"], location_ids=ds.location_ids)
        with pytest.raises(UnicodeEncodeError):
            write_dataset(bad, out / "c.tsv", out / "l.tsv")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_round_trip_preserves_awkward_floats(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(
            locations=rng.random((5, 2)) * 1234.567,
            values=[rng.random(5) * 0.001], feature_names=["g"],
        )
        write_dataset(ds, tmp_path / "c.tsv", tmp_path / "l.tsv")
        again = load_dataset(tmp_path / "c.tsv", tmp_path / "l.tsv")
        assert np.array_equal(again.locations, ds.locations)
        assert np.array_equal(again.values[0], ds.values[0])


COUNTS_TSV = "feature\ts1\ts2\ts3\ngeneA\t1\t0\t5\ngeneB\t2\t3\t0\n"
COORDS_TSV = "id\tx\ty\ns1\t0.0\t0.0\ns2\t1.0\t0.5\ns3\t2.0\t1.0\n"

# (counts text, coords text); the package reader must match the csv oracle
# bit for bit on each, or raise the same error
READER_CASES = {
    "tab": (COUNTS_TSV, COORDS_TSV),
    "comma": (COUNTS_TSV.replace("\t", ","), COORDS_TSV.replace("\t", ",")),
    "crlf": (COUNTS_TSV.replace("\n", "\r\n"), COORDS_TSV.replace("\n", "\r\n")),
    "cr": (COUNTS_TSV.replace("\n", "\r"), COORDS_TSV),
    "no_final_newline": (COUNTS_TSV.rstrip("\n"), COORDS_TSV.rstrip("\n")),
    "blank_lines": ("\n" + COUNTS_TSV.replace("\ngeneB", "\n\n\ngeneB") + "\n",
                    "\n\n" + COORDS_TSV.replace("\ns2", "\n\ns2")),
    "whitespace_lines": (COUNTS_TSV.replace("\ngeneB", "\n  \t \ngeneB") + " \n",
                         COORDS_TSV.replace("\ns2", "\n\t\t\ns2") + "   \n"),
    "quoted_names": ('feature,s1,"s,2",s3\n"gene, one",1,0,5\n"say ""hi""",2,3,0\n',
                     'id,x,y\ns1,0,0\n"s,2",1,0.5\ns3,2,1\n'),
    "quoted_number": ('feature\ts1\ts2\ts3\ngeneA\t"1.5"\t0\t5\n', COORDS_TSV),
    "quote_inside_name": ('feature\ts1\ts2\ts3\nge"ne\t1\t0\t5\n', COORDS_TSV),
    "quote_left_open": ('feature\ts1\ts2\ts3\n"gene\nA"\t1\t0\t5\n', COORDS_TSV),
    "spellings": ("feature\ts1\ts2\ts3\ngeneA\t 1 \t+2\t1e3\ngeneB\t1.\t-0\t.5e-3\n"
                  "geneC\t\u00a07\t00\t1E+01\n", COORDS_TSV),
    "float_only_spellings": ("feature\ts1\ts2\ts3\ngeneA\t1_000\t\u0661\t2\n", COORDS_TSV),
    "shuffled_columns": ("feature\ts3\ts1\ts2\ngeneA\t30\t10\t20\n", COORDS_TSV),
    "one_feature": ("feature\ts1\ts2\ts3\ngeneA\t1\t0\t5\n", COORDS_TSV),
    "one_location": ("feature\ts1\ngeneA\t4\ngeneB\t0\n", "id\tx\ty\ns1\t3\t4\n"),
    "coords_extra_column": (COUNTS_TSV, "id\tx\ty\tz\ns1\t0\t0\t9\ns2\t1\t0\ns3\t2\t1\t9\n"),
    "line_break_in_name": ("feature\ts1\ts2\ts3\ngene\x85A\t1\t0\t5\n", COORDS_TSV),
    "short_row": (COUNTS_TSV + "geneC\t1\t2\n", COORDS_TSV),
    "long_row": (COUNTS_TSV + "geneC\t1\t2\t3\t4\n", COORDS_TSV),
    "short_coords_row": (COUNTS_TSV, COORDS_TSV + "s4\t1\n"),
    "abc": (COUNTS_TSV.replace("\t3\t", "\tabc\t"), COORDS_TSV),
    "space_before_quote": (COUNTS_TSV.replace("\t3\t", '\t "3"\t'), COORDS_TSV),
    "empty_cell": (COUNTS_TSV.replace("\t3\t", "\t\t"), COORDS_TSV),
    "two_bad_cells": (COUNTS_TSV.replace("\t2\t3\t", "\tx\ty\t"), COORDS_TSV),
    "nan": (COUNTS_TSV.replace("\t3\t", "\tnan\t"), COORDS_TSV),
    "inf": (COUNTS_TSV.replace("\t3\t", "\t-inf\t"), COORDS_TSV),
    "overflow": (COUNTS_TSV.replace("\t3\t", "\t1e400\t"), COORDS_TSV),
    "bad_x": (COUNTS_TSV, COORDS_TSV.replace("1.0\t0.5", "one\t0.5")),
    "nan_y": (COUNTS_TSV, COORDS_TSV.replace("1.0\t0.5", "1.0\tnan")),
    "duplicate_coords_id": (COUNTS_TSV, COORDS_TSV + "s1\t9\t9\n"),
    "duplicate_counts_id": ("feature\ts1\ts2\ts3\ts1\ngeneA\t1\t0\t5\t1\n", COORDS_TSV),
    "id_missing_from_coords": (COUNTS_TSV, "id\tx\ty\ns1\t0\t0\ns2\t1\t0\n"),
    "id_missing_from_counts": ("feature\ts1\ts2\ngeneA\t1\t0\n", COORDS_TSV),
    "missing_id_and_bad_cell": ("feature\ts1\ts2\ngeneA\tx\t0\n", COORDS_TSV),
    "no_location_column": ("feature\ngeneA\n", COORDS_TSV),
    "bad_header": (COUNTS_TSV, COORDS_TSV.replace("id\t", "spot\t")),
    "empty_counts": ("", COORDS_TSV),
    "blank_coords": (COUNTS_TSV, "\n \n"),
    "header_only_counts": ("feature\ts1\ts2\ts3\n", COORDS_TSV),
    "header_only_coords": (COUNTS_TSV, "id\tx\ty\n"),
    "no_data": ("feature\n", "id\tx\ty\n"),
    "duplicate_feature": (COUNTS_TSV + "geneA\t1\t1\t1\n", COORDS_TSV),
    "negative_count": (COUNTS_TSV.replace("\t3\t", "\t-3\t"), COORDS_TSV),
    "tab_in_comma_header": (COUNTS_TSV.replace("\t", ",").replace("s2", "s\t2"),
                            COORDS_TSV.replace("\t", ",").replace("s2", "s\t2")),
    "commas_in_tab_ids": (COUNTS_TSV.replace("s2", '"s,2"').replace("s3", "s,3"),
                          COORDS_TSV.replace("s2", '"s,2"').replace("s3", "s,3")),
}


def _outcome(load, counts, coords):
    try:
        ds = load(counts, coords)
    except Exception as exc:
        return type(exc), str(exc)
    return (ds.values.shape, ds.values.tobytes(), ds.locations.shape, ds.locations.tobytes(),
            ds.feature_names, ds.location_ids, ds.metadata, ds.transformed, ds.labels)


@pytest.mark.parametrize("case", READER_CASES)
def test_reader_matches_the_csv_oracle(tmp_path, case):
    counts_text, coords_text = READER_CASES[case]
    counts, coords = tmp_path / "counts.tsv", tmp_path / "coords.tsv"
    counts.write_bytes(counts_text.encode())
    coords.write_bytes(coords_text.encode())
    assert _outcome(load_dataset, counts, coords) == _outcome(load_dataset_csv, counts, coords)


def test_reader_matches_the_csv_oracle_on_random_floats(tmp_path):
    rng = np.random.default_rng(11)
    n_loc, n_feat = 30, 8
    values = rng.lognormal(0, 4, (n_feat, n_loc)) * rng.integers(0, 2, (n_feat, n_loc))
    spellings = [repr, "{:.17g}".format, "{:.3e}".format, "{:.0f}".format]
    order = rng.permutation(n_loc)
    lines = ["feature," + ",".join(f"s{j}" for j in order)]
    lines += [f"g{f}," + ",".join(spellings[(f + c) % 4](float(values[f, j]))
                                   for c, j in enumerate(order)) for f in range(n_feat)]
    counts, coords = tmp_path / "counts.csv", tmp_path / "coords.csv"
    counts.write_text("\r\n".join(lines))
    coords.write_text("id,x,y\n" + "".join(f"s{j},{rng.random()!r},{rng.random() * 1e6!r}\n"
                                           for j in range(n_loc)))
    assert _outcome(load_dataset, counts, coords) == _outcome(load_dataset_csv, counts, coords)


def test_load_peak_memory_is_bounded_by_the_matrix(tmp_path):
    # a Visium-sized input; holding its text, lines and one str per cell, as
    # oracles.load_dataset_csv does, peaks at about 2.4x the matrix
    n_feat, n_loc = 400, 4992
    mat = np.random.default_rng(3).poisson(0.3, (n_feat, n_loc))
    counts, coords = tmp_path / "counts.tsv", tmp_path / "coords.tsv"
    lines = ["feature\t" + "\t".join(f"s{j}" for j in range(n_loc))]
    lines += [f"g{i}\t" + "\t".join(map(str, row)) for i, row in enumerate(mat.tolist())]
    counts.write_text("\n".join(lines) + "\n")
    coords.write_text("id\tx\ty\n" + "".join(f"s{j}\t{j % 64}\t{j // 64}\n"
                                              for j in range(n_loc)))
    del lines
    tracemalloc.start()
    try:
        ds = load_dataset(counts, coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(ds.values, mat)
    assert peak <= 1.5 * ds.values.nbytes


@pytest.mark.parametrize("site", ["feature", "coords_id", "counts_id"])
def test_duplicate_in_a_long_list_is_named_fast(site, tmp_path):
    # gene-symbol tables carry duplicates; with 30000 names, counting each
    # one's occurrences took 19 s, one pass takes milliseconds
    n = 30000
    names = [f"g{i:05d}" for i in range(n)]
    names[n - 1], names[n - 2] = names[17], names[4]  # g00004 is the smallest repeat
    ids = names if site != "feature" else [f"s{i}" for i in range(n)]
    t0 = time.perf_counter()
    if site == "feature":
        with pytest.raises(ValidationError) as exc:
            Dataset(locations=np.zeros((1, 2)), values=np.zeros((n, 1)), feature_names=names)
        assert str(exc.value) == "duplicate feature name: 'g00004'"
    else:
        uniq = sorted(set(ids))
        coords, counts = tmp_path / "coords.tsv", tmp_path / "counts.tsv"
        coords.write_text("id\tx\ty\n" + "".join(
            f"{i}\t{j}\t0\n" for j, i in enumerate(ids if site == "coords_id" else uniq)))
        header = ids if site == "counts_id" else uniq
        counts.write_text("feature\t" + "\t".join(header) + "\ngeneA\t"
                          + "\t".join("1" * len(header)) + "\n")
        bad = coords if site == "coords_id" else counts
        with pytest.raises(LoadError) as exc:
            load_dataset(counts, coords)
        assert str(exc.value) == f"{bad}: duplicate location ID 'g00004'"
    assert time.perf_counter() - t0 < 2.0


class TestNonUtf8Input:
    def test_load_dataset(self, tmp_path):
        counts, coords = tmp_path / "counts.tsv", tmp_path / "coords.tsv"
        counts.write_bytes(COUNTS_TSV.replace("geneB", "g\u00e8ne").encode("latin-1"))
        coords.write_text(COORDS_TSV)
        with pytest.raises(LoadError, match=r"counts\.tsv: not UTF-8 text .* 0xe8 in position 30"):
            load_dataset(counts, coords)

    def test_load_labels(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_bytes("feature\tlabel\ng\u00e8ne\t1\n".encode("latin-1"))
        with pytest.raises(LoadError, match=r"labels\.tsv: not UTF-8 text"):
            load_labels(path)

    def test_read_report(self, tmp_path):
        path = tmp_path / "report.tsv"
        path.write_bytes("feature\tmethod\tstatistic\tp_value\tq_value\trank\tstatus\n"
                         "g\u00e8ne\tmoran\t0.1\t0.5\t0.5\t1\tok\n".encode("latin-1"))
        with pytest.raises(LoadError, match=r"report\.tsv: not UTF-8 text"):
            read_report(path)


class TestWriteTable:
    def test_row_breaks_are_a_tab_and_every_line_boundary(self):
        assert "".join(_ROW_BREAKS.findall("".join(map(chr, range(0x110000))))) == ROW_BREAKS

    def test_floats_as_repr_and_ints_as_text(self, tmp_path):
        path = tmp_path / "table.tsv"
        row = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1 + 0.2, np.float64(0.1),
               3, np.int64(-7), 2**64]
        write_table(path, [f"c{i}" for i in range(len(row))], [row])
        assert path.read_text().splitlines()[1].split("\t") == [
            "nan", "inf", "-inf", "-0.0", "5e-324", "0.30000000000000004", "0.1",
            "3", "-7", "18446744073709551616"]

    @pytest.mark.parametrize("legacy", [False, "1.13"])
    def test_python_and_numpy_floats_beside_a_tab(self, tmp_path, legacy):
        # the line the per-field formatter (isinstance float, then float.__repr__)
        # wrote, which numpy's print options did not reach
        path = tmp_path / "table.tsv"
        row = ["gene\tA", -0.0, np.float64(-0.0), 5e-324, np.float64(5e-324), 2.0**53 + 2,
               np.float64(2.0**53 + 2), math.nan, np.float64(np.nan), math.inf,
               np.float64(-np.inf), np.float64(0.1) + 0.2, 7]
        with np.printoptions(legacy=legacy):
            write_table(path, ["h"], [row])
        assert path.read_bytes().splitlines()[1] == (
            b"gene A\t-0.0\t-0.0\t5e-324\t5e-324\t9007199254740994.0\t9007199254740994.0"
            b"\tnan\tnan\tinf\t-inf\t0.30000000000000004\t7")

    def test_row_breaks_become_spaces(self, tmp_path):
        path = tmp_path / "table.tsv"
        rows = ([f"a{c}b", f"{c}", 1.5] for c in ROW_BREAKS)  # a generator is read once
        write_table(path, ["name", "break\u2028here", "value"], rows)
        assert path.read_bytes() == ("name\tbreak here\tvalue\n"
                                     + "a b\t \t1.5\n" * len(ROW_BREAKS)).encode()

    def test_header_only(self, tmp_path):
        path = tmp_path / "table.tsv"
        write_table(path, ["feature", "label"], [])
        assert path.read_bytes() == b"feature\tlabel\n"


BOM = "\ufeff".encode()  # the UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes it


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark reads as the same file
    without one, on both readers and in every outcome, errors included."""

    @pytest.mark.parametrize("marked", ["coords", "counts", "both"])
    @pytest.mark.parametrize("case", READER_CASES)
    def test_load_dataset(self, tmp_path, case, marked):
        counts_text, coords_text = READER_CASES[case]
        counts, coords = tmp_path / "counts.tsv", tmp_path / "coords.tsv"
        counts.write_bytes(counts_text.encode())
        coords.write_bytes(coords_text.encode())
        want = _outcome(load_dataset, counts, coords)
        if marked != "coords":
            counts.write_bytes(BOM + counts_text.encode())
        if marked != "counts":
            coords.write_bytes(BOM + coords_text.encode())
        assert _outcome(load_dataset, counts, coords) == want

    def test_load_labels(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_bytes(BOM + b"feature\tlabel\ng1\t1\ng2\t0\n")
        assert load_labels(path) == {"g1": True, "g2": False}

    def test_read_report(self, tmp_path):
        path = tmp_path / "report.tsv"
        text = ("feature\tmethod\tstatistic\tp_value\tq_value\trank\tstatus\n"
                "g1\tmoran\t0.1\t0.5\t0.5\t1\tok\n")
        path.write_text(text)
        want = read_report(path)
        path.write_bytes(BOM + text.encode())
        assert read_report(path) == want and [r.feature_name for r in want] == ["g1"]


def counts_dataset(matrix, n_loc=None, labels=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    n_loc = matrix.shape[1] if n_loc is None else n_loc
    rng = np.random.default_rng(1)
    return Dataset(
        locations=rng.random((n_loc, 2)),
        values=matrix,
        feature_names=[f"g{i:03d}" for i in range(len(matrix))],
        labels=labels,
    )


class TestDatasetValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coordinates(self, bad):
        with pytest.raises(ValidationError, match="coordinates contain NaN or infinite"):
            Dataset(locations=[(0.0, 0.0), (bad, 1.0)], values=[[1.0, 2.0]],
                    feature_names=["g"])

    def test_one_location_id_per_row(self):
        with pytest.raises(ValidationError, match="one location ID per coordinate row"):
            Dataset(locations=np.zeros((2, 2)), values=[[1.0, 2.0]], feature_names=["g"],
                    location_ids=["a"])

    def test_non_finite_value_names_feature(self):
        with pytest.raises(ValidationError, match="'g001': values contain NaN"):
            counts_dataset([[1, 2, 3], [1, np.nan, 3]])
        with pytest.raises(ValidationError, match="NaN or infinity"):
            counts_dataset([[np.inf, 2, 3]])

    def test_negative_raw_count_names_feature(self):
        with pytest.raises(ValidationError, match="'g000': raw counts must be non-negative"):
            counts_dataset([[1, -2, 3]])

    def test_negative_transformed_value_accepted(self):
        ds = Dataset(locations=np.zeros((3, 2)), values=[[1.0, -2.0, 3.0]],
                     feature_names=["g"], transformed=True)
        assert ds.transformed and ds.n_features == 1

    def test_row_length_must_match_locations(self):
        with pytest.raises(ValidationError, match="2 values for 3 locations"):
            counts_dataset([[1, 2]], n_loc=3)

    def test_one_name_per_row(self):
        with pytest.raises(ValidationError, match="one row per feature name"):
            Dataset(locations=np.zeros((3, 2)), values=np.ones((2, 3)), feature_names=["g"])
        with pytest.raises(ValidationError, match="one row per feature name"):
            Dataset(locations=np.zeros((3, 2)), values=np.ones(3), feature_names=["g"])

    @pytest.mark.parametrize("char", ["\t", "\n", "\r", "\x0b", "\x85", "\u2028"])
    def test_tab_or_line_break_in_a_name(self, char):
        # each would split a row of report.tsv, or a line for str.splitlines
        with pytest.raises(ValidationError, match=r"feature name 'g.*1' holds a tab or a line"):
            Dataset(locations=np.zeros((2, 2)), values=[[1.0, 2.0], [3.0, 4.0]],
                    feature_names=["g0", f"g{char}1"])
        with pytest.raises(ValidationError, match=r"location ID 's.*1' holds a tab or a line"):
            Dataset(locations=np.zeros((2, 2)), values=[[1.0, 2.0]], feature_names=["g"],
                    location_ids=["s0", f"s{char}1"])

    def test_other_awkward_names_accepted(self):
        names = ['g "quoted"', "g, comma", " g space", "gène", "g;|\\"]
        ds = Dataset(locations=np.zeros((2, 2)), values=np.ones((5, 2)), feature_names=names,
                     location_ids=["s 0", "s,1"])
        assert ds.feature_names == names

    def test_one_label_per_feature(self):
        with pytest.raises(ValidationError, match="one label per feature"):
            counts_dataset([[1, 2, 3], [4, 5, 6]], labels=[True])

    def test_matrix_is_c_contiguous_float64(self):
        ds = counts_dataset(np.arange(12).reshape(3, 4).T)
        assert ds.values.dtype == np.float64 and ds.values.flags.c_contiguous


class TestQcFilter:
    def test_total_below_ten_dropped(self):
        ds = counts_dataset([[3, 3, 3], [4, 4, 4]])
        out = qc_filter(ds, min_location_total=0)
        assert out.feature_names == ["g001"]
        assert out.metadata["qc_dropped_features"] == ["g000"]

    def test_all_zero_feature_dropped(self):
        ds = counts_dataset([[0, 0, 0], [10, 10, 10]])
        out = qc_filter(ds, min_location_total=0)
        assert out.feature_names == ["g001"]

    def test_presence_fraction_uses_ceil(self):
        # 1000 locations, nonzero at 9 of them: 9 < ceil(0.01 * 1000) = 10
        vals = np.zeros(1000)
        vals[:9] = 5.0
        rng = np.random.default_rng(2)
        ds = Dataset(locations=rng.random((1000, 2)), values=[vals, np.ones(1000)],
                     feature_names=["sparse", "dense"])
        out = qc_filter(ds, min_location_total=0)
        assert out.feature_names == ["dense"]

    def test_ten_of_thousand_passes_presence(self):
        vals = np.zeros(1000)
        vals[:10] = 5.0
        rng = np.random.default_rng(3)
        ds = Dataset(locations=rng.random((1000, 2)),
                     values=[vals], feature_names=["edge"])
        out = qc_filter(ds, min_location_total=0)
        assert out.feature_names == ["edge"]

    def test_locations_filtered_after_features(self):
        # location 2 only reaches the threshold through the weak feature,
        # which is dropped first
        ds = counts_dataset([
            [5, 5, 9],     # weak feature: total 19 < 25, dropped first
            [15, 10, 1],
        ])
        out = qc_filter(ds, min_feature_total=25, min_location_total=5)
        assert out.feature_names == ["g001"]
        assert out.metadata["qc_dropped_locations"] == [ds.location_ids[2]]
        assert out.n_locations == 2

    def test_empty_results_raise(self):
        ds = counts_dataset([[1, 1, 1]])
        with pytest.raises(DegenerateDataError):
            qc_filter(ds)
        rich = counts_dataset([[20, 20, 20]])
        with pytest.raises(DegenerateDataError):
            qc_filter(rich, min_location_total=1000)

    def test_monotone_in_thresholds(self):
        rng = np.random.default_rng(9)
        ds = counts_dataset(rng.integers(0, 6, (30, 40)).astype(float))

        def survivors(ft, pf, lt):
            try:
                out = qc_filter(ds, ft, pf, lt)
                return out.n_features, out.n_locations
            except DegenerateDataError:
                return 0, 0

        base = survivors(5, 0.02, 5)
        for tighter in [(8, 0.02, 5), (5, 0.1, 5), (5, 0.02, 12), (9, 0.2, 12)]:
            after = survivors(*tighter)
            assert after[0] <= base[0] and after[1] <= base[1]

    def test_labels_follow_kept_features(self):
        ds = counts_dataset([[3, 3, 3], [4, 4, 4], [5, 5, 5]], labels=[True, False, True])
        out = qc_filter(ds, min_location_total=0)
        assert out.feature_names == ["g001", "g002"]
        assert out.labels.tolist() == [False, True]
        assert exclude_prefixes(ds, ["g001"]).labels.tolist() == [True, True]
        assert shifted_log_transform(ds).labels.tolist() == [True, False, True]

    def test_transformed_dataset_rejected(self):
        ds = counts_dataset([[10, 10, 10]])
        with pytest.raises(StateError):
            qc_filter(shifted_log_transform(ds))


class TestShiftedLogTransform:
    def test_zero_maps_to_ln_two(self):
        ds = counts_dataset([[0, 5, 0]])
        out = shifted_log_transform(ds)
        assert out.values[0, 0] == pytest.approx(math.log(2.0), abs=1e-15)
        assert out.values[0, 1] == pytest.approx(math.log(7.0), abs=1e-15)
        assert out.transformed

    def test_double_transform_is_state_error(self):
        ds = counts_dataset([[1, 2, 3]])
        once = shifted_log_transform(ds)
        with pytest.raises(StateError):
            shifted_log_transform(once)

    def test_strictly_monotone_preserves_ranks(self):
        rng = np.random.default_rng(12)
        vals = rng.integers(0, 50, 100).astype(float)
        ds = counts_dataset([vals])
        out = shifted_log_transform(ds)
        assert np.array_equal(np.argsort(vals, kind="stable"),
                              np.argsort(out.values[0], kind="stable"))

    def test_custom_pseudo_count(self):
        ds = counts_dataset([[0, 1, 2]])
        out = shifted_log_transform(ds, pseudo_count=1.0)
        assert out.values[0, 0] == 0.0

    def test_bad_pseudo_count(self):
        with pytest.raises(ParameterError):
            shifted_log_transform(counts_dataset([[1, 2, 3]]), pseudo_count=0.0)

    def test_does_not_mutate_input(self):
        ds = counts_dataset([[1, 2, 3]])
        before = ds.values.copy()
        shifted_log_transform(ds)
        assert np.array_equal(ds.values, before)
        assert not ds.transformed


class TestExcludePrefixes:
    def test_case_insensitive_prefix_drop(self):
        rng = np.random.default_rng(5)
        ds = Dataset(locations=rng.random((3, 2)), values=np.ones((3, 3)),
                     feature_names=["MT-CO1", "mt-nd2", "ACTB"])
        out = exclude_prefixes(ds, ["MT-"])
        assert out.feature_names == ["ACTB"]
        assert out.metadata["excluded_by_prefix"] == ["MT-CO1", "mt-nd2"]

    def test_empty_prefix_list_is_identity(self):
        ds = counts_dataset([[1, 2, 3]])
        assert exclude_prefixes(ds, []) is ds

    def test_dropping_everything_raises(self):
        ds = counts_dataset([[1, 2, 3]])
        with pytest.raises(DegenerateDataError):
            exclude_prefixes(ds, ["g"])


def test_labels_round_trip(tmp_path):
    ds = counts_dataset([[1, 2, 3], [4, 5, 6]], labels=[True, False])
    write_dataset(ds, tmp_path / "c.tsv", tmp_path / "l.tsv", tmp_path / "labels.tsv")
    labels = load_labels(tmp_path / "labels.tsv")
    assert labels == {"g000": True, "g001": False}


def test_load_labels_duplicate_feature(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("feature\tlabel\ng1\t1\ng2\t0\ng1\t0\n")
    with pytest.raises(LoadError, match="duplicate feature 'g1'"):
        load_labels(path)


def test_load_labels_one_column_row(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("feature\tlabel\ng1\t1\ng2\n")
    with pytest.raises(ParseError, match="row 3: expected 2 columns, got 1"):
        load_labels(path)


def test_load_labels_bad_value(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("feature\tlabel\ng1\tmaybe\n")
    with pytest.raises(ParseError, match="row 2"):
        load_labels(path)
