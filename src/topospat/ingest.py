"""Loading, quality control and transformation of spatial feature matrices.

File formats are plain delimited text (tab by default, comma accepted):
a counts matrix of features x locations whose header row carries location
IDs and whose first column carries feature names, and a coordinate table
with columns id, x, y. Values are decimal reals in UTF-8.

load_dataset streams each file twice, never holding its text: a line pass
keeps the header and first cells, then np.loadtxt parses the numbers. On a
ragged row, a quote spanning lines, a non-finite value or a spelling only
float() accepts (1_000), the csv row parser reads the file and names the bad cell.

In memory a Dataset is one matrix: `values` is a C-contiguous (F, n)
float64 array whose row i holds feature `feature_names[i]` at the n
locations, in the order of `locations` and `location_ids`. Simulated data
carries an (F,) bool `labels` array of ground truth. `transformed` says
whether the whole matrix holds log-transformed values or raw counts.
"""
from __future__ import annotations

import csv
import itertools
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import (
    DegenerateDataError,
    LoadError,
    ParameterError,
    ParseError,
    StateError,
    ValidationError,
)


# a tab, or any line boundary of str.splitlines, which no row of a written TSV can hold
_ROW_BREAKS = re.compile("[\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _first_breaking(items) -> str | None:
    """The first of the strings `items` holding a tab or a line break."""
    if not _ROW_BREAKS.search("".join(items)):
        return None
    return next(x for x in items if _ROW_BREAKS.search(x))


def _duplicates(items) -> list:
    """The items that occur more than once, sorted."""
    return sorted(x for x, count in Counter(items).items() if count > 1)


@dataclass
class Dataset:
    """Locations, an (F, n) feature matrix and free-form provenance metadata."""

    locations: np.ndarray
    values: np.ndarray
    feature_names: list[str]
    labels: np.ndarray | None = None
    transformed: bool = False
    location_ids: list[str] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.locations = np.asarray(self.locations, dtype=np.float64)
        if self.locations.ndim != 2 or self.locations.shape[1] != 2 or not len(self.locations):
            raise ValidationError("locations must be an (n, 2) coordinate array")
        if not np.all(np.isfinite(self.locations)):
            raise ValidationError("coordinates contain NaN or infinite values")
        if not self.location_ids:
            self.location_ids = [f"loc{i:04d}" for i in range(len(self.locations))]
        if len(self.location_ids) != len(self.locations):
            raise ValidationError("need one location ID per coordinate row")

        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.feature_names = list(self.feature_names)
        names = self.feature_names
        if self.values.ndim != 2 or len(self.values) != len(names):
            raise ValidationError(
                f"values must be an (F, n) matrix with one row per feature name; "
                f"got shape {self.values.shape} for {len(names)} names"
            )
        if self.values.shape[1] != len(self.locations):
            raise ValidationError(
                f"features have {self.values.shape[1]} values for "
                f"{len(self.locations)} locations"
            )
        bad = ~np.isfinite(self.values).all(axis=1)
        if bad.any():
            raise ValidationError(
                f"feature {names[np.argmax(bad)]!r}: values contain NaN or infinity")
        if not self.transformed:
            bad = (self.values < 0).any(axis=1)
            if bad.any():
                raise ValidationError(
                    f"feature {names[np.argmax(bad)]!r}: raw counts must be non-negative")
        if dups := _duplicates(names):
            raise ValidationError(f"duplicate feature name: {dups[0]!r}")
        for kind, items in (("feature name", names), ("location ID", self.location_ids)):
            if (bad := _first_breaking(items)) is not None:
                raise ValidationError(f"{kind} {bad!r} holds a tab or a line break, "
                                      f"which would split its row in a written report or TSV")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=bool)
            if self.labels.shape != (len(names),):
                raise ValidationError(
                    f"need one label per feature; got {self.labels.shape} for {len(names)}")

    @property
    def n_locations(self) -> int:
        return len(self.locations)

    @property
    def n_features(self) -> int:
        return len(self.values)


def _sniff_delimiter(header: str, row: str | None) -> str:
    """Tab or comma: the first under which the header and the first data row
    `row` split, quote-aware, into the same number of fields, more than one;
    else tab when the header holds one."""
    for delim in "\t," if row is not None else "":
        width, row_width = (len(next(csv.reader([t], delimiter=delim))) for t in (header, row))
        if width == row_width > 1:
            return delim
    return "\t" if "\t" in header else ","


def read_text(path) -> str:
    """The text of a UTF-8 file, without the byte-order mark that Excel and
    many Windows tools write first; LoadError when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path}: not UTF-8 text ({exc})") from None


def _read_rows(path: Path) -> list[tuple[int, list[str]]]:
    """(line number, cells) of every non-blank line of a delimited text file."""
    lines = [(r, ln) for r, ln in enumerate(read_text(path).splitlines(), start=1) if ln.strip()]
    if not lines:
        raise LoadError(f"{path}: file is empty")
    delim = _sniff_delimiter(lines[0][1], lines[1][1] if len(lines) > 1 else None)
    reader = csv.reader((ln for _, ln in lines), delimiter=delim)
    return [(lines[reader.line_num - 1][0], row) for row in reader]


def _parse_cell(raw: str, path: Path, row: int, col: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ParseError(
            f"{path}: row {row}, column {col!r}: cannot parse {raw.strip()!r} as a number"
        ) from None
    if math.isnan(val) or math.isinf(val):
        raise ParseError(f"{path}: row {row}, column {col!r}: non-finite value {raw.strip()!r}")
    return val


def _parse_rows(path: Path, rows, cols: list[str]) -> np.ndarray:
    mat = np.empty((len(rows), len(cols)))
    for i, (r, row) in enumerate(rows):
        if len(row) != len(cols) + 1:
            raise ParseError(f"{path}: row {r}: expected {len(cols) + 1} columns, got {len(row)}")
        mat[i] = [_parse_cell(cell, path, r, col) for cell, col in zip(row[1:], cols)]
    return mat


def _read_table(path: Path):
    """(header, stripped first cells, row-parser rows or None, loadtxt matrix or None)."""
    try:
        with open(path, encoding="utf-8-sig") as f:  # as read_text: no byte-order mark
            head, firsts = None, []
            for line in f:
                (text,) = line.splitlines()  # a ValueError at a break only splitlines sees
                if not text.strip():
                    continue
                if head is None:
                    head = text
                    continue
                if not firsts:  # the first data row: it and the header decide the delimiter
                    delim = _sniff_delimiter(head, text)
                    header = next(csv.reader([head], delimiter=delim, strict=True))
                # csv.reader for a quote, else the first cell repeated to the row's width
                cells = (next(csv.reader([text], delimiter=delim, strict=True)) if '"' in text
                         else [text.split(delim, 1)[0]] * (text.count(delim) + 1))
                if len(cells) != len(header):
                    raise ValueError
                firsts.append(cells[0].strip())
            if not firsts:
                raise ValueError
            f.seek(0)
            mat = np.loadtxt(filter(str.strip, f), delimiter=delim, comments=None, quotechar='"',
                             ndmin=2, skiprows=1, usecols=range(1, len(header)))
        if len(mat) == len(firsts) and np.isfinite(mat).all():
            return header, firsts, None, mat
    except (ValueError, csv.Error):  # UnicodeDecodeError too: read_text names it
        pass
    (_, header), *rows = _read_rows(path)
    return header, [row[0].strip() for _, row in rows], rows, None


def load_dataset(counts_path, coords_path) -> Dataset:
    """Load a counts matrix and a coordinate table into an aligned Dataset.

    Locations are ordered as in the coordinate file and every feature is
    re-indexed to that order. The two files must cover exactly the same
    location IDs.
    """
    counts_path, coords_path = Path(counts_path), Path(coords_path)

    header, ids, coord_rows, xy = _read_table(coords_path)
    if [h.strip().lower() for h in header[:3]] != ["id", "x", "y"]:
        raise LoadError(f"{coords_path}: expected header 'id<TAB>x<TAB>y', got {header!r}")
    if xy is None:
        xy = _parse_rows(coords_path, [(r, row[:3]) for r, row in coord_rows], ["x", "y"])
    if dups := _duplicates(ids):
        raise LoadError(f"{coords_path}: duplicate location ID {dups[0]!r}")

    header, names, count_rows, mat = _read_table(counts_path)
    count_ids = [c.strip() for c in header[1:]]
    for these, others, here, there in ((count_ids, set(ids), counts_path, coords_path),
                                       (ids, set(count_ids), coords_path, counts_path)):
        if (missing := next((c for c in these if c not in others), None)) is not None:
            raise LoadError(f"location ID {missing!r} appears in {here} but not in {there}")
    if dups := _duplicates(count_ids):
        raise LoadError(f"{counts_path}: duplicate location ID {dups[0]!r}")

    if mat is None:
        mat = _parse_rows(counts_path, count_rows, count_ids)
    if count_ids != ids:  # column order in the counts file -> coordinate-file order
        position = {cid: c for c, cid in enumerate(count_ids)}
        mat = mat[:, [position[cid] for cid in ids]]

    meta = {"counts_path": str(counts_path), "coords_path": str(coords_path)}
    return Dataset(locations=xy[:, :2], values=mat, feature_names=names,
                   location_ids=ids, metadata=meta)


def qc_filter(ds: Dataset, min_feature_total: float = 10,
              min_presence_fraction: float = 0.01,
              min_location_total: float = 10) -> Dataset:
    """Drop weak features, then weak locations.

    A feature survives when its total count reaches min_feature_total and it
    is nonzero in at least ceil(min_presence_fraction * n_locations)
    locations; afterwards a location survives when its total across the
    retained features reaches min_location_total. Dropped names/IDs are
    recorded in the returned metadata.
    """
    if ds.transformed:
        raise StateError("qc_filter expects raw counts; dataset is already transformed")
    min_presence = math.ceil(min_presence_fraction * ds.n_locations)
    keep = ((ds.values.sum(axis=1) >= min_feature_total)
            & (np.count_nonzero(ds.values > 0, axis=1) >= min_presence))
    if not keep.any():
        raise DegenerateDataError("QC removed every feature")
    keep_loc = ds.values[keep].sum(axis=0) >= min_location_total
    if not keep_loc.any():
        raise DegenerateDataError("QC removed every location")

    meta = dict(ds.metadata)
    meta["qc_dropped_features"] = [n for n, k in zip(ds.feature_names, keep) if not k]
    meta["qc_dropped_locations"] = [i for i, k in zip(ds.location_ids, keep_loc) if not k]
    return Dataset(locations=ds.locations[keep_loc], values=ds.values[np.ix_(keep, keep_loc)],
                   feature_names=[n for n, k in zip(ds.feature_names, keep) if k],
                   labels=None if ds.labels is None else ds.labels[keep],
                   location_ids=[i for i, k in zip(ds.location_ids, keep_loc) if k],
                   metadata=meta)


def shifted_log_transform(ds: Dataset, pseudo_count: float = 2.0) -> Dataset:
    """Replace every value v by ln(v + pseudo_count). Not idempotent by design."""
    if pseudo_count <= 0:
        raise ParameterError(f"pseudo_count must be positive, got {pseudo_count}")
    if ds.transformed:
        raise StateError("dataset is already transformed")
    meta = dict(ds.metadata)
    meta["transform"] = f"log(f+{pseudo_count:g})"
    return Dataset(locations=ds.locations, values=np.log(ds.values + pseudo_count),
                   feature_names=ds.feature_names, labels=ds.labels, transformed=True,
                   location_ids=list(ds.location_ids), metadata=meta)


def exclude_prefixes(ds: Dataset, prefixes) -> Dataset:
    """Drop features whose name starts with any of the given prefixes
    (case-insensitive); the organism-specific deny-list behind --exclude-prefix."""
    prefixes = tuple(p.lower() for p in prefixes)
    if not prefixes:
        return ds
    drop = np.asarray([n.lower().startswith(prefixes) for n in ds.feature_names], dtype=bool)
    if drop.all():
        raise DegenerateDataError("prefix deny-list removed every feature")
    meta = dict(ds.metadata)
    meta["excluded_by_prefix"] = [n for n, d in zip(ds.feature_names, drop) if d]
    return Dataset(locations=ds.locations, values=ds.values[~drop],
                   feature_names=[n for n, d in zip(ds.feature_names, drop) if not d],
                   labels=None if ds.labels is None else ds.labels[~drop],
                   transformed=ds.transformed, location_ids=list(ds.location_ids),
                   metadata=meta)


def atomic_write(path, text: str) -> None:
    """Write UTF-8 text to a temp file beside `path`, then rename it over
    `path`: readers see the old file or the new one, never a partial one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a per-process name, created like `path` itself would be (umask applies)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_table(path, header, rows) -> None:
    """Write a TSV through atomic_write, one line per row: each field as its
    text, which for a float, numpy's float64 too, is its repr, with each tab
    or line break made a space, so that every row reads back as one line of
    its fields."""
    def line(row) -> str:
        fields = list(map(str, row))
        if _ROW_BREAKS.search("".join(fields)):
            fields = [_ROW_BREAKS.sub(" ", field) for field in fields]
        return "\t".join(fields) + "\n"
    with np.printoptions(legacy=False):  # numpy's 1.13 mode prints a float64 to 12 digits
        text = "".join(map(line, itertools.chain([header], rows)))
    atomic_write(path, text)


def write_dataset(ds: Dataset, counts_path, coords_path, labels_path=None) -> None:
    """Write counts/coords (and optional labels) TSVs that load_dataset round-trips."""
    write_table(counts_path, ["feature", *ds.location_ids],
                ([name, *row] for name, row in zip(ds.feature_names, ds.values.tolist())))
    write_table(coords_path, ["id", "x", "y"],
                ([lid, *xy] for lid, xy in zip(ds.location_ids, ds.locations.tolist())))
    if labels_path is not None:
        labels = np.zeros(ds.n_features, bool) if ds.labels is None else ds.labels
        write_table(labels_path, ["feature", "label"], zip(ds.feature_names, map(int, labels)))


def load_labels(path) -> dict[str, bool]:
    """Read a feature<TAB>label table (1/0 or true/false) into a dict."""
    path = Path(path)
    labels: dict[str, bool] = {}
    for r, row in _read_rows(path)[1:]:
        if len(row) < 2:
            raise ParseError(f"{path}: row {r}: expected 2 columns, got {len(row)}")
        label = {"1": True, "true": True, "0": False, "false": False}.get(row[1].strip().lower())
        if label is None:
            raise ParseError(f"{path}: row {r}, column 'label': cannot parse {row[1]!r}")
        name = row[0].strip()
        if name in labels:
            raise LoadError(f"{path}: duplicate feature {name!r}")
        labels[name] = label
    return labels
