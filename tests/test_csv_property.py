"""The columnar CSV reader and encoder against the row-by-row oracle in
``helpers``, over generated CSV bodies: blank lines, padded cells, quoted
cells over two lines, empty and unparseable numbers (an error of the read,
naming the first in file order), unknown categories and labels, short rows,
and random row subsets for fitting and for encoding."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dwac_kit import ColumnSpec, FeatureStats, Schema
from dwac_kit.data import encode_rows, fit_stats, read_csv_rows
from helpers import dense, encode_rows_oracle, fit_stats_oracle, read_rows_oracle

SCHEMA = Schema(
    columns=(
        ColumnSpec("species", "label"),
        ColumnSpec("size", "continuous"),
        ColumnSpec("color", "categorical"),
        ColumnSpec("notes", "drop"),
        ColumnSpec("weight", "continuous"),
        ColumnSpec("shape", "categorical"),
    ),
    label_values=("eel", "cat", "dog"),
)
CELLS = {
    "species": ["cat", "dog", "eel", "fish", ""],
    "size": ["0", "1.5", "-2", "1e3", "7", "", "tall", "1_0", "nan"],
    "weight": ["3", "0.25", "12", "-1e-3", "", "?"],
    "color": ["red", "blue", "green", "Red", ""],
    "shape": ["round", "square", "?"],
    "notes": ["", "x", "long note", '"two\nlines"'],  # a quoted cell spans two lines
}
# a fallback for encoding when fitting failed, so every example encodes
FIXED_STATS = FeatureStats(
    means={"size": 1.0, "weight": 2.0}, stds={"size": 2.0, "weight": 1.0},
    vocabs={"color": ("blue", "red"), "shape": ("round",)},
)

padding = st.sampled_from(["", " ", "  "])


@st.composite
def csv_bodies(draw):
    names = [c.name for c in SCHEMA.columns]
    header = draw(st.permutations(names))
    if draw(st.booleans()):
        header = [h for h in header if h != "species"]  # unlabeled file
    lines = [",".join(draw(padding) + h for h in header)]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")  # blank line
            continue
        cells = [draw(padding) + draw(st.sampled_from(CELLS[h])) + draw(padding)
                 for h in header]
        if draw(st.integers(0, 30)) == 0:
            cells = cells[:-1]  # a short row
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _outcome(call):
    try:
        return call()
    except ValueError as e:
        return f"ValueError: {e}"


def _same_dataset(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return (a.dim == b.dim and dense(a.x).tobytes() == dense(b.x).tobytes()
            and (a.y is None) == (b.y is None)
            and (a.y is None or a.y.tobytes() == b.y.tobytes())
            and a.num_classes == b.num_classes)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=csv_bodies(), data=st.data())
def test_columnar_encoder_matches_the_row_oracle(tmp_path, body, data):
    path = tmp_path / "body.csv"
    path.write_text(body)
    expected = _outcome(lambda: read_rows_oracle(str(path), SCHEMA))
    got = _outcome(lambda: read_csv_rows(str(path), SCHEMA))
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    rows, has_labels = expected
    table, got_labels = got
    assert got_labels == has_labels and len(table) == len(rows)
    roles = {c.name: c.role for c in SCHEMA.columns}
    header = [h.strip() for h in body.split("\n", 1)[0].split(",")]
    assert set(table.columns) == {h for h in header if roles[h] != "drop"}
    for name, column in table.columns.items():
        cells = [row[name] for row in rows]
        if roles[name] == "continuous":
            assert column.dtype == np.float64
            assert column.tobytes() == np.array([float(c) for c in cells]).tobytes()
        else:
            assert len(set(column.values)) == len(column.values)
            assert column.codes.dtype.kind == "i" and len(column.codes) == len(cells)
            assert [column.values[k] for k in column.codes.tolist()] == cells

    subset = st.none() | st.permutations(range(len(rows))).flatmap(
        lambda perm: st.integers(0, len(perm)).map(lambda k: perm[:k]))
    fit_index = data.draw(subset, label="fit rows")
    encode_index = data.draw(subset, label="encoded rows")

    def pick(index):
        return rows if index is None else [rows[i] for i in index]

    stats = _outcome(lambda: fit_stats_oracle(pick(fit_index), SCHEMA, str(path)))
    got_stats = _outcome(lambda: fit_stats(
        table, SCHEMA, index=None if fit_index is None else np.array(fit_index, dtype=np.intp)))
    assert repr(got_stats) == repr(stats)
    if isinstance(stats, str):
        stats = FIXED_STATS

    expected = _outcome(lambda: encode_rows_oracle(pick(encode_index), SCHEMA, stats,
                                                   has_labels=has_labels))
    got = _outcome(lambda: encode_rows(table, SCHEMA, stats, has_labels=has_labels,
                                       index=encode_index))
    assert _same_dataset(got, expected), (got, expected)
