from __future__ import annotations

import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from dwac_kit import (
    ColumnSpec,
    FeatureStats,
    ModelArtifact,
    Schema,
    blob_data,
    load_model,
    make_blobs,
    make_rng,
    pairwise_sq_distances,
    predict,
    save_model,
)
from dwac_kit import data as data_module
from dwac_kit.data import atomic_write_text, encode_rows, fit_stats, label_codes, read_csv_rows
from helpers import dense, load_csv, quick_split, read_rows_oracle

SCHEMA = Schema(
    columns=(
        ColumnSpec("species", "label"),
        ColumnSpec("size", "continuous"),
        ColumnSpec("color", "categorical"),
        ColumnSpec("notes", "drop"),
    ),
    label_values=("cat", "dog"),
)

TRAIN_CSV = """species,size,color,notes
cat,0,red,x
dog,2,blue,
cat,0,green,y
dog,2,red,z
"""


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

def test_schema_validation():
    with pytest.raises(ValueError):
        Schema(columns=(ColumnSpec("a", "continuous"),), label_values=("x",))
    with pytest.raises(ValueError):
        Schema(
            columns=(ColumnSpec("a", "label"), ColumnSpec("b", "label"),
                     ColumnSpec("c", "continuous")),
            label_values=("x",),
        )
    with pytest.raises(ValueError):
        Schema(columns=(ColumnSpec("a", "label"), ColumnSpec("b", "drop")),
               label_values=("x",))
    with pytest.raises(ValueError):
        Schema(columns=(ColumnSpec("a", "label"), ColumnSpec("a", "continuous")),
               label_values=("x",))
    with pytest.raises(ValueError):
        ColumnSpec("a", "numeric")
    with pytest.raises(ValueError):
        Schema(columns=(ColumnSpec("a", "label"), ColumnSpec("b", "continuous")),
               label_values=())
    with pytest.raises(ValueError, match=r"^label values repeated in schema: \['x'\]$"):
        Schema(columns=(ColumnSpec("a", "label"), ColumnSpec("b", "continuous")),
               label_values=("x", "x", "y"))


def test_schema_json_round_trip(tmp_path):
    doc = SCHEMA.to_json_dict()
    assert Schema.from_json_dict(doc) == SCHEMA
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    assert Schema.from_file(str(path)) == SCHEMA
    assert SCHEMA.label_column == "species"
    assert SCHEMA.num_classes == 2
    assert [c.name for c in SCHEMA.feature_columns] == ["size", "color"]


# ---------------------------------------------------------------------------
# CSV encoding
# ---------------------------------------------------------------------------

def test_encoding_zscores_and_one_hots(tmp_path):
    ds = load_csv(write_csv(tmp_path, TRAIN_CSV), SCHEMA)
    # size has mean 1, std 1 -> {0, 2} map to {-1, +1}
    assert np.array_equal(ds.x.cont[:, 0], np.array([-1.0, 1.0, -1.0, 1.0]))
    # 3 observed colors -> rows 1-3 of the first layer (blue, green, red) and
    # row 4 for an unknown color; each row codes its color by the row
    assert ds.stats.vocabs == {"color": ("blue", "green", "red")}
    assert ds.x.cont_rows.tolist() == [0]
    assert ds.x.slots.dtype == np.int32 and ds.x.slots[:, 0].tolist() == [3, 1, 2, 3]
    assert np.array_equal(dense(ds.x)[0, 1:], np.array([0.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(dense(ds.x)[1, 1:], np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(ds.y, np.array([0, 1, 0, 1]))
    assert ds.num_classes == 2 and ds.dim == 5


def test_prediction_data_reuses_training_stats(tmp_path):
    train_ds = load_csv(write_csv(tmp_path, TRAIN_CSV), SCHEMA)
    test_csv = write_csv(tmp_path, "species,size,color,notes\ncat,4,purple,q\n", "t.csv")
    test_ds = load_csv(test_csv, SCHEMA, stats=train_ds.stats)
    # z-scored with the training moments, not refit on the single row
    assert test_ds.x.cont[0, 0] == pytest.approx(3.0)
    # unseen category lands in the unknown slot instead of crashing
    assert test_ds.x.slots.tolist() == [[4]]
    assert test_ds.dim == train_ds.dim == 5


def test_unlabeled_file_loads_without_labels(tmp_path):
    path = write_csv(tmp_path, "size,color,notes\n1,red,a\n3,blue,b\n")
    rows, has_labels = read_csv_rows(path, SCHEMA)
    assert not has_labels and len(rows) == 2
    ds = load_csv(path, SCHEMA)
    assert ds.y is None and len(ds) == 2


def test_csv_structure_errors(tmp_path):
    with pytest.raises(ValueError, match="empty file"):
        read_csv_rows(write_csv(tmp_path, ""), SCHEMA)
    with pytest.raises(ValueError, match="not in schema"):
        read_csv_rows(write_csv(tmp_path, "species,size,color,notes,bonus\n"), SCHEMA)
    with pytest.raises(ValueError, match="missing from file"):
        read_csv_rows(write_csv(tmp_path, "species,size\ncat,1\n"), SCHEMA)
    with pytest.raises(ValueError, match="row 3 has 2 cells"):
        read_csv_rows(
            write_csv(tmp_path, "species,size,color,notes\ncat,1,red,a\ncat,1\n"),
            SCHEMA)


@pytest.mark.parametrize("header", [
    "species,size,size,color,notes",  # the last size column once replaced the first
    "species,size,color,notes,color",
    "species,species,size,color,notes",
    "notes,species,size,color,notes",
])
def test_a_repeated_column_is_refused_by_name(tmp_path, header):
    name = next(h for h in header.split(",") if header.split(",").count(h) > 1)
    cells = {"species": "cat", "size": "1", "color": "red", "notes": "x"}
    path = write_csv(tmp_path, header + "\n" + ",".join(cells[h] for h in header.split(","))
                     + "\n")
    with pytest.raises(ValueError) as err:
        read_csv_rows(path, SCHEMA)
    assert str(err.value) == f"{path}: columns repeated in header: [{name!r}]"
    with pytest.raises(ValueError) as oracle_err:
        read_rows_oracle(path, SCHEMA)
    assert str(oracle_err.value) == str(err.value)


def test_cell_errors_name_row_and_column(tmp_path):
    bad_number = "species,size,color,notes\ncat,1,red,a\ndog,tall,blue,b\n"
    path = write_csv(tmp_path, bad_number)
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: row 3.*'size'.*'tall'"):
        load_csv(path, SCHEMA)
    missing = "species,size,color,notes\ncat,,red,a\n"
    with pytest.raises(ValueError, match=r"row 2.*'size'.*missing"):
        load_csv(write_csv(tmp_path, missing), SCHEMA)
    bad_label = "species,size,color,notes\nfish,1,red,a\n"
    with pytest.raises(ValueError, match=r"row 2.*'fish'"):
        load_csv(write_csv(tmp_path, bad_label), SCHEMA)


def test_blank_lines_and_padding_are_tolerated(tmp_path):
    text = "species, size ,color,notes\ncat , 0 , red ,a\n\ndog,2, blue ,b\n"
    path = write_csv(tmp_path, text)
    ds = load_csv(path, SCHEMA)
    assert len(ds) == 2
    assert np.array_equal(ds.y, np.array([0, 1]))
    table, _ = read_csv_rows(path, SCHEMA)
    assert table.path == path and table.lines.tolist() == [2, 4]  # the blank line 3 holds no row


def test_rows_are_numbered_by_the_line_they_start_on(tmp_path):
    # a quoted cell spans lines 2-3, so the bad number is on line 5
    text = 'species,size,color,notes\ncat,1,red,"two\nlines"\n\ndog,oops,red,b\n'
    path = write_csv(tmp_path, text)
    good = write_csv(tmp_path, text.replace("oops", "2"), "good.csv")
    assert read_csv_rows(good, SCHEMA)[0].lines.tolist() == [2, 5]
    # continuous cells are parsed as the file is read
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: row 5, column 'size'"):
        read_csv_rows(path, SCHEMA)


def _decoded(table):
    """Each held column as plain values: floats, or the strings codes stand for."""
    return {name: column.tolist() if isinstance(column, np.ndarray)
            else [column.values[k] for k in column.codes.tolist()]
            for name, column in table.columns.items()}


@pytest.mark.parametrize("chunk", [1, 2])
def test_a_short_row_in_a_later_chunk_wins_over_a_bad_number(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(data_module, "CHUNK_ROWS", chunk)
    text = "species,size,color,notes\ncat,oops,red,a\ndog,2,red,b\ncat,3,red,c\ndog,4\n"
    with pytest.raises(ValueError, match=r": row 5 has 2 cells, header has 4$"):
        read_csv_rows(write_csv(tmp_path, text), SCHEMA)


@pytest.mark.parametrize("chunk", [1, 2])
def test_the_earlier_of_two_bad_numbers_in_different_chunks_is_named(tmp_path, monkeypatch,
                                                                     chunk):
    monkeypatch.setattr(data_module, "CHUNK_ROWS", chunk)
    text = "species,size,color,notes\ncat,1,red,a\ndog,tall,red,b\ncat,3,red,c\ndog,,red,d\n"
    path = write_csv(tmp_path, text)
    with pytest.raises(ValueError) as e:
        read_csv_rows(path, SCHEMA)
    assert str(e.value) == f"{path}: row 3, column 'size': cannot parse 'tall' as a number"


@pytest.mark.parametrize("chunk", [1, 2])
def test_quoted_cells_across_chunks_keep_their_line_numbers(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(data_module, "CHUNK_ROWS", chunk)
    text = ('species,size,color,notes\ncat,1,red,"two\nlines"\n\ndog,2,red,b\n'
            'cat,3,blue,"x\ny"\ndog,oops,red,c\n')
    good = write_csv(tmp_path, text.replace("oops", "4"), "good.csv")
    assert read_csv_rows(good, SCHEMA)[0].lines.tolist() == [2, 5, 6, 8]
    path = write_csv(tmp_path, text)
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: row 8, column 'size'"):
        read_csv_rows(path, SCHEMA)


def test_the_table_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    lines = ["species,size,color,notes"]
    for i in range(9):
        lines.append(f"{'cat' if i % 3 else 'dog'},{rng.normal()!r},"
                     f"{['red', ' blue', 'green '][int(rng.integers(3))]},n{i}")
        if i % 4 == 0:
            lines.append("")
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    default = read_csv_rows(path, SCHEMA)[0]
    for chunk in (1, 2):
        monkeypatch.setattr(data_module, "CHUNK_ROWS", chunk)
        table = read_csv_rows(path, SCHEMA)[0]
        assert table.lines.tolist() == default.lines.tolist()
        assert _decoded(table) == _decoded(default)


def test_categorical_columns_are_held_as_codes_and_drop_columns_not_at_all(tmp_path):
    colors = ["red", "blue", "green"]
    text = "species,size,color,notes\n" + "".join(
        f"{'cat' if i % 2 else 'dog'},{i},{colors[i % 3]},note {i}\n" for i in range(5000))
    table, _ = read_csv_rows(write_csv(tmp_path, text), SCHEMA)
    assert set(table.columns) == {"species", "size", "color"}  # "notes" is a drop column
    color = table.columns["color"]
    assert sorted(color.values) == sorted(colors)
    assert color.codes.dtype.kind == "i" and color.codes.shape == (5000,)
    assert [color.values[k] for k in color.codes[:4].tolist()] == ["red", "blue", "green", "red"]
    assert table.columns["size"].dtype == np.float64 and len(table.columns["size"]) == 5000


def test_fit_stats_constant_column_keeps_unit_std(tmp_path):
    text = "species,size,color,notes\ncat,5,red,a\ndog,5,red,b\n"
    rows, _ = read_csv_rows(write_csv(tmp_path, text), SCHEMA)
    stats = fit_stats(rows, SCHEMA)
    assert stats.stds["size"] == 1.0
    assert stats.vocabs["color"] == ("red",)


# ---------------------------------------------------------------------------
# synthetic blobs
# ---------------------------------------------------------------------------

def test_blobs_balanced_labels():
    ds = make_blobs(10, 3, 3, 5.0, make_rng(0, 3))
    counts = np.bincount(ds.y, minlength=3)
    assert counts.tolist() == [4, 3, 3]
    assert ds.num_classes == 3 and ds.dim == 3
    assert ds.x.slots.shape == (10, 0)


def test_blob_data_is_an_all_continuous_table():
    ds = make_blobs(10, 3, 2, 5.0, make_rng(0, 3))
    data = blob_data(ds, "blobs:n=10")
    assert [(c.name, c.role) for c in data.schema.columns] == [
        ("x0", "continuous"), ("x1", "continuous"), ("y", "label")]
    assert data.schema.label_values == ("0", "1", "2") and data.has_labels
    for i in range(2):
        column = data.table.columns[f"x{i}"]
        assert column.dtype == np.float64 and column.flags.c_contiguous
        assert np.array_equal(column, ds.x.cont[:, i])
    assert np.array_equal(label_codes(data.table, data.schema), ds.y)
    # encoded with stats fitted on all of it: each column z-scored on its own
    encoded = encode_rows(data.table, data.schema, fit_stats(data.table, data.schema))
    assert encoded.x.cont_rows.tolist() == [0, 1] and encoded.x.slots.shape == (10, 0)
    x = ds.x.cont
    assert np.allclose(encoded.x.cont, (x - x.mean(axis=0)) / x.std(axis=0))
    # errors name the source and number the rows from 1
    two = replace(data.schema, label_values=("0", "1"))
    with pytest.raises(ValueError, match=r"^blobs:n=10: row 8: label '2' not in"):
        label_codes(data.table, two)


def test_blobs_centers_are_equidistant():
    # class means converge on the simplex vertices; every pairwise distance
    # should be close to the requested separation
    ds = make_blobs(3000, 3, 2, 20.0, make_rng(1, 3))
    means = np.stack([ds.x.cont[ds.y == k].mean(axis=0) for k in range(3)])
    dists = np.sqrt(pairwise_sq_distances(means, means))
    off = dists[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off - 20.0) < 0.3)


def test_blobs_single_class():
    ds = make_blobs(50, 1, 3, 5.0, make_rng(2, 3))
    assert np.all(ds.y == 0)
    assert np.abs(ds.x.cont.mean(axis=0)).max() < 1.0


def test_blobs_deterministic():
    a = make_blobs(40, 2, 2, 4.0, make_rng(9, 3))
    b = make_blobs(40, 2, 2, 4.0, make_rng(9, 3))
    assert np.array_equal(a.x.cont, b.x.cont) and np.array_equal(a.y, b.y)


def test_blobs_validation():
    rng = make_rng(0, 3)
    with pytest.raises(ValueError):
        make_blobs(2, 3, 3, 5.0, rng)
    with pytest.raises(ValueError):
        make_blobs(10, 4, 2, 5.0, rng)  # 4 equidistant centers need d >= 3
    with pytest.raises(ValueError):
        make_blobs(10, 2, 2, 0.0, rng)
    for separation in (float("nan"), float("inf")):  # NaN passes a "<= 0" test
        with pytest.raises(ValueError, match="separation must be finite"):
            make_blobs(10, 2, 2, separation, rng)
    with pytest.raises(ValueError):
        make_blobs(10, 0, 2, 5.0, rng)


def test_blobs_nearest_neighbor_separability():
    # at separation 10 (10 noise stds between centers) nearest-neighbor
    # classification in input space is essentially perfect
    ds = make_blobs(400, 4, 4, 10.0, make_rng(3, 3))
    ref, query = quick_split(ds, (0.7, 0.3), 3)
    nearest = np.argmin(pairwise_sq_distances(query.x.cont, ref.x.cont), axis=1)
    acc = float(np.mean(ref.y[nearest] == query.y))
    assert acc >= 0.99


# ---------------------------------------------------------------------------
# model artifacts
# ---------------------------------------------------------------------------

def make_artifact(run):
    result, proper, calib, test = run
    schema = Schema(columns=(*(ColumnSpec(f"x{i}", "continuous") for i in range(proper.dim)),
                             ColumnSpec("y", "label")),
                    label_values=("0", "1", "2"))
    return ModelArtifact(
        model=result.model,
        sigma=0.5,
        schema=schema,
        stats=proper.stats,
        embedded=result.embedded,
        calibrations={"neg_prob": np.sort(make_rng(4).random(20))},
    ), test


def test_artifact_round_trip_is_bit_identical(tmp_path, dwac_run):
    artifact, test = make_artifact(dwac_run)
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    loaded = load_model(str(path))

    before = predict(artifact, test.x)
    after = predict(loaded, test.x)
    assert np.array_equal(before.probs, after.probs)
    assert np.array_equal(before.weight_sums, after.weight_sums)
    assert np.array_equal(artifact.calibrations["neg_prob"],
                          loaded.calibrations["neg_prob"])
    assert loaded.stats == artifact.stats
    assert loaded.model.spec == artifact.model.spec

    # saving the loaded artifact reproduces the file byte for byte
    second = tmp_path / "again.json"
    save_model(loaded, str(second))
    assert second.read_bytes() == path.read_bytes()


def test_artifact_preserves_schema(tmp_path, softmax_run):
    # the schema's label values must match the model's three classes
    result, proper, *_ = softmax_run
    schema = Schema(columns=SCHEMA.columns, label_values=("cat", "dog", "eel"))
    stats = FeatureStats(means={"size": 1.5}, stds={"size": 2.0}, vocabs={"color": ("red",)})
    artifact = ModelArtifact(model=result.model, sigma=0.5, embedded=None, calibrations={},
                             schema=schema, stats=stats)
    path = tmp_path / "m.json"
    save_model(artifact, str(path))
    loaded = load_model(str(path))
    assert loaded.schema == schema and loaded.stats == stats


def test_artifact_rejects_wrong_version(tmp_path, dwac_run):
    artifact, _ = make_artifact(dwac_run)
    path = tmp_path / "m.json"
    save_model(artifact, str(path))
    doc = json.loads(path.read_text())
    doc["format"] = "dwac-kit/999"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unsupported format"):
        load_model(str(path))


def test_artifact_rejects_truncated_file(tmp_path, dwac_run):
    artifact, _ = make_artifact(dwac_run)
    path = tmp_path / "m.json"
    save_model(artifact, str(path))
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ValueError, match="truncated or corrupt"):
        load_model(str(path))


def test_artifact_rejects_missing_fields(tmp_path, dwac_run):
    artifact, _ = make_artifact(dwac_run)
    path = tmp_path / "m.json"
    save_model(artifact, str(path))
    doc = json.loads(path.read_text())
    del doc["weights"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="incomplete"):
        load_model(str(path))


@pytest.mark.parametrize("key", ["schema", "stats"])
@pytest.mark.parametrize("edit", ["null", "absent"])
def test_artifact_without_schema_or_stats_is_refused_by_name(tmp_path, dwac_run, key, edit):
    # artifacts saved without them (blob models before every input was a
    # table) cannot encode their input, and must be re-trained
    artifact, _ = make_artifact(dwac_run)
    path = tmp_path / "m.json"
    save_model(artifact, str(path))
    doc = json.loads(path.read_text())
    if edit == "null":
        doc[key] = None
    else:
        del doc[key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: model file has no '{key}'"):
        load_model(str(path))


def test_dwac_artifact_requires_embedded(dwac_run):
    artifact, _ = make_artifact(dwac_run)
    with pytest.raises(ValueError, match="embedded"):
        replace(artifact, embedded=None)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(str(target), ["hello\n"])
    assert target.read_text() == "hello\n"
    assert os.listdir(tmp_path) == ["out.txt"]
