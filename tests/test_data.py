from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from dwac_kit import (
    ColumnSpec,
    Dataset,
    FeatureStats,
    ModelArtifact,
    Schema,
    load_model,
    make_blobs,
    make_rng,
    pairwise_sq_distances,
    predict,
    save_model,
)
from dwac_kit.data import (
    atomic_write_text,
    fit_stats,
    read_csv_rows,
    standardize,
    standardize_splits,
)
from helpers import load_csv, quick_split

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
    assert np.array_equal(ds.x[:, 0], np.array([-1.0, 1.0, -1.0, 1.0]))
    # 3 observed colors -> 3 indicators + 1 unknown slot
    assert ds.feature_names == (
        "size", "color=blue", "color=green", "color=red", "color=<unknown>")
    assert np.array_equal(ds.x[0, 1:], np.array([0.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(ds.x[1, 1:], np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(ds.y, np.array([0, 1, 0, 1]))
    assert ds.num_classes == 2 and ds.dim == 5


def test_prediction_data_reuses_training_stats(tmp_path):
    train_ds = load_csv(write_csv(tmp_path, TRAIN_CSV), SCHEMA)
    test_csv = write_csv(tmp_path, "species,size,color,notes\ncat,4,purple,q\n", "t.csv")
    test_ds = load_csv(test_csv, SCHEMA, stats=train_ds.stats)
    # z-scored with the training moments, not refit on the single row
    assert test_ds.x[0, 0] == pytest.approx(3.0)
    # unseen category lands in the unknown slot instead of crashing
    assert np.array_equal(test_ds.x[0, 1:], np.array([0.0, 0.0, 0.0, 1.0]))
    assert test_ds.feature_names == train_ds.feature_names


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
    assert table.path == path and table.lines == [2, 4]  # the blank line 3 holds no row


def test_rows_are_numbered_by_the_line_they_start_on(tmp_path):
    # a quoted cell spans lines 2-3, so the bad number is on line 5
    text = 'species,size,color,notes\ncat,1,red,"two\nlines"\n\ndog,oops,red,b\n'
    path = write_csv(tmp_path, text)
    assert read_csv_rows(path, SCHEMA)[0].lines == [2, 5]
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: row 5, column 'size'"):
        load_csv(path, SCHEMA)


def test_fit_stats_constant_column_keeps_unit_std(tmp_path):
    text = "species,size,color,notes\ncat,5,red,a\ndog,5,red,b\n"
    rows, _ = read_csv_rows(write_csv(tmp_path, text), SCHEMA)
    stats = fit_stats(rows, SCHEMA)
    assert stats.stds["size"] == 1.0
    assert stats.vocabs["color"] == ("red",)


# ---------------------------------------------------------------------------
# standardize (synthetic path)
# ---------------------------------------------------------------------------

def test_standardize_fits_and_applies():
    ds = Dataset(x=np.array([[0.0, 7.0], [2.0, 7.0]]), y=np.array([0, 1]),
                 num_classes=2, feature_names=("a", "b"))
    out = standardize(ds)
    assert np.array_equal(out.x[:, 0], np.array([-1.0, 1.0]))
    # constant column keeps std 1 so it maps to zero, not NaN
    assert np.array_equal(out.x[:, 1], np.array([0.0, 0.0]))
    assert out.stats.means["a"] == 1.0


def test_standardize_splits_use_proper_moments_only():
    blobs = make_blobs(300, 3, 4, 6.0, make_rng(5, 3))
    raw_proper, raw_calib, raw_test = quick_split(blobs, (0.6, 0.2, 0.2), 5)
    proper, calib, test = standardize_splits(raw_proper, raw_calib, raw_test)
    mean = raw_proper.x.mean(axis=0)
    std = raw_proper.x.std(axis=0)
    assert np.allclose(calib.x, (raw_calib.x - mean) / std)
    assert np.allclose(test.x, (raw_test.x - mean) / std)
    # applying the proper stats is not the same as refitting on calib
    assert not np.allclose(calib.x.mean(axis=0), 0.0, atol=1e-3)


def test_standardize_rejects_missing_stats_columns():
    ds = Dataset(x=np.ones((2, 1)), y=None, num_classes=2, feature_names=("zz",))
    stats = FeatureStats(means={"a": 0.0}, stds={"a": 1.0}, vocabs={})
    with pytest.raises(ValueError, match="zz"):
        standardize(ds, stats)


# ---------------------------------------------------------------------------
# synthetic blobs
# ---------------------------------------------------------------------------

def test_blobs_balanced_labels():
    ds = make_blobs(10, 3, 3, 5.0, make_rng(0, 3))
    counts = np.bincount(ds.y, minlength=3)
    assert counts.tolist() == [4, 3, 3]
    assert ds.num_classes == 3 and ds.dim == 3
    assert ds.feature_names == ("x0", "x1", "x2")


def test_blobs_centers_are_equidistant():
    # class means converge on the simplex vertices; every pairwise distance
    # should be close to the requested separation
    ds = make_blobs(3000, 3, 2, 20.0, make_rng(1, 3))
    means = np.stack([ds.x[ds.y == k].mean(axis=0) for k in range(3)])
    dists = np.sqrt(pairwise_sq_distances(means, means))
    off = dists[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off - 20.0) < 0.3)


def test_blobs_single_class():
    ds = make_blobs(50, 1, 3, 5.0, make_rng(2, 3))
    assert np.all(ds.y == 0)
    assert np.abs(ds.x.mean(axis=0)).max() < 1.0


def test_blobs_deterministic():
    a = make_blobs(40, 2, 2, 4.0, make_rng(9, 3))
    b = make_blobs(40, 2, 2, 4.0, make_rng(9, 3))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_blobs_validation():
    rng = make_rng(0, 3)
    with pytest.raises(ValueError):
        make_blobs(2, 3, 3, 5.0, rng)
    with pytest.raises(ValueError):
        make_blobs(10, 4, 2, 5.0, rng)  # 4 equidistant centers need d >= 3
    with pytest.raises(ValueError):
        make_blobs(10, 2, 2, 0.0, rng)
    with pytest.raises(ValueError):
        make_blobs(10, 0, 2, 5.0, rng)


def test_blobs_nearest_neighbor_separability():
    # at separation 10 (10 noise stds between centers) nearest-neighbor
    # classification in input space is essentially perfect
    ds = make_blobs(400, 4, 4, 10.0, make_rng(3, 3))
    ref, query = quick_split(ds, (0.7, 0.3), 3)
    nearest = np.argmin(pairwise_sq_distances(query.x, ref.x), axis=1)
    acc = float(np.mean(ref.y[nearest] == query.y))
    assert acc >= 0.99


# ---------------------------------------------------------------------------
# model artifacts
# ---------------------------------------------------------------------------

def make_artifact(run):
    result, proper, calib, test = run
    return ModelArtifact(
        model=result.model,
        sigma=0.5,
        num_classes=proper.num_classes,
        schema=None,
        stats=proper.stats,
        embedded=result.embedded,
        calibrations={"neg_prob": np.sort(make_rng(4).random(20))},
    ), test


def test_artifact_round_trip_is_bit_identical(tmp_path, dwac_run):
    artifact, test = make_artifact(dwac_run)
    path = tmp_path / "model.json"
    save_model(artifact, str(path))
    loaded = load_model(str(path))

    before = predict(artifact.model, test.x, train=artifact.embedded, sigma=0.5)
    after = predict(loaded.model, test.x, train=loaded.embedded, sigma=0.5)
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
    artifact = ModelArtifact(model=result.model, sigma=0.5,
                             num_classes=proper.num_classes, schema=schema)
    path = tmp_path / "m.json"
    save_model(artifact, str(path))
    assert load_model(str(path)).schema == schema


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


def test_dwac_artifact_requires_embedded(dwac_run):
    result, proper, *_ = dwac_run
    with pytest.raises(ValueError, match="embedded"):
        ModelArtifact(model=result.model, sigma=0.5, num_classes=proper.num_classes)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    assert os.listdir(tmp_path) == ["out.txt"]
