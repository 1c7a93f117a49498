from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from dwac_kit import (
    Dataset,
    Predictions,
    Schema,
    TrainConfig,
    accuracy,
    blob_data,
    calibrate,
    calibration_mae,
    conformal_predict,
    make_blobs,
    make_rng,
    ood_cross_dataset,
    ood_holdout_class_multi,
    predict,
    train,
)
from dwac_kit.conformal import NEG_PROB, NEG_WEIGHT_SUM
from dwac_kit.data import CsvData, read_csv_rows
from dwac_kit.evaluate import SPLIT_STREAM, trial_splits
from dwac_kit.linalg import shuffle_split
from helpers import quick_split


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------

def test_accuracy_from_vector_and_predictions():
    labels = np.array([0, 1, 2, 1])
    assert accuracy(np.array([0, 1, 2, 1]), labels) == 1.0
    assert accuracy(np.array([0, 1, 0, 0]), labels) == 0.5
    probs = np.eye(3)[[0, 1, 2, 2]]
    preds = Predictions(probs=probs, predicted=np.array([0, 1, 2, 2]),
                        weight_sums=None)
    assert accuracy(preds, labels) == 0.75


def test_accuracy_rejects_misaligned_or_empty():
    with pytest.raises(ValueError):
        accuracy(np.array([0, 1]), np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        accuracy(np.array([], dtype=np.int64), np.array([], dtype=np.int64))


# ---------------------------------------------------------------------------
# adaptive-binning calibration error
# ---------------------------------------------------------------------------

def test_calibration_mae_zero_for_hard_correct_predictions():
    # 100 instances, 2 classes, probabilities exactly 0/1 and always right:
    # 200 pairs make two bins of 100, each of whose mean probability equals
    # its frequency, so the error is 0 (one bin would make it NaN).
    labels = np.tile(np.array([0, 1]), 50)
    probs = np.eye(2)[labels]
    assert calibration_mae(probs, labels, per_bin=100) == 0.0


def test_calibration_mae_hand_case():
    # Constant (0.3, 0.7) predictions over a 50/50 label split: the ten 0.3
    # pairs sort into the first bin and the ten 0.7 pairs into the second,
    # both see frequency 0.5, so each contributes |p - 0.5| = 0.2.
    probs = np.tile(np.array([[0.3, 0.7]]), (10, 1))
    labels = np.array([0] * 5 + [1] * 5)
    assert calibration_mae(probs, labels, per_bin=10) == pytest.approx(0.2, abs=1e-12)


def test_calibration_bins_partition_all_pairs():
    rng = make_rng(7)
    probs = rng.random((83, 3))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 3, size=83)
    # 249 pairs -> 2 bins, the last absorbing the remainder: 100 and 149 pairs
    pairs = sorted((probs[i, k], float(labels[i] == k)) for i in range(83) for k in range(3))

    def error(part):
        return abs(sum(p for p, _ in part) / len(part) - sum(h for _, h in part) / len(part))

    expected = (error(pairs[:100]) + error(pairs[100:])) / 2
    assert calibration_mae(probs, labels, per_bin=100) == pytest.approx(expected, abs=1e-12)


def test_calibration_single_bin_fallback():
    rng = make_rng(8)
    probs = rng.random((4, 2))
    labels = rng.integers(0, 2, size=4)
    # one bin always scores 0, which says nothing
    assert np.isnan(calibration_mae(probs, labels, per_bin=100))
    # 199 pairs are one bin, 200 are two
    assert np.isnan(calibration_mae(np.ones((199, 1)), np.zeros(199, dtype=np.int64)))
    # two bins: the 0.2 pairs, all hits, and the 0.8 pairs, all misses
    two_bins = calibration_mae(np.tile([[0.2, 0.8]], (100, 1)), np.zeros(100, dtype=np.int64))
    assert two_bins == pytest.approx(0.8, abs=1e-12)


def test_calibration_mae_invariant_to_instance_order():
    rng = make_rng(9)
    probs = rng.random((60, 4))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 4, size=60)
    base = calibration_mae(probs, labels, per_bin=20)
    perm = rng.permutation(60)
    shuffled = calibration_mae(probs[perm], labels[perm], per_bin=20)
    assert shuffled == pytest.approx(base, abs=1e-15)


def test_calibration_mae_validation():
    with pytest.raises(ValueError):
        calibration_mae(np.ones((3, 2)), np.zeros(3, dtype=np.int64), per_bin=5)
    with pytest.raises(ValueError):
        calibration_mae(np.ones((3, 2)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        calibration_mae(np.ones((0, 2)), np.zeros(0, dtype=np.int64))


# ---------------------------------------------------------------------------
# trial splits and class hold-out plumbing
# ---------------------------------------------------------------------------

def test_blob_splits_fit_moments_on_proper_rows_only():
    blobs = make_blobs(300, 3, 4, 6.0, make_rng(5, 3))
    raw_proper, raw_calib, raw_test = quick_split(blobs, (0.6, 0.2, 0.2), 5)
    proper, calib, test = trial_splits(blob_data(blobs), 5, (0.6, 0.2, 0.2))
    for raw, ds in ((raw_proper, proper), (raw_calib, calib), (raw_test, test)):
        assert np.array_equal(ds.y, raw.y)
    # the moments of each column alone, over the proper rows
    assert proper.stats.means == {f"x{i}": float(np.mean(raw_proper.x[:, i].copy()))
                                  for i in range(4)}
    mean = raw_proper.x.mean(axis=0)
    std = raw_proper.x.std(axis=0)
    assert np.allclose(calib.x, (raw_calib.x - mean) / std)
    assert np.allclose(test.x, (raw_test.x - mean) / std)
    # applying the proper stats is not the same as refitting on calib
    assert not np.allclose(calib.x.mean(axis=0), 0.0, atol=1e-3)


def test_holdout_splits_relabel_the_remaining_classes_densely():
    blobs = make_blobs(80, 4, 3, 8.0, make_rng(0, 3))
    proper, calib, test, held = trial_splits(blob_data(blobs), 0, (0.6, 0.2, 0.2),
                                             held_class=2)
    # the held rows, in order, encoded with the proper rows' moments
    assert len(held) == 20 and held.y is None
    means = np.array([proper.stats.means[f"x{i}"] for i in range(3)])
    stds = np.array([proper.stats.stds[f"x{i}"] for i in range(3)])
    assert np.allclose(held.x, (blobs.x[blobs.y == 2] - means) / stds)
    # classes 0, 1 and 3 compact to 0, 1 and 2, in the rows of the split
    kept = np.flatnonzero(blobs.y != 2)
    parts = shuffle_split(kept.size, (0.6, 0.2, 0.2), make_rng(0, SPLIT_STREAM))
    for ds, part in zip((proper, calib, test), parts):
        assert np.array_equal(ds.y, np.array([0, 1, -1, 2])[blobs.y[kept[part]]])
    for ds in (proper, calib, test, held):
        assert ds.num_classes == 3


def test_csv_holdout_splits_fit_stats_on_proper_rows_only(tmp_path):
    # class 2 is the only purple one, so once it is held out purple is an
    # unseen colour: it must encode to the unknown slot, and the moments of
    # "size" must come from the proper rows of the other classes alone
    schema = Schema.from_json_dict({
        "columns": [{"name": "size", "role": "continuous"},
                    {"name": "color", "role": "categorical"},
                    {"name": "species", "role": "label"}],
        "label_values": ["a", "b", "c"],
    })
    lines = ["size,color,species"]
    for i in range(60):
        label = "abc"[i % 3]
        lines.append(f"{i * i},{'purple' if label == 'c' else 'red blue'.split()[i % 2]},{label}")
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    table, has_labels = read_csv_rows(str(path), schema)
    data = CsvData(table=table, schema=schema, has_labels=has_labels)

    proper, calib, test, held = trial_splits(data, 4, (0.6, 0.2, 0.2), held_class=2)
    assert proper.feature_names == ("size", "color=blue", "color=red", "color=<unknown>")
    assert len(held) == 20 and held.y is None
    assert np.array_equal(held.x[:, 1:], np.tile([0.0, 0.0, 1.0], (20, 1)))
    assert len(proper) + len(calib) + len(test) == 40
    for ds in (proper, calib, test, held):
        assert ds.num_classes == 2
    # classes a and b keep labels 0 and 1; the rows are those of the split
    kept = np.array([i for i in range(60) if i % 3 != 2])
    rows = kept[shuffle_split(40, (0.6, 0.2, 0.2), make_rng(4, SPLIT_STREAM))[0]]
    assert np.array_equal(proper.y, rows % 3)
    sizes = (rows * rows).astype(np.float64)
    assert proper.stats.means["size"] == float(np.mean(sizes))
    assert np.allclose(proper.x[:, 0], (sizes - sizes.mean()) / sizes.std())


# ---------------------------------------------------------------------------
# hold-out OOD protocol
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def holdout_reports():
    # 4 classes so that after the drop training is still multiclass; with
    # only two remaining classes the held-out simplex vertex projects onto
    # the inter-class axis and embeds near the decision boundary, which
    # keeps its kernel mass unremarkable.
    blobs = blob_data(make_blobs(480, 4, 4, 8.0, make_rng(11, 3)))
    config = TrainConfig(head="dwac", seed=11, max_epochs=40, batch_size=64)
    splits = trial_splits(blobs, 11, (0.6, 0.2, 0.2), held_class=3)
    result = train(*splits[:2], config)
    return ood_holdout_class_multi(splits, result, [NEG_PROB, NEG_WEIGHT_SUM], config.sigma)


def test_holdout_reports_shape(holdout_reports):
    assert set(holdout_reports) == {NEG_PROB, NEG_WEIGHT_SUM}
    for report in holdout_reports.values():
        assert np.all(report.in_domain >= 0.0) and np.all(report.in_domain <= 1.0)
        assert np.all(report.out_of_domain >= 0.0) and np.all(report.out_of_domain <= 1.0)
        assert report.out_of_domain.size == 120  # all held-out rows are scored
        assert report.in_counts.sum() == report.in_domain.size
        assert report.out_counts.sum() == report.out_of_domain.size
        assert report.hist_edges.size == 21
        assert report.in_mean == pytest.approx(float(np.mean(report.in_domain)))


def test_holdout_weight_sums_flag_the_held_class(holdout_reports):
    # On well-separated clusters the held-out class lands far from every
    # training embedding, so its total kernel mass is tiny and weight-sum
    # credibility collapses; in-domain test data keeps healthy credibility.
    report = holdout_reports[NEG_WEIGHT_SUM]
    assert report.out_mean < 0.2
    assert report.out_mean < report.in_mean
    assert report.out_mean < holdout_reports[NEG_PROB].in_mean


def test_holdout_single_measure_matches_multi(holdout_reports):
    blobs = blob_data(make_blobs(480, 4, 4, 8.0, make_rng(11, 3)))
    config = TrainConfig(head="dwac", seed=11, max_epochs=40, batch_size=64)
    splits = trial_splits(blobs, 11, (0.6, 0.2, 0.2), held_class=3)
    result = train(*splits[:2], config)
    single = ood_holdout_class_multi(splits, result, [NEG_WEIGHT_SUM],
                                     config.sigma)[NEG_WEIGHT_SUM]
    assert np.array_equal(single.out_of_domain,
                          holdout_reports[NEG_WEIGHT_SUM].out_of_domain)


def test_drop_class_validation():
    # the class held out must be in range, have rows, and the data labels
    fractions = (0.6, 0.2, 0.2)
    three = blob_data(make_blobs(60, 3, 2, 6.0, make_rng(0, 3)), "blobs:n=60")
    with pytest.raises(ValueError, match="out of range"):
        trial_splits(three, 0, fractions, held_class=5)
    # a class the schema names but no row has
    four = replace(three, schema=replace(three.schema, label_values=("0", "1", "2", "3")))
    with pytest.raises(ValueError, match="class 3 has no instances"):
        trial_splits(four, 0, fractions, held_class=3)
    with pytest.raises(ValueError, match="^blobs:n=60: hold-out protocol needs labels"):
        trial_splits(replace(three, has_labels=False), 0, fractions, held_class=0)


def test_holdout_validation():
    fractions = (0.6, 0.2, 0.2)
    two = blob_data(make_blobs(40, 2, 2, 6.0, make_rng(0, 3)))
    with pytest.raises(ValueError, match=">= 3 classes"):
        trial_splits(two, 0, fractions, held_class=0)
    three = blob_data(make_blobs(60, 3, 2, 6.0, make_rng(0, 3)))
    config = TrainConfig(head="dwac", seed=0, max_epochs=2)
    splits = trial_splits(three, 0, fractions, held_class=0)
    result = train(*splits[:2], config)
    with pytest.raises(ValueError):
        ood_holdout_class_multi(splits, result, [], config.sigma)


# ---------------------------------------------------------------------------
# cross-dataset OOD
# ---------------------------------------------------------------------------

def test_cross_dataset_identical_foreign_scores_identically(dwac_run):
    result, proper, calib, test = dwac_run
    calib_preds = predict(result.model, calib.x, train=result.embedded, sigma=0.5)
    scores = calibrate(calib_preds, calib.y, NEG_WEIGHT_SUM)
    report = ood_cross_dataset(result.model, result.embedded, {NEG_WEIGHT_SUM: scores},
                               in_domain=test, foreign=test)[NEG_WEIGHT_SUM]
    assert np.array_equal(report.in_domain, report.out_of_domain)
    assert report.in_mean == report.out_mean


def test_cross_dataset_shifted_foreign_loses_credibility(dwac_run):
    result, proper, calib, test = dwac_run
    calib_preds = predict(result.model, calib.x, train=result.embedded, sigma=0.5)
    scores = calibrate(calib_preds, calib.y, NEG_WEIGHT_SUM)
    foreign = Dataset(x=test.x + 40.0, y=None, num_classes=test.num_classes,
                      feature_names=test.feature_names)
    report = ood_cross_dataset(result.model, result.embedded, {NEG_WEIGHT_SUM: scores},
                               in_domain=test, foreign=foreign)[NEG_WEIGHT_SUM]
    assert report.out_mean < 0.05
    assert report.out_mean < report.in_mean


def test_cross_dataset_credibility_matches_conformal(dwac_run):
    result, proper, calib, test = dwac_run
    calib_preds = predict(result.model, calib.x, train=result.embedded, sigma=0.5)
    scores = calibrate(calib_preds, calib.y, NEG_PROB)
    report = ood_cross_dataset(result.model, result.embedded, {NEG_PROB: scores},
                               in_domain=test, foreign=test)[NEG_PROB]
    test_preds = predict(result.model, test.x, train=result.embedded, sigma=0.5)
    direct = conformal_predict(test_preds, scores, NEG_PROB).credibility()
    assert np.array_equal(report.in_domain, direct)


def test_cross_dataset_validation(dwac_run):
    result, proper, calib, test = dwac_run
    calib_preds = predict(result.model, calib.x, train=result.embedded, sigma=0.5)
    scores = calibrate(calib_preds, calib.y, NEG_PROB)
    empty = Dataset(x=np.zeros((0, test.dim)), y=None, num_classes=test.num_classes,
                    feature_names=test.feature_names)
    with pytest.raises(ValueError):
        ood_cross_dataset(result.model, result.embedded, {NEG_PROB: scores},
                          in_domain=test, foreign=empty)
    narrow = Dataset(x=test.x[:, :-1], y=None, num_classes=test.num_classes,
                     feature_names=test.feature_names[:-1])
    with pytest.raises(ValueError):
        ood_cross_dataset(result.model, result.embedded, {NEG_PROB: scores},
                          in_domain=test, foreign=narrow)
    with pytest.raises(ValueError):
        ood_cross_dataset(result.model, None, {NEG_PROB: scores}, in_domain=test, foreign=test)
    with pytest.raises(ValueError, match="at least one nonconformity measure"):
        ood_cross_dataset(result.model, result.embedded, {}, in_domain=test, foreign=test)
