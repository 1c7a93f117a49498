from __future__ import annotations

import numpy as np
import pytest

from dwac_kit.conformal import (
    EPSILON_GRID,
    NEG_PROB,
    NEG_WEIGHT_SUM,
    ConformalScores,
    Coverage,
    calibrate,
    conformal_predict,
    nonconformity,
    p_values,
)
from dwac_kit.heads import Predictions
from dwac_kit.linalg import make_rng
from helpers import calibrate_oracle, p_value_oracle


def fake_predictions(seed, n=12, c=3, with_sums=True):
    rng = make_rng(seed)
    raw = rng.random((n, c)) + 0.05
    probs = raw / raw.sum(axis=1, keepdims=True)
    sums = raw * rng.random((n, 1)) * 10 if with_sums else None
    return Predictions(probs=probs, predicted=np.argmax(probs, axis=1),
                       weight_sums=sums)


def test_nonconformity_is_negated_score():
    preds = fake_predictions(0)
    assert np.array_equal(nonconformity(preds, NEG_PROB), -preds.probs)
    assert np.array_equal(nonconformity(preds, NEG_WEIGHT_SUM), -preds.weight_sums)


def test_nonconformity_rejects_missing_sums():
    preds = fake_predictions(1, with_sums=False)
    with pytest.raises(ValueError):
        nonconformity(preds, NEG_WEIGHT_SUM)
    with pytest.raises(ValueError):
        nonconformity(preds, "margin")


def test_calibrate_matches_oracle():
    for seed in range(3):
        preds = fake_predictions(seed, n=20)
        labels = make_rng(50 + seed).integers(0, 3, size=20)
        got = calibrate(preds, labels, NEG_PROB)
        ref = calibrate_oracle(-preds.probs, labels)
        assert np.array_equal(got, ref)
        assert np.all(np.diff(got) >= 0)


def test_p_values_match_oracle_with_ties():
    calib = np.sort(np.array([0.1, 0.2, 0.2, 0.2, 0.5, 0.9]))
    queries = np.array([[0.0, 0.1, 0.2, 0.20000001, 0.5, 0.95]])
    got = p_values(calib, queries)[0]
    for q, p in zip(queries[0], got):
        assert p == p_value_oracle(calib, q)
    assert got[2] == 5 / 6  # the three ties all count toward the tail


def test_p_values_random_against_oracle():
    rng = make_rng(77)
    calib = np.sort(rng.random(40))
    scores = rng.random((10, 4))
    got = p_values(calib, scores)
    for i in range(10):
        for j in range(4):
            assert got[i, j] == p_value_oracle(calib, scores[i, j])


def test_p_values_reject_empty_calibration():
    with pytest.raises(ValueError):
        p_values(np.array([]), np.zeros((1, 2)))


def test_label_set_threshold_is_strict():
    scores = ConformalScores(np.array([[0.3, 0.05, 0.051]]))
    assert scores.label_sets(0.05)[0].tolist() == [0, 2]  # p == epsilon excluded
    assert scores.label_sets(0.0)[0].tolist() == [0, 1, 2]
    assert scores.label_sets(0.5)[0].tolist() == []


def test_credibility_and_confidence():
    scores = ConformalScores(np.array([[0.7, 0.2, 0.1], [0.5, 0.5, 0.0]]))
    assert np.allclose(scores.credibility(), [0.7, 0.5])
    # confidence uses the second-largest value of the multiset, so exact
    # ties between the top two leave confidence at 1 - that tied value
    assert np.allclose(scores.confidence(), [0.8, 0.5])


def test_conformal_predict_end_to_end():
    preds = fake_predictions(9, n=30)
    labels = make_rng(10).integers(0, 3, size=30)
    calib_preds = fake_predictions(11, n=50)
    calib_labels = make_rng(12).integers(0, 3, size=50)
    calib = calibrate(calib_preds, calib_labels, NEG_PROB)
    cs = conformal_predict(preds, calib, NEG_PROB)
    assert cs.p.shape == (30, 3)
    assert np.all((cs.p >= 0) & (cs.p <= 1))
    scores = nonconformity(preds, NEG_PROB)
    for i in range(5):
        for k in range(3):
            assert cs.p[i, k] == p_value_oracle(calib, scores[i, k])


def test_degenerate_far_query_is_maximally_nonconforming(dwac_run):
    result, _, calib, _ = dwac_run
    from dwac_kit.trainer import predict

    calib_preds = predict(result, calib.x)
    calib_scores = calibrate(calib_preds, calib.y, NEG_WEIGHT_SUM)
    far = np.full((1, result.model.spec.input_dim), 1e6)
    far_preds = predict(result, far)
    # its absolute kernel mass underflows; its probabilities do not
    assert np.all(far_preds.weight_sums[0] == 0.0)
    assert np.all(np.isfinite(far_preds.probs[0]))
    cs = conformal_predict(far_preds, calib_scores, NEG_WEIGHT_SUM)
    assert np.all(cs.p[0] == 0.0)
    assert cs.credibility()[0] == 0.0
    assert cs.label_sets(0.0)[0].size == 0


def test_coverage_report_hand_example():
    scores = ConformalScores(np.array([[0.9, 0.05], [0.5, 0.3], [0.02, 0.8], [0.04, 0.01]]))
    labels = np.array([0, 1, 1, 0])
    coverage = Coverage(epsilons=(0.1,))
    coverage.add(scores, labels)
    row, = coverage.rows()
    # true-label p-values: 0.9, 0.3, 0.8, 0.04 -> covered: 3 of 4
    # sets at 0.1: {0}, {0,1}, {1}, {} -> sizes 1, 2, 1, 0
    assert row == {"epsilon": 0.1, "coverage": 0.75, "mean_set_size": 1.0,
                   "empty_rate": 0.25, "singleton_rate": 0.5}


def test_coverage_report_grid_size():
    scores = ConformalScores(np.full((5, 2), 0.5))
    coverage = Coverage()
    coverage.add(scores, np.zeros(5, dtype=np.int64))
    rows = coverage.rows()
    assert len(rows) == len(EPSILON_GRID) == 21


def test_calibrate_validates_alignment():
    preds = fake_predictions(2, n=4)
    with pytest.raises(ValueError):
        calibrate(preds, np.array([0, 1]), NEG_PROB)
