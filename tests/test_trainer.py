from __future__ import annotations

import numpy as np
import pytest

import dwac_kit.trainer as trainer_mod
from dwac_kit import Dataset, TrainConfig, make_blobs, make_rng
from dwac_kit.data import standardize_splits
from dwac_kit.evaluate import accuracy
from dwac_kit.network import DWAC, SOFTMAX, adam_step
from dwac_kit.trainer import (
    build_model,
    embed_training_set,
    predict,
    train,
)
from helpers import quick_split, quick_train, train_per_array_oracle


def test_build_model_widths():
    cfg = TrainConfig(head=SOFTMAX, hidden_sizes=(8, 4), h_dim=7)
    model = build_model(cfg, input_dim=5, num_classes=3)
    assert model.spec.layer_sizes == (5, 8, 4, 3)  # softmax ignores h_dim

    cfg = TrainConfig(head=DWAC, hidden_sizes=(8, 4), h_dim=7)
    model = build_model(cfg, input_dim=5, num_classes=3)
    assert model.spec.layer_sizes == (5, 8, 4, 7)

    cfg = TrainConfig(head=DWAC, hidden_sizes=(8, 4))
    assert build_model(cfg, 5, 3).spec.layer_sizes == (5, 8, 4, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(head="logistic")
    with pytest.raises(ValueError):
        TrainConfig(head=DWAC, batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)


def test_training_learns_blobs(dwac_run, softmax_run):
    for (result, _, _, test) in (dwac_run, softmax_run):
        preds = predict(result.model, test.x, train=result.embedded)
        assert accuracy(preds, test.y) > 0.9
        assert result.history[-1].mean_loss < result.history[0].mean_loss


def test_training_is_deterministic():
    a, *_ = quick_train(DWAC, n=200, max_epochs=8)
    b, *_ = quick_train(DWAC, n=200, max_epochs=8)
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        assert np.array_equal(pa, pb)
    assert [e.mean_loss for e in a.history] == [e.mean_loss for e in b.history]


def test_best_epoch_restored(dwac_run):
    result, proper, calib, _ = dwac_run
    best = max(e.calib_accuracy for e in result.history)
    assert result.best_calib_accuracy == best
    ref = embed_training_set(result.model, proper)
    preds = predict(result.model, calib.x, train=ref)
    assert accuracy(preds, calib.y) == best


def test_early_stopping_trims_history():
    result, *_ = quick_train(DWAC, n=200, max_epochs=150, patience=3)
    if result.stopped_early:
        assert len(result.history) < 150
        assert len(result.history) >= result.best_epoch + 3


def test_single_instance_trailing_batch_is_dropped():
    # 129 proper instances with batch 128 leaves a trailing batch of one,
    # which the leave-one-out loss cannot score
    blobs = make_blobs(215, 3, 4, 8.0, make_rng(0, 3))
    proper, calib = (blobs.subset(np.arange(129)), blobs.subset(np.arange(129, 215)))
    result = train(proper, calib, TrainConfig(head=DWAC, max_epochs=3, batch_size=128))
    assert all(np.isfinite(e.mean_loss) for e in result.history)
    softmax_result = train(proper, calib, TrainConfig(head=SOFTMAX, max_epochs=3,
                                                      batch_size=128))
    assert all(np.isfinite(e.mean_loss) for e in softmax_result.history)


def test_nonfinite_loss_aborts(monkeypatch):
    blobs = make_blobs(60, 3, 4, 8.0, make_rng(1, 3))
    proper, calib = blobs.subset(np.arange(40)), blobs.subset(np.arange(40, 60))

    def bad_loss(h, y, c, sigma=0.5):
        return float("nan"), np.zeros_like(h)

    monkeypatch.setattr(trainer_mod, "dwac_batch_loss", bad_loss)
    with pytest.raises(RuntimeError, match="non-finite"):
        train(proper, calib, TrainConfig(head=DWAC, max_epochs=2, batch_size=16))


def test_predict_requires_reference_for_dwac(dwac_run):
    result, *_ = dwac_run
    with pytest.raises(ValueError):
        predict(result.model, np.zeros((2, result.model.spec.input_dim)))


def test_embed_training_set_requires_labels():
    ds = Dataset(x=np.zeros((3, 2)), y=None, num_classes=2, feature_names=("a", "b"))
    model = build_model(TrainConfig(head=DWAC), 2, 2)
    with pytest.raises(ValueError):
        embed_training_set(model, ds)


def test_splits_share_no_instances(dwac_run):
    _, proper, calib, test = dwac_run
    assert len(proper) + len(calib) + len(test) == 400
    # split indices partition the source dataset, so x rows must be disjoint
    all_rows = np.vstack([proper.x, calib.x, test.x])
    assert np.unique(all_rows, axis=0).shape[0] == 400


def test_quick_split_fractions():
    ds = make_blobs(100, 2, 3, 6.0, make_rng(5, 3))
    proper, calib, test = quick_split(ds, (0.6, 0.2, 0.2), 0)
    assert (len(proper), len(calib), len(test)) == (60, 20, 20)


@pytest.mark.parametrize("head", [DWAC, SOFTMAX])
def test_result_keeps_the_best_epochs_calibration_predictions(head):
    result, proper, calib, _ = quick_train(head, max_epochs=20, patience=3)
    assert result.best_epoch < len(result.history)  # later epochs moved the weights
    fresh_ref = embed_training_set(result.model, proper) if head == DWAC else None
    fresh = predict(result.model, calib.x, train=fresh_ref)
    kept = result.calib_predictions
    assert np.array_equal(kept.probs, fresh.probs)
    assert np.array_equal(kept.predicted, fresh.predicted)
    if head == DWAC:
        assert np.array_equal(result.embedded.h, fresh_ref.h)
        assert np.array_equal(kept.weight_sums, fresh.weight_sums)
    assert result.best_calib_accuracy == accuracy(kept, calib.y)


@pytest.mark.parametrize("head", [DWAC, SOFTMAX])
def test_flat_adam_matches_the_per_array_loop_bit_for_bit(head, monkeypatch):
    blobs = make_blobs(300, 3, 5, 6.0, make_rng(2, 3))
    proper, calib, _ = standardize_splits(*quick_split(blobs, (0.6, 0.2, 0.2), 2))
    calls = []

    def counted(params, grads, state):
        calls.append(len(params))
        return adam_step(params, grads, state)

    monkeypatch.setattr(trainer_mod, "adam_step", counted)
    config = TrainConfig(head=head, seed=3, max_epochs=3, patience=3, batch_size=32,
                         dropout_prob=0.3)
    # no calibration rows: nothing to validate on, so the last epoch is kept
    result = train(proper, calib.subset(np.arange(0)), config)
    assert result.best_epoch == 3
    # 180 proper rows: five full batches of 32 and one of 20, per epoch
    assert calls == [1] * (3 * 6)
    for got, expected in zip(result.model.parameters(),
                             train_per_array_oracle(proper, config, 3)[-1]):
        assert np.array_equal(got, expected)
