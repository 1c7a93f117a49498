from __future__ import annotations

import os
import time

import numpy as np
import pytest

import dwac_kit.trainer as trainer_mod
from dwac_kit import Dataset, TrainConfig, blob_data, make_blobs, make_rng
from dwac_kit.cli import main
from dwac_kit.evaluate import accuracy, trial_splits
from dwac_kit.network import DWAC, SOFTMAX, adam_step
from dwac_kit.trainer import (
    build_model,
    embed_training_set,
    predict,
    train,
    train_many,
)
from helpers import (
    assert_one_error_line,
    quick_split,
    quick_train,
    subset,
    train_per_array_oracle,
    use_cpus,
    write_csv_data,
)


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
    proper, calib = subset(blobs, np.arange(129)), subset(blobs, np.arange(129, 215))
    result = train(proper, calib, TrainConfig(head=DWAC, max_epochs=3, batch_size=128))
    assert all(np.isfinite(e.mean_loss) for e in result.history)
    softmax_result = train(proper, calib, TrainConfig(head=SOFTMAX, max_epochs=3,
                                                      batch_size=128))
    assert all(np.isfinite(e.mean_loss) for e in softmax_result.history)


def test_nonfinite_loss_aborts(monkeypatch):
    blobs = make_blobs(60, 3, 4, 8.0, make_rng(1, 3))
    proper, calib = subset(blobs, np.arange(40)), subset(blobs, np.arange(40, 60))

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
    proper, calib, _ = trial_splits(blob_data(blobs), 2, (0.6, 0.2, 0.2))
    calls = []

    def counted(p, g, m, v, step, learning_rate):
        calls.append((p.ndim, step))
        return adam_step(p, g, m, v, step, learning_rate)

    monkeypatch.setattr(trainer_mod, "adam_step", counted)
    config = TrainConfig(head=head, seed=3, max_epochs=3, patience=3, batch_size=32,
                         dropout_prob=0.3)
    # no calibration rows: nothing to validate on, so the last epoch is kept
    result = train(proper, subset(calib, np.arange(0)), config)
    assert result.best_epoch == 3
    # 180 proper rows: five full batches of 32 and one of 20, per epoch
    # one update of the whole flat vector per batch, its steps counted from 1
    assert calls == [(1, step) for step in range(1, 3 * 6 + 1)]
    for got, expected in zip(result.model.parameters(),
                             train_per_array_oracle(proper, config, 3)[-1]):
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# train_many: jobs side by side, one forked child per other usable CPU
# ---------------------------------------------------------------------------

FAST = ["--max-epochs", "30", "--batch-size", "64"]


@pytest.fixture
def no_child_left():
    """Fails the test if any child process of this one is left, running or
    unreaped, once it ends."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls made in this process."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _assert_same_result(a, b) -> None:
    for pa, pb in zip(a.model.parameters(), b.model.parameters(), strict=True):
        assert np.array_equal(pa, pb)
    # NaN calibration accuracies (no calibration rows) compare equal here
    assert np.array_equal([(e.epoch, e.mean_loss, e.calib_accuracy) for e in a.history],
                          [(e.epoch, e.mean_loss, e.calib_accuracy) for e in b.history],
                          equal_nan=True)
    assert np.array_equal(a.best_calib_accuracy, b.best_calib_accuracy, equal_nan=True)
    assert (a.best_epoch, a.stopped_early) == (b.best_epoch, b.stopped_early)
    assert np.array_equal(a.calib_predictions.probs, b.calib_predictions.probs)
    assert (a.embedded is None) == (b.embedded is None)
    if a.embedded is not None:
        assert np.array_equal(a.embedded.h, b.embedded.h)
        assert np.array_equal(a.embedded.labels, b.embedded.labels)


def test_train_many_equals_serial_training_bit_for_bit(monkeypatch, forks, no_child_left):
    blobs = make_blobs(300, 3, 5, 6.0, make_rng(4, 3))
    proper, calib, _ = trial_splits(blob_data(blobs), 4, (0.6, 0.2, 0.2))
    jobs = [(proper, calib, TrainConfig(head=head, seed=seed, max_epochs=6, batch_size=32))
            for seed in (1, 2) for head in (SOFTMAX, DWAC)]
    jobs.append((proper, subset(calib, np.arange(0)), TrainConfig(max_epochs=3)))
    serial = [train(*job) for job in jobs]
    # three CPUs, five jobs: two children train two jobs each, the caller the last
    use_cpus(monkeypatch, 3)
    side_by_side = train_many(jobs)
    assert len(forks) == 2
    assert len(side_by_side) == len(serial)
    for a, b in zip(side_by_side, serial):
        _assert_same_result(a, b)


@pytest.mark.parametrize("kind", ["blobs", "csv"])
def test_cli_outputs_do_not_depend_on_the_cpu_count(kind, tmp_path, monkeypatch, forks,
                                                    no_child_left):
    if kind == "blobs":
        data = ["--data", "blobs:n=300,c=3,d=3,sep=8,seed=2"]
    else:
        path, schema = write_csv_data(tmp_path)
        data = ["--data", path, "--schema", schema]
    outputs = []
    for n in (1, 2, 3):
        use_cpus(monkeypatch, n)
        forks.clear()
        out = tmp_path / f"cpus{n}"
        assert main(["train", *data, "--head", "both", "--trials", "2",
                     "--out", str(out / "train"), *FAST]) == 0
        assert main(["ood", *data, "--held-class", "2", "--head", "both",
                     "--out", str(out / "ood"), *FAST]) == 0
        # one child per trial and one for the study: the softmax heads
        assert len(forks) == (0 if n == 1 else 3)
        outputs.append({str(p.relative_to(out)): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()})
    # 2 x 2 models and histories and a summary; 3 histograms and a summary
    assert len(outputs[0]) == 9 + 4
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_a_failure_in_a_forked_job_is_one_error_line(tmp_path, monkeypatch, capsys,
                                                     no_child_left):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()

    def fails_in_the_child(*job):
        if os.getpid() != caller:
            raise ValueError("raised in the child")
        return train(*job)

    monkeypatch.setattr(trainer_mod, "train", fails_in_the_child)
    capsys.readouterr()
    assert main(["train", "--data", "blobs:n=200,c=3,d=3,sep=8", "--head", "both",
                 "--out", str(tmp_path / "t"), *FAST]) == 2
    assert assert_one_error_line(capsys) == "error: raised in the child"


def test_a_child_that_ends_without_a_result_is_one_error_line(tmp_path, monkeypatch, capsys,
                                                              no_child_left):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()

    def exits_in_the_child(*job):
        if os.getpid() != caller:
            os._exit(3)
        return train(*job)

    monkeypatch.setattr(trainer_mod, "train", exits_in_the_child)
    capsys.readouterr()
    assert main(["ood", "--data", "blobs:n=200,c=3,d=3,sep=8", "--held-class", "0",
                 "--head", "both", "--out", str(tmp_path / "o"), *FAST]) == 2
    assert assert_one_error_line(capsys) == (
        "error: a training process ended without a result (exit code 3)")


def test_the_first_failed_job_is_the_error_raised(monkeypatch, no_child_left):
    use_cpus(monkeypatch, 2)

    def fails(tag, *rest):
        raise ValueError(tag)

    monkeypatch.setattr(trainer_mod, "train", fails)
    # the child's job comes first, whichever process fails first
    with pytest.raises(ValueError, match="^first$"):
        train_many([("first", None, None), ("second", None, None)])


def test_children_are_ended_when_the_caller_is_interrupted(monkeypatch, no_child_left):
    use_cpus(monkeypatch, 2)
    caller = os.getpid()

    class Interrupt(BaseException):
        pass

    def slow_child_then_interrupt(*job):
        if os.getpid() != caller:
            time.sleep(60)
        raise Interrupt

    monkeypatch.setattr(trainer_mod, "train", slow_child_then_interrupt)
    start = time.monotonic()
    with pytest.raises(Interrupt):
        train_many([(None, None, None)] * 2)
    assert time.monotonic() - start < 30  # the sleeping child was killed, not awaited


def test_forked_jobs_run_under_the_callers_errstate(monkeypatch, no_child_left):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(trainer_mod, "train", lambda *job: (os.getpid(), np.geterr()))
    with np.errstate(over="raise", invalid="warn", divide="ignore", under="print"):
        expected = np.geterr()
        (child, in_child), (caller, in_caller) = train_many([(None, None, None)] * 2)
    assert child != caller == os.getpid()
    assert in_child == in_caller == expected
