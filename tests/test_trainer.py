from __future__ import annotations

import os
import pickle
import time
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import dwac_kit.trainer as trainer_mod
from dwac_kit import (
    Dataset,
    ModelArtifact,
    Predictor,
    TrainConfig,
    blob_data,
    dwac_predict,
    explain_with_agreement,
    load_model,
    make_blobs,
    make_rng,
    save_model,
)
from dwac_kit.cli import main
from dwac_kit.conformal import HEAD_MEASURES, NEG_PROB, calibrate, conformal_predict
from dwac_kit.evaluate import accuracy, trial_splits
from dwac_kit.network import DWAC, SOFTMAX, adam_step, forward
from dwac_kit.trainer import (
    build_model,
    embed_training_set,
    predict,
    train,
    train_many,
)
from helpers import (
    assert_one_error_line,
    decode_lines,
    quick_split,
    quick_train,
    subset,
    train_per_array_oracle,
    use_cpus,
    write_csv_data,
)


def test_build_model_widths():
    cfg = TrainConfig(head=SOFTMAX, hidden=(8, 4), h_dim=7)
    model = build_model(cfg, input_dim=5, num_classes=3)
    assert model.spec.layer_sizes == (5, 8, 4, 3)  # softmax ignores h_dim

    cfg = TrainConfig(head=DWAC, hidden=(8, 4), h_dim=7)
    model = build_model(cfg, input_dim=5, num_classes=3)
    assert model.spec.layer_sizes == (5, 8, 4, 7)

    cfg = TrainConfig(head=DWAC, hidden=(8, 4))
    assert build_model(cfg, 5, 3).spec.layer_sizes == (5, 8, 4, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(head="logistic")
    with pytest.raises(ValueError):
        TrainConfig(head=DWAC, batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    # each setting is refused under its own name, the CLI's key
    for key, value in (("dropout", 1.0), ("dropout", -0.1), ("hidden", (8, 0)), ("h_dim", 0),
                       ("sigma", 0.0), ("learning_rate", float("nan")), ("patience", 0),
                       ("seed", -1)):
        with pytest.raises(ValueError, match=f"^{key} "):
            TrainConfig(**{key: value})


def test_training_learns_blobs(dwac_run, softmax_run):
    for (result, _, _, test) in (dwac_run, softmax_run):
        preds = predict(result, test.x)
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
    assert result.history[result.best_epoch - 1].calib_accuracy == best
    ref = embed_training_set(result.model, proper)
    preds = predict(Predictor(result.model, result.sigma, ref, {}), calib.x)
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
    with pytest.raises(ValueError, match="embedded training set"):
        Predictor(result.model, result.sigma, None, {})


def test_predict_scores_a_row_alone_as_in_its_batch(dwac_run):
    result, _, _, test = dwac_run
    full = predict(result, test.x)
    alone = predict(result, test.x[:1])
    assert alone.probs.tobytes() == full.probs[:1].tobytes()
    assert alone.weight_sums.tobytes() == full.weight_sums[:1].tobytes()


def test_a_head_scores_at_the_width_it_was_trained_at(tmp_path):
    # the README example's data, trained at sigma 4: every scorer, and a
    # saved and reloaded artifact, must score at 4 and not at the default 0.5
    blobs = blob_data(make_blobs(600, 4, 8, 3.0, make_rng(0, 3)))
    proper, calib, test = trial_splits(blobs, 0, (0.6, 0.2, 0.2))
    result = train(proper, calib, TrainConfig(head=DWAC, sigma=4.0, seed=0, max_epochs=20))
    assert result.sigma == 4.0
    h, _ = forward(result.model, test.x, mode="eval")
    trained, default = (dwac_predict(h, result.embedded, sigma=s) for s in (4.0, 0.5))
    assert not np.array_equal(trained.predicted, default.predicted)
    at_default = replace(result, sigma=0.5)

    for head in (result, at_default):
        expected = trained if head is result else default
        preds = predict(head, test.x)
        assert preds.probs.tobytes() == expected.probs.tobytes()
        assert preds.weight_sums.tobytes() == expected.weight_sums.tobytes()

    labels = {head.sigma: [e["predicted_label"] for e in decode_lines(
        explain_with_agreement(test.x, head, k=5, k_list=(1,))[0])]
        for head in (result, at_default)}
    assert labels == {4.0: trained.predicted.tolist(), 0.5: default.predicted.tolist()}

    foreign = Dataset(x=test.x.cont + 3.0, y=None, num_classes=test.num_classes)
    h_foreign, _ = forward(result.model, foreign.x, mode="eval")

    def credibility(head, ds, measure):
        return conformal_predict(predict(head, ds.x), head.calibrations[measure],
                                 measure).credibility()

    for head in (result, at_default):
        in_preds, out_preds = (dwac_predict(x, result.embedded, sigma=head.sigma)
                               for x in (h, h_foreign))
        assert list(head.calibrations) == list(HEAD_MEASURES[DWAC])
        for measure, scores in result.calibrations.items():
            assert np.array_equal(credibility(head, test, measure),
                                  conformal_predict(in_preds, scores, measure).credibility())
            assert np.array_equal(credibility(head, foreign, measure),
                                  conformal_predict(out_preds, scores, measure).credibility())
    assert not np.array_equal(credibility(result, test, NEG_PROB),
                              credibility(at_default, test, NEG_PROB))

    path = str(tmp_path / "model.json")
    save_model(ModelArtifact.of(result, blobs.schema, proper.stats), path)
    loaded = load_model(path)
    assert loaded.sigma == 4.0
    assert predict(loaded, test.x).probs.tobytes() == trained.probs.tobytes()


def test_embed_training_set_requires_labels():
    ds = Dataset(x=np.zeros((3, 2)), y=None, num_classes=2)
    model = build_model(TrainConfig(head=DWAC), 2, 2)
    with pytest.raises(ValueError):
        embed_training_set(model, ds)


def test_splits_share_no_instances(dwac_run):
    _, proper, calib, test = dwac_run
    assert len(proper) + len(calib) + len(test) == 400
    # split indices partition the source dataset, so x rows must be disjoint
    all_rows = np.vstack([proper.x.cont, calib.x.cont, test.x.cont])
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
    fresh = predict(Predictor(result.model, result.sigma, fresh_ref, {}), calib.x)
    assert list(result.calibrations) == list(HEAD_MEASURES[head])
    for measure, kept in result.calibrations.items():
        assert np.array_equal(kept, calibrate(fresh, calib.y, measure))
    if head == DWAC:
        assert np.array_equal(result.embedded.h, fresh_ref.h)
    assert result.history[result.best_epoch - 1].calib_accuracy == accuracy(fresh, calib.y)


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
                         dropout=0.3)
    result = train(proper, calib, config)
    assert 1 <= result.best_epoch <= 3 and not result.stopped_early
    # 180 proper rows: five full batches of 32 and one of 20, per epoch
    # one update of the whole flat vector per batch, its steps counted from 1
    assert calls == [(1, step) for step in range(1, 3 * 6 + 1)]
    # validation draws nothing from the shuffle stream, so the restored best
    # epoch's parameters are the oracle's after that epoch
    for got, expected in zip(result.model.parameters(),
                             train_per_array_oracle(proper, config, 3)[result.best_epoch - 1],
                             strict=True):
        assert np.array_equal(got, expected)


def test_train_refuses_splits_it_cannot_validate_or_fit():
    blobs = make_blobs(100, 2, 3, 6.0, make_rng(5, 3))
    proper, calib, _ = trial_splits(blob_data(blobs), 0, (0.6, 0.2, 0.2))
    config = TrainConfig(max_epochs=1)
    for bad in (subset(calib, np.arange(0)), replace(calib, y=None)):
        with pytest.raises(ValueError, match="^calibration split must be nonempty and labeled$"):
            train(proper, bad, config)
    # one proper row leaves dwac's leave-one-out loss no pair: every batch would be skipped
    one = subset(proper, np.arange(1))
    with pytest.raises(ValueError, match="at least 2 rows for dwac$"):
        train(one, calib, replace(config, head=DWAC))
    assert len(train(one, calib, replace(config, head=SOFTMAX)).history) == 1


# ---------------------------------------------------------------------------
# train_many: the last job in the caller, the others in one forked child
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
    assert a.history == b.history
    assert (a.best_epoch, a.stopped_early) == (b.best_epoch, b.stopped_early)
    assert a.calibrations.keys() == b.calibrations.keys()
    for measure, scores in a.calibrations.items():
        assert np.array_equal(scores, b.calibrations[measure])
    assert (a.embedded is None) == (b.embedded is None)
    if a.embedded is not None:
        assert np.array_equal(a.embedded.h, b.embedded.h)
        assert np.array_equal(a.embedded.labels, b.embedded.labels)


def test_train_many_equals_serial_training_bit_for_bit(monkeypatch, forks, no_child_left):
    blobs = make_blobs(300, 3, 5, 6.0, make_rng(4, 3))
    proper, calib, _ = trial_splits(blob_data(blobs), 4, (0.6, 0.2, 0.2))
    jobs = [(proper, calib, TrainConfig(head=head, seed=seed, max_epochs=6, batch_size=32))
            for seed in (1, 2) for head in (SOFTMAX, DWAC)]
    jobs.append((proper, calib, TrainConfig(max_epochs=3)))
    serial = [train(*job) for job in jobs]
    # three CPUs: one child trains all jobs but the last, the caller the last
    use_cpus(monkeypatch, 3)
    for count in (2, 3, 5):
        forks.clear()
        side_by_side = train_many(jobs[:count])
        assert len(forks) == 1
        for a, b in zip(side_by_side, serial[:count], strict=True):
            _assert_same_result(a, b)


def test_the_multi_threaded_fork_warning_neither_raises_nor_leaves_a_child(
        monkeypatch, capfd, no_child_left):
    # From Python 3.12 os.fork warns in the parent, once the child exists,
    # when the process has more than one thread; raised as an error there,
    # the child would never be recorded, and so never ended nor reaped
    fork, children = os.fork, []

    def warns_in_the_parent():
        pid = fork()
        if pid:
            children.append(pid)
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    blobs = make_blobs(200, 3, 3, 8.0, make_rng(6, 3))
    proper, calib, _ = trial_splits(blob_data(blobs), 6, (0.6, 0.2, 0.2))
    jobs = [(proper, calib, TrainConfig(head=head, seed=1, max_epochs=4, batch_size=32))
            for head in (SOFTMAX, DWAC)]
    serial = [train(*job) for job in jobs]
    monkeypatch.setattr(os, "fork", warns_in_the_parent)
    use_cpus(monkeypatch, 2)
    capfd.readouterr()
    side_by_side = train_many(jobs)
    assert len(children) == 1 and capfd.readouterr().err == ""
    for a, b in zip(side_by_side, serial, strict=True):
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


def test_a_child_cut_off_while_it_writes_its_result_is_one_error_line(
        tmp_path, monkeypatch, capsys, no_child_left):
    use_cpus(monkeypatch, 2)
    caller, dumps = os.getpid(), pickle.dumps

    def half_in_the_child(obj):
        data = dumps(obj)
        return data if os.getpid() == caller else data[:len(data) // 2]

    monkeypatch.setattr(pickle, "dumps", half_in_the_child)
    capsys.readouterr()
    assert main(["train", "--data", "blobs:n=200,c=3,d=3,sep=8", "--head", "both",
                 "--out", str(tmp_path / "t"), *FAST]) == 2
    assert assert_one_error_line(capsys) == (
        "error: a training process ended without a result (exit code 0)")


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
    monkeypatch.setattr(trainer_mod, "train", lambda *job: SimpleNamespace(
        pid=os.getpid(), errstate=np.geterr(), history=[]))
    with np.errstate(over="raise", invalid="warn", divide="ignore", under="print"):
        expected = np.geterr()
        child, caller = train_many([(None, None, None)] * 2)
    assert child.pid != caller.pid == os.getpid()
    assert child.errstate == caller.errstate == expected
