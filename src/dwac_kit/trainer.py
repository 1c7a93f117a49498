"""Minibatch training loop with early stopping on calibration accuracy.

The loop is deterministic given the config seed: one RNG stream drives
parameter init, a second drives epoch shuffling and dropout masks, so
rerunning a config reproduces the parameter trajectory bitwise.
Validation runs after every epoch; when calibration
accuracy fails to improve for ``patience`` epochs the loop stops and the
best epoch's parameters are restored. ``train_many`` trains independent
models side by side, in the caller and one forked child.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import signal
import warnings
from dataclasses import dataclass

import numpy as np

from . import heads
from .conformal import HEAD_MEASURES, calibrate
from .data import Dataset
from .heads import (
    DEFAULT_SIGMA,
    EmbeddedTrainingSet,
    Predictions,
    Predictor,
    dwac_batch_loss,
    dwac_predict,
    softmax_batch_loss,
    softmax_predict,
)
from .linalg import make_rng
from .network import (
    DWAC,
    HEADS,
    SOFTMAX,
    EmbeddingModel,
    MlpSpec,
    adam_step,
    backward,
    forward,
    init_model,
)

INIT_STREAM = 0
SHUFFLE_STREAM = 1
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, named as the CLI's keys. Each field is the one
    declaration of a setting's type, default and check; the CLI adds only
    its flag and the runs that read it (``cli.KEYS``)."""

    head: str = DWAC
    hidden: tuple[int, ...] = (32, 8)
    h_dim: int | None = None  # None: embedding width = number of classes
    dropout: float = 0.2
    sigma: float = DEFAULT_SIGMA
    learning_rate: float = 0.001
    batch_size: int = 128
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}, got {self.head!r}")
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 2 and self.head == DWAC:
            raise ValueError("dwac needs batch_size >= 2 for leave-one-out loss")
        if any(size < 1 for size in self.hidden):
            raise ValueError(f"hidden sizes must be >= 1, got {list(self.hidden)}")
        if self.h_dim is not None and self.h_dim < 1:
            raise ValueError(f"h_dim must be >= 1, got {self.h_dim}")
        for name in ("sigma", "learning_rate", "dropout"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("sigma", "learning_rate"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    calib_accuracy: float


@dataclass
class TrainResult(Predictor):
    """The head of the restored ``best_epoch`` (``history[best_epoch - 1]``):
    its model, its training sigma, its embedded proper split, and its
    calibration scores for each measure of its head
    (``conformal.HEAD_MEASURES``), from the predictions that validation made
    on the calibration split."""

    history: list[EpochStats]
    best_epoch: int
    stopped_early: bool


def build_model(config: TrainConfig, input_dim: int, num_classes: int) -> EmbeddingModel:
    """Construct an initialized model for the given data shape.

    Softmax heads force the output width to ``num_classes`` (the outputs
    are logits); dwac heads default to that width but honor ``h_dim``.
    """
    if config.head == SOFTMAX:
        out = num_classes
    else:
        out = config.h_dim if config.h_dim is not None else num_classes
    spec = MlpSpec(
        layer_sizes=(input_dim, *config.hidden, out),
        dropout_prob=config.dropout,
    )
    return init_model(spec, config.head, make_rng(config.seed, INIT_STREAM))


def embed_training_set(model: EmbeddingModel, dataset: Dataset) -> EmbeddedTrainingSet:
    """Run the full dataset through the network in eval mode and package the
    embeddings as the reference set used by dwac prediction."""
    if dataset.y is None:
        raise ValueError("cannot embed an unlabeled dataset as a training reference")
    h, _ = forward(model, dataset.x, mode="eval")
    return EmbeddedTrainingSet(h=h, labels=dataset.y, num_classes=dataset.num_classes)


def predict(predictor: Predictor, x: np.ndarray) -> Predictions:
    """Predict classes for raw (already encoded) feature rows, at the
    predictor's own kernel width."""
    h, _ = forward(predictor.model, x, mode="eval")
    if predictor.model.head == DWAC:
        return dwac_predict(h, predictor.embedded, sigma=predictor.sigma)
    return softmax_predict(h)


def train(proper: Dataset, calibration: Dataset, config: TrainConfig) -> TrainResult:
    """Fit a model on the proper training split.

    The calibration split is used only for validation accuracy and early
    stopping; its instances never contribute gradients, so it stays clean
    for conformal calibration, which scores the best epoch's predictions
    on it under each measure of the head. Both splits must be labeled, the
    calibration split nonempty, and the proper split must fill a batch:
    dwac's leave-one-out loss needs two rows.
    """
    if proper.y is None or len(proper) < (2 if config.head == DWAC else 1):
        raise ValueError(f"proper training split must be labeled and hold at least "
                         f"{2 if config.head == DWAC else 1} rows for {config.head}")
    if calibration.y is None or len(calibration) == 0:
        raise ValueError("calibration split must be nonempty and labeled")
    c = proper.num_classes
    model = build_model(config, proper.dim, c)
    rng = make_rng(config.seed, SHUFFLE_STREAM)
    # Every parameter lives in one flat vector and Adam updates it in one
    # call; Adam is elementwise, so this is bit-identical to a per-array update.
    params = model.parameters()
    shapes = [p.shape for p in params]
    bounds = np.cumsum([0, *(p.size for p in params)])
    flat = np.concatenate(params, axis=None)
    m = v = np.zeros_like(flat)
    step = 0

    n = len(proper)
    best_params = best_embedded = best_preds = None
    best_acc = -np.inf
    best_epoch = 0
    bad_epochs = 0
    history: list[EpochStats] = []
    stopped_early = False

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        used = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            # leave-one-out loss is undefined for a single instance
            if config.head == DWAC and idx.size < 2:
                continue
            xb = proper.x[idx]
            yb = proper.y[idx]
            h, cache = forward(model, xb, mode="train", rng=rng)
            if config.head == DWAC:
                loss, d_h = dwac_batch_loss(h, yb, c, sigma=config.sigma)
            else:
                loss, d_h = softmax_batch_loss(h, yb)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch} "
                    f"(batch starting at {start})"
                )
            grads = backward(model, cache, d_h)
            step += 1
            flat, m, v = adam_step(flat, np.concatenate(grads, axis=None), m, v, step,
                                   config.learning_rate)
            model.set_parameters(
                [flat[a:b].reshape(s) for a, b, s in zip(bounds, bounds[1:], shapes)]
            )
            loss_sum += loss * idx.size
            used += idx.size

        mean_loss = loss_sum / used
        ref = embed_training_set(model, proper) if config.head == DWAC else None
        preds = predict(Predictor(model, config.sigma, ref, {}), calibration.x)
        acc = float(np.mean(preds.predicted == calibration.y))
        history.append(EpochStats(epoch=epoch, mean_loss=mean_loss, calib_accuracy=acc))

        if acc > best_acc:
            best_acc = acc
            best_epoch = epoch
            best_params = model.copy_parameters()
            best_embedded, best_preds = ref, preds
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                stopped_early = True
                break

    model.set_parameters(best_params)
    return TrainResult(
        model=model,
        sigma=config.sigma,
        embedded=best_embedded,
        calibrations={m: calibrate(best_preds, calibration.y, m)
                      for m in HEAD_MEASURES[config.head]},
        history=history,
        best_epoch=best_epoch,
        stopped_early=stopped_early,
    )


def train_many(jobs: list[tuple[Dataset, Dataset, TrainConfig]]) -> list[TrainResult]:
    """``[train(*job) for job in jobs]``, trained side by side.

    With two or more jobs, another usable CPU and ``os.fork``, the caller
    trains the last job while one forked child trains the rest in order and
    pipes back their pickled results; otherwise a serial loop trains them.
    Then each job's epochs are logged at DEBUG from its history, in job order.
    The first failed job's exception is raised; no child outlives the call.
    """
    if len(jobs) > 1 and heads.usable_cpus() > 1 and hasattr(os, "fork"):
        results = _beside_a_child(jobs)
    else:
        results = [train(*job) for job in jobs]
    for (_, _, config), result in zip(jobs, results):
        for e in result.history:
            log.debug("head=%s epoch=%d mean_loss=%.4f calib_acc=%.4f", config.head, e.epoch,
                      e.mean_loss, e.calib_accuracy)
    return results


def _beside_a_child(jobs: list[tuple]) -> list[TrainResult]:
    """Train the last job here while a forked child trains the rest."""
    read, write = os.pipe()
    with open(read, "rb") as pipe:
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns in the parent when the process has more than
                # one thread. None here is a Python thread (kernel_blocks joins its
                # helpers before it returns); OpenBLAS's pool is joined by its own
                # pthread_atfork prepare handler.
                warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _child(jobs[:-1], write)
        finally:
            os.close(write)
        try:
            mine = _outcome(jobs[-1:])
            payload = pipe.read()
        except BaseException:  # an interrupt, say: end the child, do not await it
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        theirs = pickle.loads(payload)
    except (pickle.UnpicklingError, EOFError):  # empty or cut short: the child died writing
        theirs = RuntimeError(f"a training process ended without a result (exit code {code})")
    for outcome in (theirs, mine):  # the child's jobs come first
        if isinstance(outcome, Exception):
            raise outcome
    return theirs + mine


def _outcome(jobs: list[tuple]) -> list[TrainResult] | Exception:
    """The results of ``jobs`` trained in order, or the exception that ended it."""
    try:
        return [train(*job) for job in jobs]
    except Exception as e:
        return e


def _child(jobs: list[tuple], write: int) -> None:
    """Train ``jobs`` in a forked child and pipe back the pickled outcome. The
    process ends here on every path, so it never runs the caller's code."""
    try:
        with open(write, "wb") as f:
            try:
                f.write(pickle.dumps(_outcome(jobs)))
            except Exception as e:  # an outcome that does not pickle
                f.write(pickle.dumps(RuntimeError(f"cannot send a training result: {e}")))
    finally:
        os._exit(0)
