"""Minibatch training loop with early stopping on calibration accuracy.

The loop is deterministic given the config seed: one RNG stream drives
parameter init, a second drives epoch shuffling and dropout masks, so
rerunning a config reproduces the parameter trajectory bitwise.
Validation runs after every epoch; when calibration
accuracy fails to improve for ``patience`` epochs the loop stops and the
best epoch's parameters are restored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .heads import (
    DEFAULT_SIGMA,
    EmbeddedTrainingSet,
    Predictions,
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
    AdamState,
    EmbeddingModel,
    MlpSpec,
    adam_step,
    backward,
    forward,
    init_model,
)

INIT_STREAM = 0
SHUFFLE_STREAM = 1


@dataclass(frozen=True)
class TrainConfig:
    head: str = DWAC
    hidden_sizes: tuple[int, ...] = (32, 8)
    h_dim: int | None = None  # None: embedding width = number of classes
    dropout_prob: float = 0.2
    sigma: float = DEFAULT_SIGMA
    learning_rate: float = 0.001
    batch_size: int = 128
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}, got {self.head!r}")
        if self.batch_size < 2 and self.head == DWAC:
            raise ValueError("dwac needs batch_size >= 2 for leave-one-out loss")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs, and patience must be positive")
        if self.sigma <= 0.0 or self.learning_rate <= 0.0:
            raise ValueError("sigma and learning_rate must be > 0")


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    calib_accuracy: float


@dataclass
class TrainResult:
    """The trained model with what validation already computed for it:
    ``embedded`` is its embedded proper split (dwac only) and
    ``calib_predictions`` its predictions on the calibration split."""

    model: EmbeddingModel
    embedded: EmbeddedTrainingSet | None
    calib_predictions: Predictions
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_calib_accuracy: float = float("nan")
    stopped_early: bool = False


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
        layer_sizes=(input_dim, *config.hidden_sizes, out),
        dropout_prob=config.dropout_prob,
    )
    return init_model(spec, config.head, make_rng(config.seed, INIT_STREAM))


def embed_training_set(model: EmbeddingModel, dataset: Dataset) -> EmbeddedTrainingSet:
    """Run the full dataset through the network in eval mode and package the
    embeddings as the reference set used by dwac prediction."""
    if dataset.y is None:
        raise ValueError("cannot embed an unlabeled dataset as a training reference")
    h, _ = forward(model, dataset.x, mode="eval")
    return EmbeddedTrainingSet(h=h, labels=dataset.y, num_classes=dataset.num_classes)


def predict(
    model: EmbeddingModel,
    x: np.ndarray,
    train: EmbeddedTrainingSet | None = None,
    sigma: float = DEFAULT_SIGMA,
) -> Predictions:
    """Predict classes for raw (already encoded) feature rows."""
    h, _ = forward(model, x, mode="eval")
    if model.head == DWAC:
        if train is None:
            raise ValueError("dwac prediction needs an embedded training set")
        return dwac_predict(h, train, sigma=sigma)
    return softmax_predict(h)


def train(proper: Dataset, calibration: Dataset, config: TrainConfig) -> TrainResult:
    """Fit a model on the proper training split.

    The calibration split is used only for validation accuracy and early
    stopping; its instances never contribute gradients, so it stays clean
    for conformal calibration afterwards.
    """
    if len(proper) == 0 or proper.y is None:
        raise ValueError("proper training split must be nonempty and labeled")
    c = proper.num_classes
    model = build_model(config, proper.dim, c)
    rng = make_rng(config.seed, SHUFFLE_STREAM)
    # Every parameter lives in one flat vector and Adam updates it in one
    # call; Adam is elementwise, so this is bit-identical to a per-array update.
    params = model.parameters()
    shapes = [p.shape for p in params]
    bounds = np.cumsum([0, *(p.size for p in params)])
    flat = np.concatenate(params, axis=None)
    adam = AdamState.for_parameters([flat], learning_rate=config.learning_rate)

    n = len(proper)
    best_params = model.copy_parameters()
    best_embedded, best_preds = None, None
    best_acc = -np.inf
    best_epoch = 0
    bad_epochs = 0
    validate = len(calibration) > 0 and calibration.y is not None
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
            (flat,), adam = adam_step([flat], [np.concatenate(grads, axis=None)], adam)
            model.set_parameters(
                [flat[a:b].reshape(s) for a, b, s in zip(bounds, bounds[1:], shapes)]
            )
            loss_sum += loss * idx.size
            used += idx.size

        mean_loss = loss_sum / used if used else float("nan")
        if validate:
            ref = embed_training_set(model, proper) if config.head == DWAC else None
            preds = predict(model, calibration.x, train=ref, sigma=config.sigma)
            acc = float(np.mean(preds.predicted == calibration.y))
        else:
            acc = float("nan")
        history.append(EpochStats(epoch=epoch, mean_loss=mean_loss, calib_accuracy=acc))

        if validate:
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
        else:
            best_epoch = epoch
            best_params = model.copy_parameters()

    model.set_parameters(best_params)
    if not validate:  # an empty or unlabeled calibration split
        best_embedded = embed_training_set(model, proper) if config.head == DWAC else None
        best_preds = predict(model, calibration.x, train=best_embedded, sigma=config.sigma)
    return TrainResult(
        model=model,
        embedded=best_embedded,
        calib_predictions=best_preds,
        history=history,
        best_epoch=best_epoch,
        best_calib_accuracy=float(best_acc) if validate else float("nan"),
        stopped_early=stopped_early,
    )
