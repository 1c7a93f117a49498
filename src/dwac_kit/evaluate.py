"""Accuracy, adaptive-binning calibration error, and out-of-domain studies.

Calibration MAE pools all (instance, class) probability/indicator pairs,
sorts by predicted probability, and cuts equal-count bins so every bin is
equally well populated regardless of how probabilities cluster. The two
OOD protocols score credibility (max conformal p-value) on data the model
never saw the likes of: either a class held out of training entirely, or
a width-matched foreign dataset. Training and the hold-out study split
their data the same way, by :func:`trial_splits`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .conformal import calibrate, conformal_predict
from .data import CsvData, Dataset, encode_rows, fit_stats, label_codes
from .heads import DEFAULT_SIGMA, EmbeddedTrainingSet, Predictions
from .linalg import make_rng, shuffle_split
from .network import DWAC, EmbeddingModel
from .trainer import TrainResult, predict

SPLIT_STREAM = 2
HIST_BINS = 20


def accuracy(predictions, labels: np.ndarray) -> float:
    """Fraction of instances whose predicted label matches; accepts either a
    Predictions batch or a plain vector of predicted labels."""
    predicted = predictions.predicted if isinstance(predictions, Predictions) else predictions
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    if predicted.shape != labels.shape:
        raise ValueError("predictions and labels must align")
    if predicted.size == 0:
        raise ValueError("accuracy of an empty set is undefined")
    return float(np.mean(predicted == labels))


def calibration_mae(probs: np.ndarray, labels: np.ndarray, per_bin: int = 100) -> float:
    """Mean absolute calibration error with equal-count adaptive bins.

    All n*c (probability, is-true-class) pairs are pooled and sorted by
    probability; consecutive runs of ``per_bin`` pairs form bins (the last
    bin absorbs the remainder, and fewer than ``2 * per_bin`` pairs total
    fall back to a single bin). The error averages |mean probability -
    frequency| over bins. It is NaN when there is a single bin: the pooled
    rows sum to 1, so one bin's mean probability equals its frequency and
    would always score 0.
    """
    if per_bin < 10:
        raise ValueError(f"per_bin must be >= 10, got {per_bin}")
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or labels.shape != (probs.shape[0],):
        raise ValueError("probs must be (n, c) with aligned labels")
    if probs.size == 0:
        raise ValueError("calibration error of an empty set is undefined")
    total = probs.size
    num_bins = total // per_bin
    if num_bins < 2:
        return float("nan")
    flat_p = probs.ravel()
    flat_hit = (labels[:, None] == np.arange(probs.shape[1])).ravel().astype(np.float64)
    order = np.argsort(flat_p, kind="stable")
    flat_p = flat_p[order]
    flat_hit = flat_hit[order]
    errors = np.empty(num_bins)
    for b in range(num_bins):
        lo = b * per_bin
        hi = (b + 1) * per_bin if b < num_bins - 1 else total
        errors[b] = abs(float(np.mean(flat_p[lo:hi])) - float(np.mean(flat_hit[lo:hi])))
    return float(np.mean(errors))


@dataclass
class OodReport:
    """Credibility samples for in-domain and out-of-domain data, with their
    means and matching 20-bin histograms on [0, 1]."""

    measure: str
    in_domain: np.ndarray
    out_of_domain: np.ndarray
    in_mean: float
    out_mean: float
    hist_edges: np.ndarray
    in_counts: np.ndarray
    out_counts: np.ndarray


def _ood_report(measure: str, in_cred: np.ndarray, out_cred: np.ndarray) -> OodReport:
    in_counts, edges = np.histogram(in_cred, bins=HIST_BINS, range=(0.0, 1.0))
    out_counts, _ = np.histogram(out_cred, bins=HIST_BINS, range=(0.0, 1.0))
    return OodReport(
        measure=measure,
        in_domain=in_cred,
        out_of_domain=out_cred,
        in_mean=float(np.mean(in_cred)),
        out_mean=float(np.mean(out_cred)),
        hist_edges=edges,
        in_counts=in_counts,
        out_counts=out_counts,
    )


def _holdout_remap(labels: np.ndarray, num_classes: int, held_class: int) -> np.ndarray:
    """Old label -> dense label of the remaining classes in ascending order,
    and -1 for the held class, which must have rows."""
    if not 0 <= held_class < num_classes:
        raise ValueError(f"held_class {held_class} out of range 0..{num_classes - 1}")
    if not np.any(labels == held_class):
        raise ValueError(f"class {held_class} has no instances")
    remap = np.full(num_classes, -1, dtype=np.int64)
    remap[np.arange(num_classes) != held_class] = np.arange(num_classes - 1)
    return remap


def trial_splits(
    data: CsvData,
    seed: int,
    fractions: tuple[float, ...],
    fixed_test: CsvData | None = None,
    held_class: int | None = None,
) -> tuple[Dataset, ...]:
    """The sets of one trial, one per fraction (proper, calibration and
    test), encoded with stats fitted on the proper set only.

    The rows are split with the ``SPLIT_STREAM`` generator of ``seed``. With
    ``fixed_test``, ``data`` is split proper/calibration only (the first two
    fractions, renormalized) and ``fixed_test`` is the test set. With
    ``held_class``, that class's rows are dropped before the split, the rest
    are relabeled densely (0..c-2 in ascending original order, so the
    trained head stays minimal), and the held rows follow as a last,
    unlabeled set; a hold-out study takes no fixed test set. Each row is
    encoded once, with moments and vocabularies from the proper rows.
    """
    if held_class is not None and data.num_classes < 3:
        raise ValueError("hold-out protocol needs >= 3 classes so training stays multiclass")
    if fixed_test is not None:
        if held_class is not None:
            raise ValueError("a hold-out study takes no fixed test set")
        a, b = fractions[0], fractions[1]
        fractions = (a / (a + b), b / (a + b))
    rng = make_rng(seed, SPLIT_STREAM)
    table, schema = data.table, data.schema
    if held_class is None:
        parts = shuffle_split(len(data), fractions, rng)
    else:
        if not data.has_labels:
            raise ValueError(f"{table.path}: hold-out protocol needs labels")
        labels = label_codes(table, schema)
        remap = _holdout_remap(labels, schema.num_classes, held_class)
        kept = np.flatnonzero(labels != held_class)
        parts = [kept[p] for p in shuffle_split(kept.size, fractions, rng)]
    stats = fit_stats(table, schema, index=parts[0])
    sets = [encode_rows(table, schema, stats, data.has_labels, index=p) for p in parts]
    if fixed_test is not None:
        sets.append(encode_rows(fixed_test.table, schema, stats, fixed_test.has_labels))
    if held_class is None:
        return tuple(sets)
    held = encode_rows(table, schema, stats, has_labels=False,
                       index=np.flatnonzero(labels == held_class))
    return (*(replace(ds, y=remap[ds.y], num_classes=ds.num_classes - 1) for ds in sets),
            replace(held, num_classes=held.num_classes - 1))


def ood_holdout_class_multi(
    splits: tuple[Dataset, Dataset, Dataset, Dataset],
    result: TrainResult,
    measures: list[str],
    sigma: float = DEFAULT_SIGMA,
) -> dict[str, OodReport]:
    """Hold-out protocol scored under several measures.

    ``splits`` are the proper, calibration, test and held-out sets that
    :func:`trial_splits` makes with ``held_class``, so every head of a study
    can share one split, and ``result`` is a model trained on the first two.
    It is conformally calibrated, and credibility is scored for the
    in-domain test split and every held-out instance.
    """
    _, calib, test, held = splits
    calibrations = {m: calibrate(result.calib_predictions, calib.y, m) for m in measures}
    return ood_cross_dataset(result.model, result.embedded, calibrations, test, held, sigma)


def ood_cross_dataset(
    model: EmbeddingModel,
    train_set: EmbeddedTrainingSet | None,
    calibrations: dict[str, np.ndarray],
    in_domain: Dataset,
    foreign: Dataset,
    sigma: float = DEFAULT_SIGMA,
) -> dict[str, OodReport]:
    """Credibility of a foreign dataset against an already-trained model,
    with an in-domain dataset as the reference distribution, under each
    measure of ``calibrations`` (measure -> sorted calibration scores). Each
    dataset is predicted once for all measures. The foreign data only has to
    match the encoded feature width."""
    if not calibrations:
        raise ValueError("need at least one nonconformity measure")
    if len(foreign) == 0:
        raise ValueError("foreign dataset is empty")
    if foreign.dim != in_domain.dim:
        raise ValueError(
            f"feature width mismatch: foreign {foreign.dim}, in-domain {in_domain.dim}"
        )
    if model.head == DWAC and train_set is None:
        raise ValueError("dwac model needs its embedded training set")
    in_preds = predict(model, in_domain.x, train=train_set, sigma=sigma)
    out_preds = predict(model, foreign.x, train=train_set, sigma=sigma)
    reports = {}
    for measure, scores in calibrations.items():
        in_cred = conformal_predict(in_preds, scores, measure).credibility()
        out_cred = conformal_predict(out_preds, scores, measure).credibility()
        reports[measure] = _ood_report(measure, in_cred, out_cred)
    return reports
