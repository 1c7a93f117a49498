"""Accuracy, adaptive-binning calibration error, and out-of-domain studies.

Calibration MAE pools all (instance, class) probability/indicator pairs,
sorts by predicted probability, and cuts equal-count bins so every bin is
equally well populated regardless of how probabilities cluster. The two
OOD protocols score credibility (max conformal p-value) on data the model
never saw the likes of: either a class held out of training entirely, or
a width-matched foreign dataset. Both score by :func:`credibility`, a
batch of rows at a time, with a ``TrainResult`` or a saved artifact as the
predictor; :func:`ood_cross_dataset` scores two whole datasets.
Training and the hold-out study split their data the same way, by
:func:`trial_splits`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .conformal import conformal_predict
from .data import CsvData, Dataset, encode_rows, fit_stats, label_codes
from .heads import Predictions, Predictor
from .linalg import make_rng, shuffle_split, split_sizes
from .trainer import predict

SPLIT_STREAM = 2
PER_BIN = 100  # (probability, indicator) pairs per calibration bin


def accuracy(predictions: Predictions, labels: np.ndarray) -> float:
    """Fraction of instances whose predicted label matches."""
    labels = np.asarray(labels)
    if predictions.predicted.shape != labels.shape:
        raise ValueError("predictions and labels must align")
    if labels.size == 0:
        raise ValueError("accuracy of an empty set is undefined")
    return float(np.mean(predictions.predicted == labels))


def calibration_mae(probs: np.ndarray, labels: np.ndarray, per_bin: int = PER_BIN) -> float:
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
    encoded once, with moments and vocabularies from the proper rows. The
    data and a fixed test set must be labeled, and no set may be empty:
    the error names the data, its row count and the set left empty.
    """
    if held_class is not None and data.num_classes < 3:
        raise ValueError("hold-out protocol needs >= 3 classes so training stays multiclass")
    for given, role in ((data, "training"), (fixed_test, "test")):
        if given is not None and not given.has_labels:
            raise ValueError(f"{given.table.path}: {role} data must include the label column "
                             f"{given.schema.label_column!r}")
    if fixed_test is not None:
        if held_class is not None:
            raise ValueError("a hold-out study takes no fixed test set")
        if len(fixed_test) == 0:
            raise ValueError(f"{fixed_test.table.path}: 0 data rows leave the test split empty")
        split_sizes(len(data), fractions)  # refuses bad fractions before they are renormalized
        a, b = fractions[0], fractions[1]
        fractions = (a / (a + b), b / (a + b))
    table, schema = data.table, data.schema
    rows, among = np.arange(len(data)), ""
    if held_class is not None:
        labels = label_codes(table, schema)
        remap = _holdout_remap(labels, schema.num_classes, held_class)
        rows, among = np.flatnonzero(labels != held_class), f" outside class {held_class}"
    for part, size in zip(("proper", "calibration", "test"), split_sizes(rows.size, fractions)):
        if size == 0:
            raise ValueError(f"{table.path}: {rows.size} data rows{among} leave the {part} "
                             "split empty")
    parts = [rows[p] for p in shuffle_split(rows.size, fractions, make_rng(seed, SPLIT_STREAM))]
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


def credibility(predictor: Predictor, x) -> dict[str, np.ndarray]:
    """Each row's credibility under each measure of the predictor's
    calibrations: measure -> one value per row of the encoded rows ``x``,
    from one prediction by :func:`predict`, which refuses a width the model
    does not take."""
    preds = predict(predictor, x)
    return {measure: conformal_predict(preds, scores, measure).credibility()
            for measure, scores in predictor.calibrations.items()}


def ood_cross_dataset(
    predictor: Predictor, in_domain: Dataset, foreign: Dataset
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Credibility of a foreign dataset against a trained head, with an
    in-domain dataset as the reference distribution: measure -> (in-domain
    credibility, foreign credibility), one per row, under each measure of
    the predictor's calibrations. Each dataset is predicted once for all
    measures (:func:`credibility`)."""
    if not predictor.calibrations:
        raise ValueError("need at least one nonconformity measure")
    for name, ds in (("in-domain", in_domain), ("foreign", foreign)):
        if len(ds) == 0:
            raise ValueError(f"{name} dataset is empty")
    inside, outside = credibility(predictor, in_domain.x), credibility(predictor, foreign.x)
    return {measure: (inside[measure], outside[measure]) for measure in inside}
