"""Split conformal prediction on top of a trained classifier.

A held-out calibration split (never trained on) yields a reference
distribution of nonconformity scores at true labels. A test instance gets
one p-value per class: the fraction of calibration scores at least as
nonconforming as the candidate score. Thresholding p-values at an error
rate epsilon produces label sets whose miss rate is close to epsilon on
exchangeable data; the p-values also give per-instance credibility (does
this look like training data at all) and confidence (how decisively is
the top label separated from the runner-up).

The p-value here is the raw proportion count/m, not the (count+1)/(m+1)
variant, so finite-sample coverage can undershoot 1 - epsilon by about
1/m. Tests account for that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heads import Predictions
from .network import DWAC, SOFTMAX

NEG_PROB = "neg_prob"
NEG_WEIGHT_SUM = "neg_weight_sum"
MEASURES = (NEG_PROB, NEG_WEIGHT_SUM)
# The measures each head is scored under: only dwac predictions carry weight sums.
HEAD_MEASURES = {SOFTMAX: (NEG_PROB,), DWAC: MEASURES}

# error rates reported by default: 0.00 to 0.20 in steps of 0.01
EPSILON_GRID = tuple(i / 100 for i in range(21))


def nonconformity(preds: Predictions, measure: str) -> np.ndarray:
    """Per-class nonconformity scores, shape (n, num_classes). Higher means
    the class fits the instance worse."""
    if measure == NEG_PROB:
        return -preds.probs
    if measure == NEG_WEIGHT_SUM:
        if preds.weight_sums is None:
            raise ValueError(
                f"{NEG_WEIGHT_SUM!r} needs kernel weight sums; only dwac predictions carry them"
            )
        return -preds.weight_sums
    raise ValueError(f"unknown nonconformity measure {measure!r}, expected one of {MEASURES}")


def calibrate(preds: Predictions, labels: np.ndarray, measure: str) -> np.ndarray:
    """Score each calibration instance at its true label; returns the scores
    sorted ascending, ready for :func:`p_values`."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (len(preds),):
        raise ValueError("labels must align with predictions")
    scores = nonconformity(preds, measure)
    return np.sort(scores[np.arange(labels.size), labels])


def p_values(calibration_scores: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Fraction of calibration scores >= each candidate score.

    ``calibration_scores`` must be sorted ascending; a binary search then
    counts the tail in O(log m) per query. Ties count in favor of the
    candidate (a calibration score equal to the query score makes the
    query look less unusual).
    """
    calib = np.asarray(calibration_scores, dtype=np.float64)
    if calib.ndim != 1 or calib.size == 0:
        raise ValueError("calibration scores must be a nonempty 1-d array")
    idx = np.searchsorted(calib, scores, side="left")
    return (calib.size - idx) / calib.size


@dataclass
class ConformalScores:
    """Per-class p-values for a batch of instances, plus derived readouts."""

    p: np.ndarray  # (n, num_classes)

    def __len__(self) -> int:
        return self.p.shape[0]

    @property
    def num_classes(self) -> int:
        return self.p.shape[1]

    def label_sets(self, epsilon: float) -> list[np.ndarray]:
        """Each instance's classes with a p-value above epsilon, in ascending order."""
        return [np.nonzero(p > epsilon)[0] for p in self.p]

    def credibility(self) -> np.ndarray:
        """Largest p-value per instance; near zero means no class fits, a
        signal the instance is unlike the training data."""
        return self.p.max(axis=1)

    def confidence(self) -> np.ndarray:
        """One minus the second-largest p-value per instance: how quickly
        the label set shrinks to a singleton as epsilon grows."""
        if self.num_classes < 2:
            return np.ones(len(self))
        return 1.0 - np.partition(self.p, -2, axis=1)[:, -2]


def conformal_predict(
    preds: Predictions, calibration_scores: np.ndarray, measure: str
) -> ConformalScores:
    """Attach calibrated p-values to a batch of predictions."""
    calib = np.sort(np.asarray(calibration_scores, dtype=np.float64))
    return ConformalScores(p_values(calib, nonconformity(preds, measure)))


class Coverage:
    """Empirical coverage and set-size counts over an epsilon grid, added up
    a batch of instances at a time (:meth:`add`), so no batch need be held
    once it is added. Every count is an integer, so the rates that
    :meth:`rows` gives do not depend on how the instances were batched.

    Coverage at epsilon is the fraction of instances whose true label made
    it into the label set; validity means this stays near 1 - epsilon.
    """

    def __init__(self, epsilons: tuple[float, ...] = EPSILON_GRID):
        self.epsilons = tuple(epsilons)
        self.n = 0
        # per epsilon: true labels in the set, set sizes summed, empty sets, singletons
        self.counts = np.zeros((len(self.epsilons), 4), dtype=np.int64)

    def add(self, scores: ConformalScores, labels: np.ndarray) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (len(scores),):
            raise ValueError("labels must align with conformal scores")
        p_true = scores.p[np.arange(labels.size), labels]
        for counts, eps in zip(self.counts, self.epsilons):
            sizes = np.count_nonzero(scores.p > eps, axis=1)
            counts += (np.count_nonzero(p_true > eps), sizes.sum(),
                       np.count_nonzero(sizes == 0), np.count_nonzero(sizes == 1))
        self.n += labels.size

    def rows(self) -> list[dict[str, float]]:
        """One record per epsilon, with the coverage CSV's columns as keys."""
        n = self.n
        if n == 0:
            raise ValueError("coverage report needs at least one instance")
        return [{"epsilon": float(eps), "coverage": covered / n, "mean_set_size": sizes / n,
                 "empty_rate": empty / n, "singleton_rate": singletons / n}
                for eps, (covered, sizes, empty, singletons)
                in zip(self.epsilons, self.counts.tolist())]


def coverage_report(
    scores: ConformalScores,
    labels: np.ndarray,
    epsilons: tuple[float, ...] = EPSILON_GRID,
) -> list[dict[str, float]]:
    """The :class:`Coverage` records of one batch of instances."""
    coverage = Coverage(epsilons)
    coverage.add(scores, labels)
    return coverage.rows()
