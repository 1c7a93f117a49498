"""Brute-force reference implementations used to pin down the fast paths.

Everything here is written as plain Python loops over scalars, on purpose:
these are the oracles the vectorized kernels are checked against, so
they must not share any code or vectorization tricks with the
implementations under test.
"""

from __future__ import annotations

import math

import numpy as np

from dwac_kit import TrainConfig, make_blobs, make_rng, shuffle_split, train
from dwac_kit.data import standardize_splits
from dwac_kit.evaluate import SPLIT_STREAM


def pairwise_sq_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            s = 0.0
            for k in range(a.shape[1]):
                diff = a[i, k] - b[j, k]
                s += diff * diff
            out[i, j] = s
    return out


def dwac_predict_oracle(
    h_query: np.ndarray, h_train: np.ndarray, labels: np.ndarray,
    num_classes: int, sigma: float,
) -> np.ndarray:
    """Per-class probabilities by direct accumulation; degenerate rows
    (zero total mass) become uniform."""
    q = h_query.shape[0]
    probs = np.zeros((q, num_classes))
    for i in range(q):
        sums = [0.0] * num_classes
        for j in range(h_train.shape[0]):
            d2 = 0.0
            for k in range(h_query.shape[1]):
                diff = h_query[i, k] - h_train[j, k]
                d2 += diff * diff
            sums[labels[j]] += math.exp(-d2 / (2.0 * sigma))
        total = sum(sums)
        if total == 0.0:
            probs[i, :] = 1.0 / num_classes
        else:
            for c in range(num_classes):
                probs[i, c] = sums[c] / total
    return probs


def class_weight_sums_oracle(
    h_query: np.ndarray, h_train: np.ndarray, labels: np.ndarray,
    num_classes: int, sigma: float,
) -> np.ndarray:
    q = h_query.shape[0]
    out = np.zeros((q, num_classes))
    for i in range(q):
        for j in range(h_train.shape[0]):
            d2 = 0.0
            for k in range(h_query.shape[1]):
                diff = h_query[i, k] - h_train[j, k]
                d2 += diff * diff
            out[i, labels[j]] += math.exp(-d2 / (2.0 * sigma))
    return out


def loo_loss_oracle(
    h: np.ndarray, y: np.ndarray, sigma: float, floor: float = 1e-12
) -> float:
    """Mean negative log of the leave-one-out within-batch probability of
    each instance's own label, with the same clamping as the implementation."""
    n = h.shape[0]
    total = 0.0
    for j in range(n):
        num = 0.0
        den = 0.0
        for i in range(n):
            if i == j:
                continue
            d2 = 0.0
            for k in range(h.shape[1]):
                diff = h[j, k] - h[i, k]
                d2 += diff * diff
            w = math.exp(-d2 / (2.0 * sigma))
            den += w
            if y[i] == y[j]:
                num += w
        p = num / den if den > 0.0 else 0.0
        total += -math.log(min(max(p, floor), 1.0))
    return total / n


def agreement_oracle(
    weights: np.ndarray, labels: np.ndarray, num_classes: int, k_list,
) -> list[tuple[int, float]]:
    """Agreement at k from a full ranking of every row: descending weight,
    ties by ascending index. Class masses add up in rank order, and the
    argmax keeps the lowest class index among equal masses."""
    n, t = weights.shape

    def prefix_argmax(row, order, k):
        masses = [0.0] * num_classes
        for j in order[:k]:
            masses[labels[j]] += row[j]
        best = 0
        for cls in range(1, num_classes):
            if masses[cls] > masses[best]:
                best = cls
        return best

    agree = {k: 0 for k in k_list}
    for row in weights:
        order = sorted(range(t), key=lambda j: (-row[j], j))
        full = prefix_argmax(row, order, t)
        for k in k_list:
            if prefix_argmax(row, order, min(k, t)) == full:
                agree[k] += 1
    return [(k, 1.0 if k >= t else agree[k] / n) for k in k_list]


def p_value_oracle(calibration: np.ndarray, score: float) -> float:
    count = 0
    for v in calibration:
        if v >= score:
            count += 1
    return count / len(calibration)


def calibrate_oracle(score_rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    out = [score_rows[i][labels[i]] for i in range(len(labels))]
    return np.array(sorted(out))


def quick_split(dataset, fractions, seed):
    parts = shuffle_split(len(dataset), fractions, make_rng(seed, SPLIT_STREAM))
    return tuple(dataset.subset(p) for p in parts)


def quick_train(head: str, n: int = 400, c: int = 3, d: int = 6, sep: float = 8.0,
                seed: int = 0, max_epochs: int = 40, **overrides):
    """Train a small model on blobs; returns (result, proper, calib, test)."""
    blobs = make_blobs(n, c, d, sep, make_rng(seed, 3))
    splits = quick_split(blobs, (0.6, 0.2, 0.2), seed)
    proper, calib, test = standardize_splits(*splits)
    config = TrainConfig(head=head, seed=seed, max_epochs=max_epochs,
                         batch_size=64, **overrides)
    return train(proper, calib, config), proper, calib, test
