"""Instance-based explanations for weighted-average predictions.

Every prediction is a weighted vote over training instances, so the
explanation is literal: the training instances ranked by kernel weight.
The decisive prefix marks how deep into that ranking you must read before
the tail mathematically cannot overturn the predicted label, no matter
what the tail labels are. agreement_at_k measures how often a prediction
restricted to the k nearest instances matches the full model, which is
what justifies showing users only a short prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .heads import DEFAULT_SIGMA, EmbeddedTrainingSet, kernel_weights, row_blocks
from .network import DWAC, EmbeddingModel, forward


@dataclass(frozen=True)
class Entry:
    index: int  # row in the embedded training set
    weight: float
    label: int


@dataclass
class Explanation:
    """Ranked neighbor list for one query.

    entries are sorted by descending weight, ties broken by ascending
    training index. decisive_prefix is the smallest j such that the
    leading class's weight among the first j entries exceeds the
    runner-up's by more than the total weight remaining beyond j (exact
    remainder, even when entries are truncated to top-k); 0 means the
    list never certifies the prediction. When nonzero, relabeling
    everything beyond the prefix cannot change predicted_label.
    """

    query_id: int
    predicted_label: int
    entries: list[Entry]
    cumulative_weight: np.ndarray
    decisive_prefix: int
    total_weight: float

    def class_weights(self, num_classes: int) -> np.ndarray:
        """Per-class weight mass reconstructed from the entries."""
        masses = np.zeros(num_classes)
        for e in self.entries:
            masses[e.label] += e.weight
        return masses

    def to_json_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "predicted_label": self.predicted_label,
            "entries": [
                {"index": e.index, "weight": e.weight, "label": e.label}
                for e in self.entries
            ],
            "decisive_prefix": self.decisive_prefix,
        }


def _top_indices(w: np.ndarray, k: int | None) -> np.ndarray:
    """Indices of the k largest weights, descending weight then ascending
    index. Uses a partial selection when k is well below the set size; the
    pivot tie scan keeps boundary ties deterministic."""
    t = w.size
    if k is None or k >= t:
        return np.argsort(-w, kind="stable")
    cand = np.argpartition(-w, k - 1)[:k]
    pivot = w[cand].min()
    above = np.nonzero(w > pivot)[0]
    ties = np.nonzero(w == pivot)[0]
    chosen = np.concatenate([above, ties[: k - above.size]])
    return chosen[np.lexsort((chosen, -w[chosen]))]


def _decisive_prefix(
    labels: np.ndarray, weights: np.ndarray, total: float, num_classes: int
) -> int:
    masses = np.zeros(num_classes)
    cum = 0.0
    for j in range(weights.size):
        masses[labels[j]] += weights[j]
        cum += weights[j]
        if num_classes < 2:
            lead, runner = masses[0], 0.0
        else:
            top2 = np.partition(masses, -2)[-2:]
            runner, lead = float(top2[0]), float(top2[1])
        if lead - runner > total - cum:
            return j + 1
    return 0


def _explain_row(
    w: np.ndarray, train: EmbeddedTrainingSet, k: int | None, query_id: int
) -> Explanation:
    total = float(w.sum())
    full_masses = np.bincount(train.labels, weights=w, minlength=train.num_classes)
    predicted = int(np.argmax(full_masses))
    order = _top_indices(w, k)
    entry_weights = w[order]
    entry_labels = train.labels[order]
    entries = [
        Entry(index=int(i), weight=float(wt), label=int(lb))
        for i, wt, lb in zip(order, entry_weights, entry_labels)
    ]
    return Explanation(
        query_id=query_id,
        predicted_label=predicted,
        entries=entries,
        cumulative_weight=np.cumsum(entry_weights),
        decisive_prefix=_decisive_prefix(entry_labels, entry_weights, total, train.num_classes),
        total_weight=total,
    )


def explain(
    x: np.ndarray,
    model: EmbeddingModel,
    train: EmbeddedTrainingSet,
    k: int | None = None,
    sigma: float = DEFAULT_SIGMA,
    query_id: int = 0,
) -> Explanation:
    """Explain a single prediction; ``x`` is one encoded feature row.

    ``k`` truncates the ranked list to the k heaviest neighbors (None
    keeps all of them); the decisive prefix still accounts for the exact
    truncated mass.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[0] != 1:
        raise ValueError("explain takes one instance; use explain_many for batches")
    return replace(explain_many(x, model, train, k=k, sigma=sigma)[0], query_id=query_id)


def explain_many(
    x: np.ndarray,
    model: EmbeddingModel,
    train: EmbeddedTrainingSet,
    k: int | None = None,
    sigma: float = DEFAULT_SIGMA,
) -> list[Explanation]:
    """Explain each row of ``x``; query_id is the row position.

    Kernel weights are computed one query-row block at a time.
    """
    if model.head != DWAC:
        raise ValueError("explanations require a dwac head; softmax has no reference instances")
    if len(train) == 0:
        raise ValueError("cannot explain against an empty training set")
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1 or None for all, got {k}")
    h, _ = forward(model, x, mode="eval")
    out = []
    for rows in row_blocks(h.shape[0], len(train)):
        weights = kernel_weights(h[rows], train.h, sigma=sigma)
        out.extend(_explain_row(w, train, k, rows.start + i) for i, w in enumerate(weights))
    return out


def agreement_at_k(
    model: EmbeddingModel,
    train: EmbeddedTrainingSet,
    test: Dataset,
    k_list: tuple[int, ...],
    sigma: float = DEFAULT_SIGMA,
) -> list[tuple[int, float]]:
    """Fraction of test instances where the argmax over only the k nearest
    training instances matches the full-model argmax, per k.

    k values at or above the training set size agree exactly by
    construction (the restriction keeps everything). Each row ranks only
    its top kmax weights, kmax being the largest k below the training set
    size, and each prefix mass is summed in rank order.
    """
    if len(train) == 0:
        raise ValueError("agreement needs a nonempty training set")
    if any(k < 1 for k in k_list):
        raise ValueError("k_list entries must be >= 1")
    if len(test) == 0:
        raise ValueError("agreement of an empty test set is undefined")
    n, t = len(test), len(train)
    short = sorted({k for k in k_list if k < t})
    if not short:
        return [(k, 1.0) for k in k_list]
    hits = dict.fromkeys(short, 0)
    h, _ = forward(model, test.x, mode="eval")
    onehot = train.onehot()
    for rows in row_blocks(n, t):
        weights = kernel_weights(h[rows], train.h, sigma=sigma)
        full_argmax = (weights @ onehot).argmax(axis=1)
        top = np.stack([_top_indices(w, short[-1]) for w in weights])
        top_w = np.take_along_axis(weights, top, axis=1)
        top_labels = train.labels[top]
        block = np.arange(top.shape[0])[:, None]
        masses = np.zeros((top.shape[0], train.num_classes))
        done = 0
        for k in short:
            np.add.at(masses, (block, top_labels[:, done:k]), top_w[:, done:k])
            done = k
            hits[k] += int(np.count_nonzero(masses.argmax(axis=1) == full_argmax))
    return [(k, hits[k] / n if k < t else 1.0) for k in k_list]
