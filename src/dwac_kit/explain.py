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

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .heads import DEFAULT_SIGMA, EmbeddedTrainingSet, kernel_blocks
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


def _top_positions(w: np.ndarray, index: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest weights in ``w``, by descending weight and
    then ascending ``index`` (the original training index of each position).
    Uses a partial selection when k is below the row size; the pivot tie scan
    keeps boundary ties deterministic."""
    if k >= w.size:
        return np.lexsort((index, -w))
    cand = np.argpartition(-w, k - 1)[:k]
    pivot = w[cand].min()
    above = np.flatnonzero(w > pivot)
    ties = np.flatnonzero(w == pivot)
    ties = ties[np.argsort(index[ties])][: k - above.size]
    chosen = np.concatenate([above, ties])
    return chosen[np.lexsort((index[chosen], -w[chosen]))]


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
    w: np.ndarray, sums: np.ndarray, top: np.ndarray, train: EmbeddedTrainingSet,
    query_id: int,
) -> Explanation:
    """One query's explanation from its class-sorted weights, class sums and
    ranked positions."""
    total = float(sums.sum())
    index = train.order[top]
    entry_weights = w[top]
    entry_labels = train.labels[index]
    entries = [
        Entry(index=int(i), weight=float(wt), label=int(lb))
        for i, wt, lb in zip(index, entry_weights, entry_labels)
    ]
    return Explanation(
        query_id=query_id,
        predicted_label=int(np.argmax(sums)),
        entries=entries,
        cumulative_weight=np.cumsum(entry_weights),
        decisive_prefix=_decisive_prefix(entry_labels, entry_weights, total, train.num_classes),
        total_weight=total,
    )


def explain_many(
    x: np.ndarray,
    model: EmbeddingModel,
    train: EmbeddedTrainingSet,
    k: int | None = None,
    sigma: float = DEFAULT_SIGMA,
) -> list[Explanation]:
    """Explain each row of ``x``; query_id is the row position."""
    return explain_with_agreement(x, model, train, k=k, k_list=(), sigma=sigma)[0]


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
    construction (the restriction keeps everything). The pass also builds
    one-entry explanations, which are dropped.
    """
    return explain_with_agreement(test.x, model, train, k=1, k_list=k_list, sigma=sigma)[1]


def explain_with_agreement(
    x: np.ndarray,
    model: EmbeddingModel,
    train: EmbeddedTrainingSet,
    k: int | None,
    k_list: tuple[int, ...],
    sigma: float = DEFAULT_SIGMA,
) -> tuple[list[Explanation], list[tuple[int, float]]]:
    """``explain_many`` and ``agreement_at_k`` of the same queries from one
    embedding and one pass of ``kernel_blocks``.

    ``k`` truncates each ranked list to the k heaviest neighbors (None keeps
    all of them); the decisive prefix still accounts for the exact truncated
    mass. For agreement, each row ranks only its top kmax weights, kmax being
    the largest k in ``k_list`` below the training set size, and each prefix
    mass is summed in rank order.
    """
    if model.head != DWAC:
        raise ValueError("explanations require a dwac head; softmax has no reference instances")
    if len(train) == 0:
        raise ValueError("cannot explain against an empty training set")
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1 or None for all, got {k}")
    if any(kk < 1 for kk in k_list):
        raise ValueError("k_list entries must be >= 1")
    h, _ = forward(model, x, mode="eval")
    n, t = h.shape[0], len(train)
    if k_list and n == 0:
        raise ValueError("agreement of an empty test set is undefined")
    short = sorted({kk for kk in k_list if kk < t})
    depth = t if k is None else max([k, *short])
    explanations: list[Explanation] = [None] * n
    agree = np.zeros((len(short), n), dtype=bool)

    def visit(rows: slice, w: np.ndarray, sums: np.ndarray) -> None:
        top = [_top_positions(row, train.order, depth) for row in w]
        explanations[rows] = [
            _explain_row(w[i], sums[i], top[i][:k], train, rows.start + i)
            for i in range(w.shape[0])
        ]
        if not short:
            return
        ranked = np.stack([p[: short[-1]] for p in top])
        top_w = np.take_along_axis(w, ranked, axis=1)
        top_labels = train.labels[train.order[ranked]]
        block = np.arange(ranked.shape[0])[:, None]
        masses = np.zeros((ranked.shape[0], train.num_classes))
        full_argmax = sums.argmax(axis=1)
        done = 0
        for j, kk in enumerate(short):
            np.add.at(masses, (block, top_labels[:, done:kk]), top_w[:, done:kk])
            done = kk
            agree[j, rows] = masses.argmax(axis=1) == full_argmax

    kernel_blocks(h, train, visit, sigma)
    hits = dict(zip(short, np.count_nonzero(agree, axis=1).tolist()))
    table = [(kk, hits[kk] / n if kk < t else 1.0) for kk in k_list]
    return explanations, table
