"""Instance-based explanations for weighted-average predictions.

Every prediction is a weighted vote over training instances, so the
explanation is literal: the training instances ranked by kernel weight.
The decisive prefix marks how deep into that ranking you must read before
the tail mathematically cannot overturn the predicted label, no matter
what the tail labels are. The agreement table measures how often a
prediction restricted to the k nearest instances matches the full model,
which is what justifies showing users only a short prefix.
"""

from __future__ import annotations

import numpy as np

from .data import encode_json
from .heads import Predictor, kernel_blocks
from .network import DWAC, forward


# Entries of the groups of rows partitioned at a time to find their pivots:
# a partition copies what it sorts, so a group, not a kernel block, is copied.
PIVOT_ENTRIES = 1 << 14


def _ranked(w: np.ndarray, order: np.ndarray, depth: int) -> np.ndarray:
    """Positions of each row's ``depth`` largest weights in ``w``, by
    descending weight and then ascending ``order`` (the training index of each
    position): a (rows x depth) array. A partition of each group of rows of at
    most PIVOT_ENTRIES entries (one row when t exceeds it) finds each row's
    pivot, the depth-th largest weight; every weight at or above it is a
    candidate, and one sort of all candidates ranks them, however many tie at
    the pivot."""
    n, t = w.shape
    if depth < t:
        pivot = np.empty((n, 1))
        step = max(1, PIVOT_ENTRIES // t)
        for a in range(0, n, step):
            pivot[a : a + step, 0] = np.partition(w[a : a + step], t - depth, axis=1)[:, t - depth]
        flat = np.flatnonzero(w >= pivot)  # a 2-d nonzero is ten times slower
    else:
        flat = np.arange(n * t)
    rows, cols = np.divmod(flat, t)
    cols = cols[np.lexsort((order[cols], -w[rows, cols], rows))]
    counts = np.bincount(rows, minlength=n)
    return cols[(np.cumsum(counts) - counts)[:, None] + np.arange(depth)]


def explain_with_agreement(
    x: np.ndarray,
    predictor: Predictor,
    k: int,
    k_list: tuple[int, ...],
) -> tuple[list[str], list[tuple[int, float]]]:
    """The explanation of each row of ``x`` by the dwac head ``predictor``
    (:func:`explain_rows`), and the agreement table of the same queries: for
    each k in ``k_list``, the fraction of rows whose argmax over only the k
    nearest training instances matches the full-model argmax."""
    explanations, hits = explain_rows(x, predictor, k, k_list)
    return explanations, [(kk, h / len(explanations)) for kk, h in zip(k_list, hits)]


def explain_rows(
    x: np.ndarray,
    predictor: Predictor,
    k: int,
    k_list: tuple[int, ...],
    first: int = 0,
) -> tuple[list[str], list[int]]:
    """The explanation of each row of ``x`` by the dwac head ``predictor``,
    and for each k in ``k_list`` the number of rows whose argmax over only the
    k nearest training instances matches the full-model argmax. Both come
    from one embedding and one pass of ``kernel_blocks``, at the predictor's
    kernel width. No row's result depends on the other rows, so the rows of
    a query may be explained a run at a time.

    Each explanation is the JSON line (``data.encode_json``) that
    ``explanations.json`` holds: ``{"query_id", "predicted_label", "entries", "decisive_prefix"}``.
    query_id is ``first`` plus the row position. The entries, ``{"index", "weight",
    "label"}`` each, are the ``k`` heaviest training instances (all of them if
    ``k`` is at least the training set size), sorted by descending weight,
    ties broken by ascending training index. decisive_prefix is the smallest
    j such that the leading class's weight among the first j entries exceeds
    the runner-up's by more than the total weight remaining beyond j (the
    exact remainder, beyond the k entries too); 0 means the list never
    certifies the prediction. When nonzero, relabeling everything beyond the
    prefix cannot change predicted_label. For agreement, each row ranks only
    its top kmax weights, kmax being the largest k in ``k_list`` below the
    training set size; k values at or above that size agree for every row by
    construction.

    Each kernel block is ranked as a whole (``_ranked``), with no loop over
    its rows. The class masses of every prefix are cumulative sums along the
    ranks, so they are added in rank order; the decisive prefix and the
    agreement at each k are read from them.
    """
    if predictor.model.head != DWAC:
        raise ValueError("explanations require a dwac head; softmax has no reference instances")
    train = predictor.embedded
    if len(train) == 0:
        raise ValueError("cannot explain against an empty training set")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if any(kk < 1 for kk in k_list):
        raise ValueError("k_list entries must be >= 1")
    h, _ = forward(predictor.model, x, mode="eval")
    n, t = h.shape[0], len(train)
    if k_list and n == 0:
        raise ValueError("agreement of an empty test set is undefined")
    short = sorted({kk for kk in k_list if kk < t})
    depth = min(max([k, *short]), t)
    shown = min(k, t)
    classes = np.arange(train.num_classes)
    explanations: list[str] = [None] * n
    agree = np.zeros((len(short), n), dtype=bool)

    def visit(rows: slice, w: np.ndarray, sums: np.ndarray) -> None:
        ranked = _ranked(w, train.order, depth)
        weights = np.take_along_axis(w, ranked, axis=1)
        index = train.order[ranked]
        labels = train.labels[index]
        # class masses after each rank: adding 0.0 for the other classes is
        # exact, so each equals the sum of its class's weights in rank order
        masses = np.cumsum(np.where(labels[:, :, None] == classes, weights[:, :, None], 0.0),
                           axis=1)
        remaining = sums.sum(axis=1)[:, None] - np.cumsum(weights[:, :shown], axis=1)
        if train.num_classes < 2:
            lead, runner = masses[:, :shown, 0], 0.0
        else:
            top2 = np.partition(masses[:, :shown], -2, axis=2)
            lead, runner = top2[:, :, -1], top2[:, :, -2]
        certified = lead - runner > remaining
        prefix = np.where(certified.any(axis=1), certified.argmax(axis=1) + 1, 0)
        full_argmax = sums.argmax(axis=1)
        explanations[rows] = [
            encode_json({"query_id": q, "predicted_label": p,
                         "entries": [{"index": i, "weight": wt, "label": lb}
                                     for i, wt, lb in zip(*cols)],
                         "decisive_prefix": d})
            for q, p, d, *cols in zip(
                range(first + rows.start, first + rows.stop), full_argmax.tolist(),
                prefix.tolist(), index[:, :shown].tolist(), weights[:, :shown].tolist(),
                labels[:, :shown].tolist())]
        if short:
            at_k = masses[:, np.array(short) - 1].argmax(axis=2)
            agree[:, rows] = (at_k == full_argmax[:, None]).T

    kernel_blocks(h, train, visit, predictor.sigma)
    hits = dict(zip(short, np.count_nonzero(agree, axis=1).tolist()))
    return explanations, [hits[kk] if kk < t else n for kk in k_list]
