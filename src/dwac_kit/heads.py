"""Output heads: softmax and the kernel-weighted averaging head.

The weighted-averaging head predicts class probabilities as a normalized
sum of Gaussian kernel weights over embedded training instances:

    P(y = k | x) = sum_i 1[y_i = k] w(h, h_i) / sum_j w(h, h_j)

with w(h, h_i) = exp(-||h - h_i||^2 / (2 sigma)) and sigma fixed at 1/2
by default, so the embedding network adapts to the distance scale rather
than the bandwidth being tuned. The engine shifts each query's exponents by
their largest, which leaves its probabilities as they are: the nearest
instance weighs 1.0, so no query's kernel mass underflows to zero.

During training the probabilities are approximated within each minibatch:
each instance's probability is estimated from the *other* batch members
(leave-one-out), which is why batches must have at least two rows.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, pairwise_sq_distances, query_factor, reference_factor
from .network import DWAC, EmbeddingModel

DEFAULT_SIGMA = 0.5
PROB_FLOOR = 1e-12
# Kernel entries per query-row block: 2**17 float64 values, 1 MiB. Kernel sums
# run one block at a time, so their memory is O(block x t) rather than O(q x t),
# and a block small enough for a core's L2 cache stays there through the
# product, row max, shift, exp and class sums.
BLOCK_ENTRIES = 1 << 17
# Fewest blocks a kernel-sum thread runs. On a 2-vCPU VM a helper thread did
# its first block 1.5-5 ms after the call began, and calls of 15 to 128 blocks
# made between training steps ran slower on two threads than on one.
RUN_BLOCKS = 64


@dataclass(frozen=True)
class EmbeddedTrainingSet:
    """Embeddings and labels of the proper training set.

    This is the whole prediction substrate for the averaging head: after
    training only these low-dimensional vectors need to be stored.

    The rows are also kept sorted by class (``sorted_h``, a stable sort, so
    ``order[j]`` is the original index of sorted row j), and class k holds
    sorted rows ``bounds[k]:bounds[k + 1]``. Kernel sums run over this
    layout, so each class's weight mass is the sum of one contiguous range.
    """

    h: np.ndarray
    labels: np.ndarray
    num_classes: int
    order: np.ndarray = field(init=False, repr=False, compare=False)
    bounds: np.ndarray = field(init=False, repr=False, compare=False)
    sorted_h: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = as_matrix(self.h, "embeddings")
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] != h.shape[0]:
            raise ValueError("labels must be a vector with one entry per embedding row")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("labels out of range 0..num_classes-1")
        order = np.argsort(labels, kind="stable")
        counts = np.bincount(labels, minlength=self.num_classes)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "bounds", np.concatenate([[0], np.cumsum(counts)]))
        object.__setattr__(self, "sorted_h", h[order])

    def __len__(self) -> int:
        return self.h.shape[0]


@dataclass
class Predictor:
    """A trained head, all that scoring it needs: the network, the kernel
    width it was trained at, its embedded proper training set (dwac only),
    and ``calibrations``: measure -> sorted calibration scores."""

    model: EmbeddingModel
    sigma: float
    embedded: EmbeddedTrainingSet | None
    calibrations: dict[str, np.ndarray]

    def __post_init__(self):
        if self.model.head == DWAC and self.embedded is None:
            raise ValueError("a dwac head needs its embedded training set")


@dataclass
class Predictions:
    """Batched prediction results.

    ``probs`` rows live on the simplex; ``predicted`` is the argmax with
    ties broken toward the lowest class index. The averaging head also
    carries the unnormalized per-class kernel weight sums, which underflow to
    0.0 far from every training instance, where ``probs`` follow the nearest.
    """

    probs: np.ndarray
    predicted: np.ndarray
    weight_sums: np.ndarray | None = None

    def __len__(self) -> int:
        return self.probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]


def kernel_weights(
    h_query: np.ndarray, h_ref: np.ndarray, sigma: float = DEFAULT_SIGMA
) -> np.ndarray:
    """Gaussian kernel weights exp(-d^2 / (2 sigma)); entries in [0, 1].

    Scaled and exponentiated in place, so the distance matrix is the only
    query x reference array allocated.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    w = pairwise_sq_distances(h_query, h_ref)
    w *= -1.0 / (2.0 * sigma)
    np.exp(w, out=w)
    return w


def block_rows(t: int) -> int:
    """Most query rows whose kernel against t training rows holds at most
    BLOCK_ENTRIES entries; one when t exceeds it."""
    return max(1, BLOCK_ENTRIES // max(t, 1))


def row_blocks(q: int, t: int) -> list[slice]:
    """Consecutive query-row slices, as even in size as possible, of at most
    ``block_rows(t)`` rows each. q = 0 gives one empty block."""
    n = max(1, -(-q // block_rows(t)))
    bounds = [q * i // n for i in range(n + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the OS cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def kernel_blocks(
    h_query: np.ndarray, train: EmbeddedTrainingSet, visit: Callable | None,
    sigma: float = DEFAULT_SIGMA,
) -> tuple[np.ndarray, np.ndarray]:
    """The q x c class weight sums of the queries against the training set,
    relative to each query's nearest row, and the q log offsets that make
    them absolute (``sums * exp(offset)``), one query-row block at a time;
    ``visit(rows, w, sums)``, if given, sees each block of ``row_blocks`` and
    may write only to those rows.

    ``w[i, j]`` is exp(-d^2 / (2 sigma) - offset), the weight of query
    ``rows.start + i`` on training row ``train.order[j]`` (columns in
    class-sorted order), valid during the call; the offset is the row's
    largest -d^2 / (2 sigma), so its nearest row weighs exactly 1.0. No
    result depends on the block size, so none on the thread count: each
    usable CPU, up to one per ``RUN_BLOCKS`` blocks, runs one contiguous run
    of blocks in its own buffer, helpers in a copy of the caller's context
    (and so its ``np.errstate``). The first exception of any thread is raised
    once all have ended.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if len(train) == 0:
        raise ValueError("embedded training set is empty")
    h_query = as_matrix(h_query, "h_query")
    q, d = h_query.shape
    if d != train.h.shape[1]:
        raise ValueError(f"query dim {d} != training dim {train.h.shape[1]}")
    # BLAS rounds a one-row product (numpy hands it to GEMV) and a trailing
    # partial tile of columns (t mod 8 with OpenBLAS) otherwise than the rest.
    # Zero rows and columns pad the factors so every product avoids both, and
    # no result depends on the block size. The reference factor is negated
    # and the query factor scaled by 1/(2 sigma), so the product is
    # -d^2 / (2 sigma).
    t = len(train)
    left = np.zeros((q + 2, d + 2))
    np.multiply(query_factor(h_query), 1.0 / (2.0 * sigma), out=left[:q])
    right = np.zeros((d + 2, -(-t // 8) * 8))
    np.negative(reference_factor(train.sorted_h).T, out=right[:, :t])
    blocks = row_blocks(q, t)
    runs = max(1, min(usable_cpus(), len(blocks) // RUN_BLOCKS))
    cuts = [len(blocks) * i // runs for i in range(runs + 1)]
    height = max(2, *(b.stop - b.start for b in blocks))
    bounds = train.bounds
    out = np.empty((q, train.num_classes))
    offset = np.empty(q)
    errors: list[BaseException] = []

    def run(part: list[slice], buf: np.ndarray) -> None:
        try:
            for rows in part:
                n = rows.stop - rows.start
                m = max(n, 2)
                np.matmul(left[rows.start : rows.start + m], right, out=buf[:m])
                w = buf[:n, :t]
                top = np.maximum.reduce(w, axis=1, out=offset[rows])
                w -= top[:, None]
                np.exp(w, out=w)
                sums = out[rows]
                for k in range(train.num_classes):
                    np.add.reduce(w[:, bounds[k] : bounds[k + 1]], axis=1, out=sums[:, k])
                if visit is not None:
                    visit(rows, w, sums)
        except BaseException as e:
            errors.append(e)

    # one allocation: buffers freed one by one went back to the OS (glibc) and
    # were faulted in again on every call
    bufs = np.empty((runs, height, right.shape[1]))
    work = [(blocks[i:j], buf) for i, j, buf in zip(cuts, cuts[1:], bufs)]
    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(run, *job))
               for job in work[1:]]
    for th in helpers:
        th.start()
    run(*work[0])
    for th in helpers:
        th.join()
    if errors:
        raise errors[0]
    return out, offset


def dwac_predict(
    h_query: np.ndarray,
    train: EmbeddedTrainingSet,
    sigma: float = DEFAULT_SIGMA,
) -> Predictions:
    """Predict by kernel-weighted averaging over the embedded training set.

    The per-class weight sums come from ``kernel_blocks``, so at most one
    block of the q x t kernel per thread is held in memory. The probabilities
    come from the shifted sums, whose total is at least 1.
    """
    sums, offset = kernel_blocks(h_query, train, None, sigma)
    probs = sums / sums.sum(axis=1, keepdims=True)
    sums *= np.exp(offset, out=offset)[:, None]
    return Predictions(
        probs=probs,
        predicted=np.argmax(probs, axis=1).astype(np.int64),
        weight_sums=sums,
    )


def softmax_predict(logits: np.ndarray) -> Predictions:
    """Row-wise stable softmax over class logits."""
    logits = as_matrix(logits, "logits")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    return Predictions(probs=probs, predicted=np.argmax(probs, axis=1).astype(np.int64))


def dwac_batch_loss(
    h_batch: np.ndarray,
    labels_batch: np.ndarray,
    num_classes: int,
    sigma: float = DEFAULT_SIGMA,
) -> tuple[float, np.ndarray]:
    """Leave-one-out batch loss for the averaging head, with gradient.

    Each instance's probability of its own label is estimated from the
    other batch members, with each row's weights shifted by its nearest
    other member's (which weighs 1.0), so every row has kernel mass. A row
    with no same-class mass nearby has its probability clamped to
    [PROB_FLOOR, 1] before the log, which keeps the loss finite; the gradient
    is zero wherever the clamp is active. Returns the mean negative log
    probability and dLoss/dH.
    """
    h_batch = as_matrix(h_batch, "h_batch")
    b = h_batch.shape[0]
    if b < 2:
        raise ValueError("leave-one-out loss needs a batch of at least 2")
    labels = np.ascontiguousarray(labels_batch, dtype=np.int64)
    if labels.shape != (b,):
        raise ValueError("labels must be a vector matching the batch")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError("labels out of range 0..num_classes-1")

    w = pairwise_sq_distances(h_batch, h_batch)
    w *= -1.0 / (2.0 * sigma)
    np.fill_diagonal(w, -np.inf)
    w -= np.maximum.reduce(w, axis=1)[:, None]
    np.exp(w, out=w)
    # same[i, j] = 1[y_i == y_j]: rows of a c x b class indicator, by label
    indicator = np.zeros((num_classes, b))
    indicator[labels, np.arange(b)] = 1.0
    same = indicator[labels]

    coeff = np.multiply(w, same)  # reused below for the gradient coefficients
    denom = np.add.reduce(w, axis=1)
    p_raw = np.add.reduce(coeff, axis=1) / denom
    p = np.minimum(np.maximum(p_raw, PROB_FLOOR), 1.0)
    loss = -float(np.add.reduce(np.log(p))) / b

    # d(loss)/dP is zero wherever the floor clamp is active
    g = np.where(p_raw > PROB_FLOOR, -1.0 / (b * p), 0.0)
    np.subtract(same, p_raw[:, None], out=coeff)
    coeff *= (g / denom)[:, None]
    coeff *= w
    m = np.ascontiguousarray(coeff.T)
    m += coeff
    grad = m @ h_batch
    grad -= np.add.reduce(m, axis=1)[:, None] * h_batch
    grad *= 1.0 / sigma
    return loss, grad


def softmax_batch_loss(
    logits: np.ndarray, labels_batch: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean negative log probability of the true label; gradient is
    (softmax - onehot) / B."""
    logits = as_matrix(logits, "logits")
    b, c = logits.shape
    labels = np.ascontiguousarray(labels_batch, dtype=np.int64)
    if labels.shape != (b,):
        raise ValueError("labels must be a vector matching the batch")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("labels out of range for logit width")

    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    loss = float(-log_probs[np.arange(b), labels].mean())

    grad = np.exp(log_probs)
    grad[np.arange(b), labels] -= 1.0
    grad /= b
    return loss, grad
