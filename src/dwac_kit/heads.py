"""Output heads: softmax and the kernel-weighted averaging head.

The weighted-averaging head predicts class probabilities as a normalized
sum of Gaussian kernel weights over embedded training instances:

    P(y = k | x) = sum_i 1[y_i = k] w(h, h_i) / sum_j w(h, h_j)

with w(h, h_i) = exp(-||h - h_i||^2 / (2 sigma)) and sigma fixed at 1/2
by default, so the embedding network adapts to the distance scale rather
than the bandwidth being tuned.

During training the probabilities are approximated within each minibatch:
each instance's probability is estimated from the *other* batch members
(leave-one-out), which is why batches must have at least two rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, pairwise_sq_distances

DEFAULT_SIGMA = 0.5
PROB_FLOOR = 1e-12
# Kernel entries per query-row block: 2**21 float64 values, 16 MB. Kernel sums
# run one block at a time, so their memory is O(block x t) rather than O(q x t).
BLOCK_ENTRIES = 1 << 21


@dataclass(frozen=True)
class EmbeddedTrainingSet:
    """Embeddings and labels of the proper training set.

    This is the whole prediction substrate for the averaging head: after
    training only these low-dimensional vectors need to be stored.
    """

    h: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        h = as_matrix(self.h, "embeddings")
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] != h.shape[0]:
            raise ValueError("labels must be a vector with one entry per embedding row")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("labels out of range 0..num_classes-1")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.h.shape[0]

    def onehot(self) -> np.ndarray:
        """t x c label indicators; ``w @ onehot()`` sums kernel weights per class."""
        out = np.zeros((len(self), self.num_classes))
        out[np.arange(len(self)), self.labels] = 1.0
        return out


@dataclass
class Predictions:
    """Batched prediction results.

    ``probs`` rows live on the simplex; ``predicted`` is the argmax with
    ties broken toward the lowest class index. The averaging head also
    carries the unnormalized per-class kernel weight sums and a flag for
    degenerate rows, where the total kernel mass underflowed to zero and
    the probabilities fell back to uniform.
    """

    probs: np.ndarray
    predicted: np.ndarray
    weight_sums: np.ndarray | None = None
    degenerate: np.ndarray | None = None

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


def row_blocks(q: int, t: int) -> list[slice]:
    """Consecutive query-row slices, as even in size as possible, whose
    blocks of the q x t kernel hold at most BLOCK_ENTRIES entries (one row
    each when t exceeds it). Even sizes leave no small tail block, which
    BLAS may sum in another order than a large one. q = 0 gives one empty
    block, so argument checks still run."""
    step = max(1, BLOCK_ENTRIES // max(t, 1))
    n = max(1, -(-q // step))
    bounds = [q * i // n for i in range(n + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def dwac_predict(
    h_query: np.ndarray,
    train: EmbeddedTrainingSet,
    sigma: float = DEFAULT_SIGMA,
) -> Predictions:
    """Predict by kernel-weighted averaging over the embedded training set.

    The per-class weight sums are filled one query-row block at a time, so
    at most one block of the q x t kernel is held in memory.
    """
    if len(train) == 0:
        raise ValueError("embedded training set is empty")
    h_query = as_matrix(h_query, "h_query")
    if h_query.shape[1] != train.h.shape[1]:
        raise ValueError(
            f"query dim {h_query.shape[1]} != training dim {train.h.shape[1]}"
        )
    onehot = train.onehot()
    sums = np.empty((h_query.shape[0], train.num_classes))
    for rows in row_blocks(h_query.shape[0], len(train)):
        sums[rows] = kernel_weights(h_query[rows], train.h, sigma) @ onehot
    total = sums.sum(axis=1)
    degenerate = total == 0.0
    safe_total = np.where(degenerate, 1.0, total)
    probs = sums / safe_total[:, None]
    if degenerate.any():
        probs[degenerate] = 1.0 / train.num_classes
    return Predictions(
        probs=probs,
        predicted=np.argmax(probs, axis=1).astype(np.int64),
        weight_sums=sums,
        degenerate=degenerate,
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
    prob_floor: float = PROB_FLOOR,
) -> tuple[float, np.ndarray]:
    """Leave-one-out batch loss for the averaging head, with gradient.

    Each instance's probability of its own label is estimated from the
    other batch members. Probabilities are clamped to [prob_floor, 1]
    before the log so a batch with zero same-class kernel mass stays
    finite; the gradient is zero wherever the clamp is active. Returns the
    mean negative log probability and dLoss/dH.
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

    w = kernel_weights(h_batch, h_batch, sigma)
    np.fill_diagonal(w, 0.0)
    same = (labels[:, None] == labels[None, :]).astype(np.float64)

    denom = w.sum(axis=1)
    numer = (w * same).sum(axis=1)
    safe = denom > 0.0
    p_raw = np.where(safe, numer / np.where(safe, denom, 1.0), 0.0)
    p = np.clip(p_raw, prob_floor, 1.0)
    loss = float(np.mean(-np.log(p)))

    # d(loss)/dP is zero wherever the floor clamp is active (or the row had
    # no kernel mass at all).
    g = np.where(p_raw > prob_floor, -1.0 / (b * p), 0.0)
    coeff = (g / np.where(safe, denom, 1.0))[:, None] * (same - p_raw[:, None]) * w
    m = coeff + coeff.T
    grad = (1.0 / sigma) * (m @ h_batch - m.sum(axis=1)[:, None] * h_batch)
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
