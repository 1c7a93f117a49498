"""Seeded randomness, data splits, and the pairwise distance primitive.

All arrays are float64 and row-major. Randomness comes exclusively from
counter-based Philox generators so that a seed fixes every draw sequence
across runs and platforms; the platform-default bit generator is never
used.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for a (seed, stream) pair.

    Distinct streams of the same seed are statistically independent, which
    is how parallel or multi-phase code derives child generators without
    sharing state.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


def as_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate and coerce to a finite float64 C-contiguous 2-d array."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def query_factor(a: np.ndarray) -> np.ndarray:
    """``[a | ||a||^2 | 1]``, the left factor of the squared distances."""
    d = a.shape[1]
    out = np.empty((a.shape[0], d + 2))
    out[:, :d] = a
    np.einsum("ij,ij->i", a, a, out=out[:, d])
    out[:, d + 1] = 1.0
    return out


def reference_factor(b: np.ndarray, sq_norms: np.ndarray | None = None) -> np.ndarray:
    """``[-2b | 1 | ||b||^2]``: ``query_factor(a) @ reference_factor(b).T``
    is ``||a||^2 + ||b||^2 - 2 a.b`` for every row pair, in one GEMM whose
    (d + 2)-column factors are small next to the q x t product. ``sq_norms``,
    when given, are the row norms already computed (``query_factor(b)[:, d]``)."""
    d = b.shape[1]
    out = np.empty((b.shape[0], d + 2))
    np.multiply(b, -2.0, out=out[:, :d])
    out[:, d] = 1.0
    if sq_norms is None:
        np.einsum("ij,ij->i", b, b, out=out[:, d + 1])
    else:
        out[:, d + 1] = sq_norms
    return out


def pairwise_sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All squared Euclidean distances between rows of ``a`` and rows of ``b``.

    Entry (i, j) is ``sum_k (a[i,k] - b[j,k])**2``, computed via the
    norm-expansion trick as one product of augmented matrices and clamped
    at zero. When ``a`` and ``b`` are the same array the diagonal is forced
    to exactly zero.
    """
    same_object = a is b
    a2 = as_matrix(a, "a")
    b2 = a2 if same_object else as_matrix(b, "b")
    if a2.shape[1] != b2.shape[1]:
        raise ValueError(
            f"column mismatch: a has {a2.shape[1]} columns, b has {b2.shape[1]}"
        )
    left = query_factor(a2)
    right = reference_factor(a2, left[:, -2]) if same_object else reference_factor(b2)
    out = left @ right.T
    # Cancellation can leave tiny negatives and downstream exp(-d^2) needs
    # d^2 >= 0.
    np.maximum(out, 0.0, out=out)
    if same_object:
        np.fill_diagonal(out, 0.0)
    return out


def shuffle_split(
    n: int, fractions: list[float] | tuple[float, ...], rng: np.random.Generator
) -> list[np.ndarray]:
    """Split indices 0..n-1 into disjoint shuffled parts sized by ``fractions``.

    Fractions must be positive and sum to 1. Part i gets floor(n * f_i)
    indices; the last part absorbs the remainder. Deterministic given the
    generator state.
    """
    fractions = list(fractions)
    if not fractions:
        raise ValueError("fractions must be nonempty")
    if not all(f > 0.0 for f in fractions):  # so NaN fails too
        raise ValueError(f"fractions must each be > 0, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    if n < len(fractions):
        raise ValueError(f"cannot split {n} items into {len(fractions)} parts")

    perm = rng.permutation(n)
    sizes = [int(np.floor(n * f)) for f in fractions[:-1]]
    sizes.append(n - sum(sizes))
    parts = []
    start = 0
    for size in sizes:
        parts.append(perm[start : start + size])
        start += size
    return parts
