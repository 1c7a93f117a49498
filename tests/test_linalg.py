from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from dwac_kit.heads import kernel_weights
from dwac_kit.linalg import (
    as_matrix,
    gaussian_sample,
    make_rng,
    pairwise_sq_distances,
    shuffle_split,
)
from helpers import pairwise_sq_oracle


def test_make_rng_reproducible():
    a = make_rng(123).standard_normal(8)
    b = make_rng(123).standard_normal(8)
    assert np.array_equal(a, b)


def test_make_rng_streams_differ():
    a = make_rng(123, 0).standard_normal(8)
    b = make_rng(123, 1).standard_normal(8)
    assert not np.array_equal(a, b)


def test_as_matrix_validates():
    with pytest.raises(ValueError):
        as_matrix(np.zeros(3), "v")
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.nan]]), "v")
    out = as_matrix([[1, 2], [3, 4]], "v")
    assert out.dtype == np.float64 and out.flags["C_CONTIGUOUS"]


def test_pairwise_matches_bruteforce():
    rng = make_rng(7)
    for _ in range(5):
        a = rng.standard_normal((6, 4)) * 3
        b = rng.standard_normal((5, 4)) * 3
        got = pairwise_sq_distances(a, b)
        assert np.max(np.abs(got - pairwise_sq_oracle(a, b))) < 1e-10


def test_pairwise_self_diagonal_exactly_zero():
    # expansion-trick rounding must not leak onto the self-distance diagonal
    a = make_rng(11).standard_normal((40, 9)) * 100
    d = pairwise_sq_distances(a, a)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0)


def test_pairwise_offset_rows_with_near_duplicates():
    # a 1e3 offset makes ||a||^2 + ||b||^2 - 2 a.b cancel heavily; pairs
    # 1e-6 apart must still come out close to the loops, and never negative
    rng = make_rng(12)
    a = 1e3 + rng.standard_normal((30, 4))
    b = np.concatenate([a[:10] + 1e-6 * rng.standard_normal((10, 4)),
                        1e3 + rng.standard_normal((15, 4))])
    got = pairwise_sq_distances(a, b)
    assert np.max(np.abs(got - pairwise_sq_oracle(a, b))) <= 1e-6
    assert np.all(got >= 0.0)
    same = pairwise_sq_distances(a, a)
    assert np.max(np.abs(same - pairwise_sq_oracle(a, a))) <= 1e-6
    assert np.all(same >= 0.0)
    assert np.all(np.diag(same) == 0.0)


def test_pairwise_edge_shapes():
    b = make_rng(13).standard_normal((5, 3))
    assert pairwise_sq_distances(np.zeros((0, 3)), b).shape == (0, 5)
    a1 = make_rng(14).standard_normal((4, 1))
    b1 = make_rng(15).standard_normal((6, 1))
    assert np.max(np.abs(pairwise_sq_distances(a1, b1) - pairwise_sq_oracle(a1, b1))) < 1e-12


@pytest.mark.parametrize("kernel", [pairwise_sq_distances, kernel_weights])
def test_pairwise_allocates_one_q_by_t_array(kernel):
    # the augmented factors are q x (d + 2) and t x (d + 2); the product is
    # the only q x t allocation, and kernel_weights works on it in place
    rng = make_rng(16)
    a = rng.standard_normal((1_000, 4))
    b = rng.standard_normal((2_000, 4))
    tracemalloc.start()
    try:
        kernel(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 1_000 * 2_000 * 8


def test_pairwise_dim_mismatch():
    with pytest.raises(ValueError):
        pairwise_sq_distances(np.zeros((2, 3)), np.zeros((2, 4)))


def test_shuffle_split_partitions():
    rng = make_rng(3)
    parts = shuffle_split(103, (0.6, 0.2, 0.2), rng)
    assert [len(p) for p in parts] == [61, 20, 22]  # last part absorbs remainder
    joined = np.sort(np.concatenate(parts))
    assert np.array_equal(joined, np.arange(103))


def test_shuffle_split_rejects_bad_fractions():
    rng = make_rng(3)
    with pytest.raises(ValueError):
        shuffle_split(10, (0.5, 0.4), rng)
    with pytest.raises(ValueError):
        shuffle_split(10, (), rng)
    with pytest.raises(ValueError):
        shuffle_split(2, (0.5, 0.3, 0.2), rng)
    # NaN passes both "f <= 0" and "abs(sum - 1) > tol"; inf fails the sum
    for bad in (float("nan"), float("inf"), float("-inf")):
        for fractions in ((bad, 0.5, 0.5), (0.5, 0.5, bad)):
            with pytest.raises(ValueError, match="fractions"):
                shuffle_split(10, fractions, rng)


def test_shuffle_split_deterministic():
    a = shuffle_split(50, (0.7, 0.3), make_rng(9))
    b = shuffle_split(50, (0.7, 0.3), make_rng(9))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


def test_gaussian_sample_scale():
    s = gaussian_sample(2000, 3, 0.5, make_rng(21))
    assert s.shape == (2000, 3)
    assert abs(s.std() - 0.5) < 0.02
    with pytest.raises(ValueError):
        gaussian_sample(2, 2, 0.0, make_rng(0))
