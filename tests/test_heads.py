from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import threading
import tracemalloc

from dwac_kit import heads
from dwac_kit.heads import (
    BLOCK_ENTRIES,
    EmbeddedTrainingSet,
    dwac_batch_loss,
    dwac_predict,
    kernel_blocks,
    kernel_weights,
    row_blocks,
    softmax_batch_loss,
    softmax_predict,
)
from dwac_kit.linalg import make_rng
from helpers import (
    CPU_COUNTS,
    class_weight_sums_oracle,
    dwac_batch_loss_oracle,
    dwac_predict_oracle,
    kernel_matrix,
    loo_loss_oracle,
    shifted_kernel_oracle,
    use_cpus,
)


def random_train(seed, t=25, d=4, c=3):
    rng = make_rng(seed)
    return EmbeddedTrainingSet(
        h=rng.standard_normal((t, d)),
        labels=rng.integers(0, c, size=t),
        num_classes=c,
    )


def test_kernel_weight_values():
    a = np.zeros((1, 2))
    b = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    w = kernel_weights(a, b, sigma=0.5)
    assert w[0, 0] == 1.0  # zero distance
    assert abs(w[0, 1] - np.exp(-1.0)) < 1e-15
    assert abs(w[0, 2] - np.exp(-4.0)) < 1e-15


def test_dwac_predict_matches_oracle():
    for seed in range(4):
        train = random_train(seed)
        q = make_rng(100 + seed).standard_normal((10, 4))
        preds = dwac_predict(q, train)
        ref = dwac_predict_oracle(q, train.h, train.labels, train.num_classes, 0.5)
        assert np.max(np.abs(preds.probs - ref)) < 1e-12
        assert np.array_equal(preds.predicted, np.argmax(ref, axis=1))
        assert np.allclose(preds.probs.sum(axis=1), 1.0)


def test_dwac_predict_weight_sums_consistent():
    train = random_train(7)
    q = make_rng(8).standard_normal((6, 4))
    preds = dwac_predict(q, train)
    totals = preds.weight_sums.sum(axis=1, keepdims=True)
    assert np.max(np.abs(preds.probs - preds.weight_sums / totals)) < 1e-12


def test_far_queries_take_the_class_of_their_nearest_reference_row():
    # every unshifted weight underflows to 0.0 here; the shifted ones do not
    train = random_train(3, t=200)
    rng = make_rng(4)
    q = np.vstack([np.full((1, 4), 1e4), rng.standard_normal((30, 4)) * 300.0])
    assert np.all(kernel_weights(q, train.h) == 0.0)
    preds = dwac_predict(q, train)
    assert np.all(np.isfinite(preds.probs))
    assert np.allclose(preds.probs.sum(axis=1), 1.0)
    nearest = np.argmin(((q[:, None, :] - train.h[None, :, :]) ** 2).sum(axis=2), axis=1)
    assert np.array_equal(preds.predicted, train.labels[nearest])
    assert np.all(preds.probs.max(axis=1) > 0.5)
    # the absolute weight sums still underflow, which neg_weight_sum reads
    assert np.all(preds.weight_sums == 0.0)
    ref = dwac_predict_oracle(q[:5], train.h, train.labels, train.num_classes, 0.5)
    assert np.max(np.abs(preds.probs[:5] - ref)) < 1e-12


def test_dwac_predict_errors():
    train = random_train(1)
    with pytest.raises(ValueError):
        dwac_predict(np.zeros((2, 5)), train)  # wrong width
    with pytest.raises(ValueError):
        dwac_predict(np.zeros((2, 4)), train, sigma=0.0)
    empty = EmbeddedTrainingSet(h=np.zeros((0, 4)), labels=np.zeros(0, dtype=np.int64),
                                num_classes=3)
    with pytest.raises(ValueError):
        dwac_predict(np.zeros((2, 4)), empty)


def test_row_blocks_cover_every_row_once():
    assert row_blocks(0, 10) == [slice(0, 0)]
    assert row_blocks(5, BLOCK_ENTRIES + 1) == [slice(i, i + 1) for i in range(5)]
    # at most 6 rows of 20,000 entries per block, split evenly
    blocks = row_blocks(250, 20_000)
    assert len(blocks) == 42 and {b.stop - b.start for b in blocks} == {5, 6}
    assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
    assert (blocks[0].start, blocks[-1].stop) == (0, 250)
    assert row_blocks(6, 20_000) == [slice(0, 6)]


@pytest.mark.parametrize("rows", [250, 1_250])
def test_weight_sums_do_not_depend_on_the_block_size(monkeypatch, rows):
    # 2**12 to 2**15 give one-row blocks at t = 20,000, 2**16 three rows and
    # 2**21 104; 2**40 puts every query in one block
    train = random_train(11, t=20_000, d=4, c=4)
    q = make_rng(12).standard_normal((rows, 4))
    sums = []
    for entries in [*(1 << e for e in range(12, 22)), 1 << 40]:
        monkeypatch.setattr(heads, "BLOCK_ENTRIES", entries)
        sums.append(dwac_predict(q, train).weight_sums)
    for other in sums[1:]:
        assert np.array_equal(other, sums[0])
    sample = slice(None, None, 125)
    oracle = class_weight_sums_oracle(q[sample], train.h, train.labels, 4, 0.5)
    assert np.allclose(sums[0][sample], oracle, rtol=1e-12, atol=0.0)


def test_kernel_blocks_ignore_the_block_size_at_any_reference_size(monkeypatch):
    # t = 2,003 leaves BLAS a partial tile of columns (t mod 8 = 3); blocks of
    # 1 (padded to 2), 3, 13 and 104 rows, and one block of all 300
    train = random_train(19, t=2_003, d=3, c=3)
    q = make_rng(20).standard_normal((300, 3))
    runs = []
    for rows in (1, 3, 13, 104, 300):
        monkeypatch.setattr(heads, "BLOCK_ENTRIES", rows * 2_003)
        runs.append(kernel_matrix(q, train))
    for other in runs[1:]:
        assert np.array_equal(other, runs[0])


@pytest.mark.parametrize("sigma", [0.5, 0.7, 1.3])
def test_engine_entries_equal_kernel_weights(sigma):
    # bit for bit the one-shot shifted kernel, and kernel_weights to rounding
    # once the offsets are added back: folding 1/(2 sigma) into the query
    # factor rounds otherwise than scaling the distances
    train = random_train(17, t=3_000, d=3, c=3)
    q = make_rng(18).standard_normal((100, 3))
    one_shot, one_shot_offset = shifted_kernel_oracle(q, train, sigma)
    covered = []

    def check(rows, w, sums):
        assert np.array_equal(w, one_shot[rows])
        assert sums.shape == (rows.stop - rows.start, 3)
        covered.append(w.shape[0])

    _, offset = kernel_blocks(q, train, check, sigma)
    assert sum(covered) == 100
    assert np.array_equal(offset, one_shot_offset)
    absolute = one_shot * np.exp(offset)[:, None]
    assert np.allclose(absolute, kernel_weights(q, train.h, sigma)[:, train.order],
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("sigma", [0.5, 0.7, 1.3])
def test_query_rows_equal_to_reference_rows_weigh_exactly_one(sigma):
    # ||a||^2 + ||a||^2 - 2 a.a rounds below zero for some rows, so the
    # engine's product, its scaled negation, is the row's largest entry and
    # above zero (the offset); the shift takes it to 0 and exp to 1.0, with
    # no clamp
    train = random_train(23, t=2_000, d=5, c=3)
    q = train.h[::10] * 3.0 + 0.1
    train = EmbeddedTrainingSet(h=np.vstack([train.h, q]), labels=np.arange(2_200) % 3,
                                num_classes=3)
    same = (np.arange(200), 2_000 + np.arange(200))
    weights = np.empty((200, 2_200))
    weights[:, train.order] = kernel_matrix(q, train, sigma)
    assert np.all(weights[same] == 1.0) and np.all(np.argmax(weights, axis=1) == same[1])
    _, offset = kernel_blocks(q, train, None, sigma)
    assert np.count_nonzero(offset > 0.0) > 10
    assert np.allclose(weights * np.exp(offset)[:, None], kernel_weights(q, train.h, sigma),
                       rtol=1e-12, atol=0.0)


def test_single_row_blocks_above_the_block_size():
    # Each block is one row here. The one-shot sums below are a GEMM over the
    # whole row, which adds in another order than the per-class sums, so the
    # two agree to rounding rather than bit for bit.
    t = BLOCK_ENTRIES + 3
    train = random_train(13, t=t, d=1, c=2)
    q = make_rng(14).standard_normal((3, 1))
    assert len(row_blocks(3, t)) == 3
    preds = dwac_predict(q, train)
    one_shot = kernel_weights(q, train.h) @ np.eye(train.num_classes)[train.labels]
    assert np.allclose(preds.weight_sums, one_shot, rtol=1e-12, atol=0.0)
    assert np.array_equal(preds.predicted, one_shot.argmax(axis=1))


def test_results_do_not_depend_on_the_thread_count(monkeypatch):
    # 13-row blocks: 24 blocks for 300 queries, cut into 1, 2, 3 and 7 runs of
    # unequal length. t is a multiple of 8, so the one-shot kernel below meets
    # no partial tile of columns and matches the engine bit for bit.
    train = random_train(21, t=2_000, d=3, c=3)
    q = make_rng(22).standard_normal((300, 3))
    monkeypatch.setattr(heads, "BLOCK_ENTRIES", 13 * 2_000)
    one_shot = shifted_kernel_oracle(q, train)[0]
    runs = []
    for n in CPU_COUNTS:
        use_cpus(monkeypatch, n)
        threads = set()
        kernel_blocks(q, train, lambda rows, w, sums: threads.add(threading.current_thread()))
        assert len(threads) == n
        assert np.array_equal(kernel_matrix(q, train), one_shot)
        runs.append(dwac_predict(q, train))
    for other in runs[1:]:
        assert np.array_equal(other.weight_sums, runs[0].weight_sums)
        assert np.array_equal(other.probs, runs[0].probs)


def test_never_more_threads_than_blocks(monkeypatch):
    train = random_train(23, t=50, d=2, c=2)
    use_cpus(monkeypatch, 7)
    for q in (0, 1, 5):
        threads, blocks = set(), []

        def visit(rows, w, sums):
            threads.add(threading.current_thread())
            blocks.append(rows)

        kernel_blocks(np.zeros((q, 2)), train, visit)
        assert threads == {threading.current_thread()} and blocks == row_blocks(q, 50)
    assert dwac_predict(np.zeros((0, 2)), train).weight_sums.shape == (0, 2)


def test_a_thread_runs_at_least_run_blocks(monkeypatch):
    # the default threshold: a helper thread only for RUN_BLOCKS blocks or more
    train = random_train(28, t=100, d=2, c=2)
    monkeypatch.setattr(heads, "BLOCK_ENTRIES", 100)
    monkeypatch.setattr(heads, "usable_cpus", lambda: 3)
    runs = heads.RUN_BLOCKS
    for q, expected in ((2 * runs - 1, 1), (2 * runs, 2), (5 * runs, 3)):
        threads = set()

        def visit(rows, w, sums):
            threads.add(threading.current_thread())

        kernel_blocks(np.zeros((q, 2)), train, visit)
        assert len(threads) == expected


def test_an_error_in_a_helper_thread_is_raised_in_the_caller(monkeypatch):
    train = random_train(24, t=100, d=2, c=2)
    q = make_rng(25).standard_normal((60, 2))
    monkeypatch.setattr(heads, "BLOCK_ENTRIES", 5 * 100)
    use_cpus(monkeypatch, 3)
    baseline = threading.active_count()
    caller = threading.get_ident()

    def visit(rows, w, sums):
        if threading.get_ident() != caller and rows.start >= 40:
            raise KeyError(rows.start)

    with pytest.raises(KeyError, match="40"):
        kernel_blocks(q, train, visit)
    assert threading.active_count() == baseline

    def fail_in_caller(rows, w, sums):
        if threading.get_ident() == caller:
            raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        kernel_blocks(q, train, fail_in_caller)
    assert threading.active_count() == baseline


def test_every_thread_keeps_the_callers_errstate(monkeypatch):
    train = random_train(26, t=100, d=2, c=2)
    q = make_rng(27).standard_normal((60, 2))
    monkeypatch.setattr(heads, "BLOCK_ENTRIES", 5 * 100)
    use_cpus(monkeypatch, 3)
    seen = {}

    def visit(rows, w, sums):
        seen[threading.current_thread()] = np.geterr()

    for state in ({"over": "raise", "invalid": "raise", "divide": "raise", "under": "ignore"},
                  {"over": "ignore", "invalid": "warn", "divide": "call", "under": "print"}):
        seen.clear()
        with np.errstate(**state):
            expected = np.geterr()
            kernel_blocks(q, train, visit)
        assert len(seen) == 3 and all(s == expected for s in seen.values())
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            kernel_blocks(q, train, lambda rows, w, sums: np.float64(1e300) * 1e300)


def test_dwac_predict_memory_is_one_block():
    train = random_train(15, t=20_000, d=4, c=4)
    q = make_rng(16).standard_normal((2_000, 4))
    tracemalloc.start()
    try:
        dwac_predict(q, train)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # the unblocked 2,000 x 20,000 kernel alone is 305 MB


def test_softmax_predict_properties():
    logits = make_rng(5).standard_normal((7, 4)) * 3
    preds = softmax_predict(logits)
    assert np.allclose(preds.probs.sum(axis=1), 1.0)
    shifted = softmax_predict(logits + 100.0)
    assert np.max(np.abs(preds.probs - shifted.probs)) < 1e-12
    assert np.array_equal(preds.predicted, logits.argmax(axis=1))
    huge = softmax_predict(np.array([[1e4, 0.0]]))
    assert np.all(np.isfinite(huge.probs))


def test_dwac_batch_loss_matches_oracle():
    for seed in range(4):
        rng = make_rng(40 + seed)
        h = rng.standard_normal((8, 3))
        y = rng.integers(0, 3, size=8)
        loss, _ = dwac_batch_loss(h, y, 3)
        assert abs(loss - loo_loss_oracle(h, y, 0.5)) < 1e-10


def test_dwac_batch_loss_gradient_fd():
    rng = make_rng(50)
    h = rng.standard_normal((6, 3))
    y = rng.integers(0, 3, size=6)
    _, grad = dwac_batch_loss(h, y, 3)
    eps = 1e-6
    for i in range(h.shape[0]):
        for k in range(h.shape[1]):
            keep = h[i, k]
            h[i, k] = keep + eps
            up = loo_loss_oracle(h, y, 0.5)
            h[i, k] = keep - eps
            down = loo_loss_oracle(h, y, 0.5)
            h[i, k] = keep
            fd = (up - down) / (2 * eps)
            assert abs(fd - grad[i, k]) / max(1.0, abs(fd)) < 1e-5


def test_dwac_batch_loss_clamp_kills_gradient():
    # two far-apart singletons: each instance's same-class mass is zero,
    # so the probability clamps to the floor and the gradient vanishes
    h = np.array([[0.0, 0.0], [200.0, 0.0]])
    y = np.array([0, 1])
    loss, grad = dwac_batch_loss(h, y, 2)
    assert abs(loss - (-np.log(1e-12))) < 1e-9
    assert np.all(grad == 0.0)


def test_dwac_batch_loss_validation():
    with pytest.raises(ValueError):
        dwac_batch_loss(np.zeros((1, 2)), np.array([0]), 2)
    with pytest.raises(ValueError):
        dwac_batch_loss(np.zeros((3, 2)), np.array([0, 1, 5]), 2)


def test_softmax_batch_loss_value_and_gradient():
    rng = make_rng(60)
    logits = rng.standard_normal((5, 3))
    y = rng.integers(0, 3, size=5)
    loss, grad = softmax_batch_loss(logits, y)

    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    ref = -np.mean(np.log(probs[np.arange(5), y]))
    assert abs(loss - ref) < 1e-12

    eps = 1e-6
    for i in range(5):
        for k in range(3):
            keep = logits[i, k]
            logits[i, k] = keep + eps
            up, _ = softmax_batch_loss(logits, y)
            logits[i, k] = keep - eps
            down, _ = softmax_batch_loss(logits, y)
            logits[i, k] = keep
            fd = (up - down) / (2 * eps)
            assert abs(fd - grad[i, k]) < 1e-6


def test_embedded_training_set_validation():
    with pytest.raises(ValueError):
        EmbeddedTrainingSet(h=np.zeros((3, 2)), labels=np.array([0, 1]), num_classes=2)
    with pytest.raises(ValueError):
        EmbeddedTrainingSet(h=np.zeros((2, 2)), labels=np.array([0, 3]), num_classes=2)


# ---------------------------------------------------------------------------
# the leave-one-out loss against its first, plainest numpy form
# ---------------------------------------------------------------------------

@st.composite
def loss_batches(draw):
    """(h, labels, num_classes, sigma): from tight to spread-out batches, where
    rows' unshifted kernel mass underflows (zero-mass rows) or same-class mass
    runs out (floor-clamped rows)."""
    b = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.05, 0.5, 1.0, 3.0, 6.0, 12.0, 40.0]))
    h = rng.standard_normal((b, d)) * scale
    labels = rng.integers(0, c, size=b)
    if draw(st.booleans()):
        labels[:] = labels[0]  # a single-class batch
    return h, labels, c, draw(st.sampled_from([0.5, 0.1, 2.0]))


def _zero_mass_batch():
    return np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]]), np.array([0, 1, 0]), 2, 0.5


def _floor_clamped_batch():
    # rows 0-3 have their classmates 8 away and another class 0.1 away, so
    # 0 < p < 1e-12; rows 4 and 5 are a pair of classmates, p ~ 1
    h = np.array([[0.0], [0.1], [8.0], [8.1], [20.0], [20.3]])
    return h, np.array([0, 1, 0, 1, 0, 0]), 2, 0.5


@given(batch=loss_batches())
@example(batch=(np.array([[0.0, 1.0], [0.5, 0.0]]), np.array([0, 1]), 2, 0.5))  # b = 2
@example(batch=(make_rng(3).standard_normal((9, 3)), np.zeros(9, dtype=np.int64), 1, 0.5))
@example(batch=_zero_mass_batch())
@example(batch=_floor_clamped_batch())
@settings(max_examples=300, deadline=None)
def test_dwac_batch_loss_is_bit_identical_to_the_oracle(batch):
    h, labels, c, sigma = batch
    expected_loss, expected_grad = dwac_batch_loss_oracle(h, labels, c, sigma)
    loss, grad = dwac_batch_loss(h, labels, c, sigma)
    assert loss == expected_loss
    assert np.array_equal(grad, expected_grad, equal_nan=True)


def test_oracle_examples_cover_zero_mass_and_floor_clamped_rows():
    h, y, c, sigma = _zero_mass_batch()
    w = kernel_weights(h, h, sigma)
    np.fill_diagonal(w, 0.0)
    assert np.all(w.sum(axis=1) == 0.0)
    # shifted, row 0's two neighbours tie, row 1 has no classmate nearby and
    # row 2's nearest is its classmate
    loss, grad = dwac_batch_loss(h, y, c, sigma)
    assert loss == pytest.approx((np.log(2.0) - np.log(1e-12)) / 3.0, rel=1e-12)
    assert np.all(np.isfinite(grad))
    h, y, c, sigma = _floor_clamped_batch()
    loss, _ = dwac_batch_loss(h, y, c, sigma)
    assert loss == pytest.approx(-4.0 * np.log(1e-12) / 6.0, rel=1e-12)


@pytest.mark.parametrize("sq_distance", [710.0, 720.0, 730.0, 745.0])
def test_subnormal_kernel_mass_keeps_the_gradient_finite(sq_distance):
    # exp(-d^2) is subnormal here, but the shift weighs the one neighbour 1.0
    loss, grad = dwac_batch_loss(np.array([[0.0], [np.sqrt(sq_distance)]]),
                                 np.array([0, 0]), 1)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros((2, 1)))


def test_subnormal_kernel_mass_gradient_matches_the_closed_form():
    # Row 0 has unshifted weights exp(-720) (same class) and exp(-725), so
    # p0 = 1 / (1 + e^-5); rows 1 and 2 sit on the floor and add no gradient.
    # With x = d02^2 - d01^2, dL/dh_k = -(1 - p0) / 3 * dx/dh_k.
    r1, r2 = np.sqrt(720.0), np.sqrt(725.0)
    h = np.array([[0.0], [r1], [r2]])
    loss, grad = dwac_batch_loss(h, np.array([0, 0, 1]), 2)
    q = 1.0 / (1.0 + np.exp(5.0))
    expected = -q / 3.0 * np.array([[2.0 * (r1 - r2)], [-2.0 * r1], [2.0 * r2]])
    assert np.all(np.isfinite(grad)) and np.all(grad != 0.0)
    assert np.allclose(grad, expected, rtol=1e-6, atol=0.0)
    assert loss == pytest.approx((np.log1p(np.exp(-5.0)) - 2.0 * np.log(1e-12)) / 3.0)
