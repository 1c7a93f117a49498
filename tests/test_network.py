from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from dwac_kit import Dataset
from dwac_kit.data import Schema, encode_rows, fit_stats, read_csv_rows
from dwac_kit.linalg import make_rng
from dwac_kit.network import (
    DWAC,
    GATHER_ROWS,
    SOFTMAX,
    EmbeddingModel,
    Inputs,
    MlpSpec,
    adam_step,
    backward,
    forward,
    init_model,
)
from helpers import (
    dense,
    encode_rows_oracle,
    eval_forward_oracle,
    read_rows_oracle,
    write_csv_data,
)


def small_model(sizes=(4, 6, 3), dropout=0.0, seed=0, head=DWAC):
    return init_model(MlpSpec(layer_sizes=sizes, dropout_prob=dropout), head, make_rng(seed))


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec(layer_sizes=(4,))
    with pytest.raises(ValueError):
        MlpSpec(layer_sizes=(4, 0, 2))
    with pytest.raises(ValueError):
        MlpSpec(layer_sizes=(4, 2), dropout_prob=1.0)


def test_model_shape_validation():
    spec = MlpSpec(layer_sizes=(3, 2))
    with pytest.raises(ValueError):
        EmbeddingModel(spec=spec, weights=[np.zeros((3, 3))], biases=[np.zeros(2)], head=DWAC)
    with pytest.raises(ValueError):
        EmbeddingModel(spec=spec, weights=[np.zeros((3, 2))], biases=[np.zeros(2)], head="mlp")


def test_init_model_statistics():
    model = small_model(sizes=(200, 300, 4), seed=3)
    w0 = model.weights[0]
    assert abs(w0.std() - np.sqrt(2.0 / 200)) < 0.005
    assert all(np.all(b == 0.0) for b in model.biases)
    again = small_model(sizes=(200, 300, 4), seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(model.parameters(), again.parameters()))


def test_forward_eval_deterministic():
    model = small_model(dropout=0.5)
    x = make_rng(1).standard_normal((5, 4))
    h1, _ = forward(model, x, mode="eval")
    h2, _ = forward(model, x, mode="eval")
    assert np.array_equal(h1, h2)
    assert h1.shape == (5, 3)


@pytest.mark.parametrize("sizes", [(4, 3), (4, 6, 3), (5, 7, 6, 3)])
@pytest.mark.parametrize("rows", [1, 2, 4097])
def test_eval_forward_keeps_no_cache_and_equals_the_layer_oracle(sizes, rows):
    # dropout > 0 models: eval must still be the identity on the hidden units
    for dropout in (0.2, 0.5):
        model = small_model(sizes=sizes, dropout=dropout, seed=rows)
        for b in model.biases:
            b += make_rng(rows).standard_normal(b.shape)
        x = make_rng(rows, 1).standard_normal((rows, sizes[0]))
        before = x.copy()
        h, cache = forward(model, x, mode="eval")
        assert cache is None
        assert h.dtype == np.float64 and h.shape == (rows, sizes[-1])
        assert h.tobytes() == eval_forward_oracle(model, x).tobytes()
        assert np.array_equal(x, before)  # rectified in place, but never the input


def test_eval_forward_holds_one_product_per_layer():
    # an eval pass may hold each layer's product once plus the output, not a
    # rectified copy beside every pre-activation and a cache of them all
    sizes = (20, 64, 32, 4)
    model = small_model(sizes=sizes, dropout=0.2)
    x = make_rng(3).standard_normal((2000, sizes[0]))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        h, _ = forward(model, x, mode="eval")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert h.shape == (2000, 4)
    products = 8 * x.shape[0] * sum(sizes[1:])
    assert peak <= products + 64 * 1024, (peak, products)


def _adult_shaped(rows, seed):
    """Inputs shaped like encoded Adult rows: 5 continuous columns, then 8
    categorical ones of 17 values each, 141 rows of W in all."""
    rng = make_rng(seed)
    slots = 5 + 17 * np.arange(8) + rng.integers(0, 17, size=(rows, 8))
    return Inputs(rng.standard_normal((rows, 5)), slots.astype(np.int32), np.arange(5), 141)


# an 8-column blob matrix with the default hidden sizes, Adult-shaped codes,
# and 36 continuous columns with hidden (36, 4), whose whole-matrix product
# OpenBLAS rounds otherwise than its row blocks
EMBEDDING_INPUTS = {
    "blobs": ((8, 32, 8, 4), lambda rows: make_rng(11).standard_normal((rows, 8))),
    "adult": ((141, 32, 8, 2), lambda rows: _adult_shaped(rows, 12)),
    "wide": ((36, 36, 4, 3), lambda rows: make_rng(13).standard_normal((rows, 36))),
}


@pytest.mark.parametrize("kind", EMBEDDING_INPUTS)
def test_eval_embeddings_do_not_depend_on_the_batch(kind):
    # a row alone, two rows, and a block and a row at an odd offset (across
    # block edges) embed bit for bit as in a full pass
    sizes, make = EMBEDDING_INPUTS[kind]
    model = small_model(sizes=sizes, seed=4)
    for b in model.biases:
        b += make_rng(5).standard_normal(b.shape)
    x = make(3 * GATHER_ROWS + 5)
    full, _ = forward(model, x, mode="eval")
    parts = [(0, 1), (GATHER_ROWS, GATHER_ROWS + 1), (len(full) - 1, len(full)),
             (GATHER_ROWS - 1, GATHER_ROWS + 1), (511, 511 + GATHER_ROWS + 1)]
    for start, stop in parts:
        h, _ = forward(model, x[start:stop], mode="eval")
        assert h.tobytes() == full[start:stop].tobytes(), (start, stop)


@pytest.mark.parametrize("kind", EMBEDDING_INPUTS)
def test_an_eval_pass_holds_one_block_of_activations(kind):
    # 40 blocks' worth of rows: the pass may hold its output and a few
    # blocks of the widest layer, never a layer's product over every row
    sizes, make = EMBEDDING_INPUTS[kind]
    model = small_model(sizes=sizes, seed=6)
    x = make(40 * GATHER_ROWS)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        h, _ = forward(model, x, mode="eval")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = h.nbytes + 4 * 8 * GATHER_ROWS * max(sizes[1:])
    assert peak <= bound, (peak, bound)


def test_rows_of_inputs_are_those_rows_without_a_new_check(monkeypatch):
    x = _adult_shaped(300, 7)
    idx = make_rng(8).permutation(300)[:128]
    monkeypatch.setattr(Inputs, "__post_init__", None)  # a check would raise
    for rows, part in ((idx, x[idx]), (slice(10, 138), x[10:138])):
        assert part.cont.tobytes() == x.cont[rows].tobytes()
        assert part.slots.tobytes() == x.slots[rows].tobytes()
        assert part.cont.flags.c_contiguous and part.slots.flags.c_contiguous
        assert part.cont_rows is x.cont_rows and part.width == x.width


def _close(a, b, rtol=1e-12):
    return np.abs(a - b).max() <= rtol * np.abs(b).max()


def test_forward_on_codes_equals_the_dense_one_hot_oracle(tmp_path):
    # moments and vocabularies from the rows of classes a and b only, so the
    # purple rows of class c hold a colour unseen there: the unknown row
    path, schema_path = write_csv_data(tmp_path)
    schema = Schema.from_file(schema_path)
    table, _ = read_csv_rows(path, schema)
    rows, _ = read_rows_oracle(path, schema)
    stats = fit_stats(table, schema, index=[i for i, r in enumerate(rows) if r["species"] != "c"])
    assert "purple" not in stats.vocabs["color"]
    coded = encode_rows(table, schema, stats).x
    oracle = encode_rows_oracle(rows, schema, stats).x
    unknown = coded.width - 1
    assert (coded.slots == unknown).any()
    batch = coded[:64]
    assert len(np.unique(batch.slots)) < 64  # rows of one batch share slots
    model = small_model(sizes=(coded.width, 6, 3), seed=2)
    for b in model.biases:
        b += make_rng(5).standard_normal(b.shape)
    assert _close(forward(model, coded)[0], forward(model, oracle)[0])
    assert _close(forward(model, coded)[0], eval_forward_oracle(model, oracle.cont))
    h, cache = forward(model, batch, mode="train")
    h_dense, cache_dense = forward(model, oracle[:64], mode="train")
    assert _close(h, h_dense)
    d = make_rng(6).standard_normal(h.shape)
    for g, g_dense in zip(backward(model, cache, d), backward(model, cache_dense, d)):
        assert _close(g, g_dense)


def test_backward_is_the_gradient_of_any_slots():
    # the encoder gives each column its own rows, but a hand-made row may
    # select a row twice or a continuous column's row: its product with W
    # counts each selection, and so does the gradient
    x = Inputs(make_rng(7).standard_normal((4, 2)),
               np.array([[2, 2], [0, 3], [3, 1], [4, 4]], dtype=np.int32), [0, 1], 5)
    model = small_model(sizes=(5, 3), seed=8)
    d = make_rng(9).standard_normal((4, 3))
    h, cache = forward(model, x, mode="train")
    h_dense, cache_dense = forward(model, dense(x), mode="train")
    assert _close(h, h_dense)
    for g, g_dense in zip(backward(model, cache, d), backward(model, cache_dense, d)):
        assert _close(g, g_dense)


def test_all_continuous_rows_take_the_plain_product_bit_for_bit():
    # data with no categorical columns (every blob set) runs x @ W + b
    # forward and x.T @ d backward, bit for bit
    model = small_model(sizes=(5, 7), seed=3)
    model.biases[0] += make_rng(3).standard_normal(7)
    x = make_rng(4).standard_normal((130, 5))
    d = make_rng(5).standard_normal((130, 7))
    for rows in (x, Dataset(x=x, y=None, num_classes=2).x):
        for mode in ("eval", "train"):
            h, cache = forward(model, rows, mode=mode)
            assert h.tobytes() == (x @ model.weights[0] + model.biases[0]).tobytes()
        grads = backward(model, cache, d)
        assert grads[0].tobytes() == (x.T @ d).tobytes()
        assert grads[1].tobytes() == d.sum(axis=0).tobytes()


def test_inputs_checks():
    cont = np.zeros((3, 1))
    with pytest.raises(ValueError, match="slots must be an int32"):
        Inputs(cont, np.zeros((3, 1), dtype=np.int64), [0], 4)
    with pytest.raises(ValueError, match="slots must lie in 0..3"):
        Inputs(cont, np.full((3, 1), 4, dtype=np.int32), [0], 4)
    with pytest.raises(ValueError, match="cannot feed 4 rows"):
        Inputs(cont, np.zeros((3, 0), dtype=np.int32), [0], 4)
    with pytest.raises(ValueError, match="non-finite"):
        Inputs(np.full((3, 1), np.inf), np.zeros((3, 1), dtype=np.int32), [0], 4)
    with pytest.raises(ValueError, match="input has 4 columns, model expects 5"):
        forward(small_model(sizes=(5, 2)), Inputs(cont, np.ones((3, 1), dtype=np.int32),
                                                  [0], 4))


def test_forward_input_checks():
    model = small_model()
    with pytest.raises(ValueError):
        forward(model, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        forward(model, np.zeros((2, 4)), mode="predict")
    with pytest.raises(ValueError):
        forward(model, np.zeros((2, 4)), mode="train")  # dropout 0 is fine without rng
        forward(small_model(dropout=0.2), np.zeros((2, 4)), mode="train")


def test_dropout_zeroes_and_rescales():
    model = small_model(sizes=(10, 400, 2), dropout=0.25, seed=5)
    x = np.abs(make_rng(2).standard_normal((3, 10))) + 0.5
    _, cache = forward(model, x, mode="train", rng=make_rng(9))
    mask = cache["masks"][0]
    values = np.unique(np.round(mask, 12))
    assert set(values.tolist()) <= {0.0, round(1 / 0.75, 12)}
    drop_rate = np.mean(mask == 0.0)
    assert abs(drop_rate - 0.25) < 0.03


def test_backward_matches_finite_differences():
    # scalarize through a fixed projection so one backward call checks
    # every parameter of every layer
    rng = make_rng(4)
    model = small_model(sizes=(3, 5, 4, 2), seed=7)
    # zero-init biases can park pre-activations exactly on the rectifier
    # kink (dead rows), which breaks finite differences; nudge them off
    for b in model.biases:
        b += 0.05 * rng.standard_normal(b.shape)
    x = rng.standard_normal((6, 3))
    g = rng.standard_normal((6, 2))

    def loss_value():
        h, _ = forward(model, x, mode="eval")
        return float(np.sum(h * g))

    h, cache = forward(model, x, mode="train")  # dropout 0: the eval computation
    grads = backward(model, cache, g)
    assert all(np.min(np.abs(p)) > 1e-3 for p in cache["pre"])  # clear of the kink

    eps = 1e-6
    worst = 0.0
    for p, dp in zip(model.parameters(), grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = p[idx]
            p[idx] = keep + eps
            up = loss_value()
            p[idx] = keep - eps
            down = loss_value()
            p[idx] = keep
            fd = (up - down) / (2 * eps)
            worst = max(worst, abs(fd - dp[idx]) / max(1.0, abs(fd)))
    assert worst < 1e-6


def test_backward_rejects_stale_cache():
    model = small_model()
    x = make_rng(0).standard_normal((4, 4))
    _, cache = forward(model, x, mode="train")
    model.set_parameters(model.copy_parameters())  # fresh arrays, same values
    with pytest.raises(ValueError):
        backward(model, cache, np.zeros((4, 3)))


def test_backward_refuses_an_eval_pass():
    model = small_model()
    h, cache = forward(model, make_rng(0).standard_normal((4, 4)), mode="eval")
    with pytest.raises(ValueError, match="train-mode forward"):
        backward(model, cache, np.zeros_like(h))


def test_adam_single_step_hand_computed():
    p, m, v = np.array([1.0]), np.zeros(1), np.zeros(1)
    new_p, new_m, new_v = adam_step(p, np.array([0.5]), m, v, 1, 0.001)
    # bias correction makes the first update lr * g/|g| up to epsilon
    expected = 1.0 - 0.001 * 0.5 / (0.5 + 1e-8)
    assert abs(new_p[0] - expected) < 1e-15
    assert new_m[0] == pytest.approx(0.1 * 0.5) and new_v[0] == pytest.approx(0.001 * 0.25)
    assert p[0] == 1.0 and m[0] == 0.0 and v[0] == 0.0  # inputs untouched


def test_adam_rejects_nonfinite_gradient():
    with pytest.raises(ValueError):
        adam_step(np.array([1.0]), np.array([np.nan]), np.zeros(1), np.zeros(1), 1, 0.001)


def test_adam_descends_quadratic():
    p, m, v = np.array([3.0]), np.zeros(1), np.zeros(1)
    for step in range(1, 501):
        p, m, v = adam_step(p, 2.0 * p, m, v, step, 0.05)
    assert abs(p[0]) < 0.01


def test_softmax_head_width_is_free_of_head_logic():
    # both heads accept any spec; width policy lives in the trainer
    model = small_model(head=SOFTMAX)
    assert model.head == SOFTMAX
