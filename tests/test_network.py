from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from dwac_kit.linalg import make_rng
from dwac_kit.network import (
    DWAC,
    SOFTMAX,
    EmbeddingModel,
    MlpSpec,
    adam_step,
    backward,
    forward,
    init_model,
)
from helpers import eval_forward_oracle


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
