"""Embedding network: an MLP with dropout, manual backprop, and Adam.

The network maps raw features to a low-dimensional embedding through
rectified hidden layers and a final linear projection. Both output heads
sit on top of this embedding: the softmax head needs the projection width
to equal the class count, the weighted-averaging head can use any width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, gaussian_sample


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer sizes input -> hidden... -> embedding, plus dropout.

    Hidden layers use the rectifier; the final projection is linear.
    Dropout applies after each hidden activation, never after the
    projection.
    """

    layer_sizes: tuple[int, ...]
    dropout_prob: float = 0.0

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {self.layer_sizes}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError(f"dropout_prob must be in [0, 1), got {self.dropout_prob}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]


SOFTMAX = "softmax"
DWAC = "dwac"
HEADS = (SOFTMAX, DWAC)


@dataclass
class EmbeddingModel:
    """MLP parameters plus the head kind served by the embedding."""

    spec: MlpSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: str

    def __post_init__(self):
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}, got {self.head!r}")
        sizes = self.spec.layer_sizes
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("parameter count does not match layer sizes")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise ValueError(f"layer {i} parameter shapes do not chain with spec")

    @property
    def h_dim(self) -> int:
        return self.spec.output_dim

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def set_parameters(self, params: list[np.ndarray]) -> None:
        n = len(self.weights)
        if len(params) != 2 * n:
            raise ValueError(f"expected {2 * n} parameter arrays, got {len(params)}")
        self.weights = [params[2 * i] for i in range(n)]
        self.biases = [params[2 * i + 1] for i in range(n)]

    def copy_parameters(self) -> list[np.ndarray]:
        return [p.copy() for p in self.parameters()]


def init_model(
    spec: MlpSpec, head: str, rng: np.random.Generator
) -> EmbeddingModel:
    """Fresh model: zero biases, Gaussian weights with std sqrt(2 / fan_in)."""
    weights = []
    biases = []
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(gaussian_sample(fan_in, fan_out, scale, rng))
        biases.append(np.zeros(fan_out))
    return EmbeddingModel(spec=spec, weights=weights, biases=biases, head=head)


def forward(
    model: EmbeddingModel,
    x: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Embed a batch of rows; returns (embeddings, cache for backward).

    In train mode each hidden unit is zeroed independently with
    probability ``dropout_prob`` and the survivors are scaled by 1/(1-p),
    so eval needs no rescaling. The cache keeps every layer's input,
    pre-activation and mask for ``backward``.

    In eval mode dropout is the identity and the cache is None: nothing
    backpropagates through an eval pass, so each layer's fresh product is
    rectified in place and let go once the next layer has used it, and the
    pass never holds more than one layer's input and its product. It is
    not split into blocks of rows, which would bound memory further,
    because OpenBLAS rounds a row block's GEMM differently from the whole
    one for some shapes (a 9,000 x 36 by 36 x 4 product differs at every
    block size tried), and embeddings must not depend on a block size.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = as_matrix(x, "x")
    if x.shape[1] != model.spec.input_dim:
        raise ValueError(
            f"input has {x.shape[1]} columns, model expects {model.spec.input_dim}"
        )
    if mode == "eval":
        a = x
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            a = a @ w
            a += b
            np.maximum(a, 0.0, out=a)
        h = a @ model.weights[-1]
        h += model.biases[-1]
        return h, None

    p = model.spec.dropout_prob
    use_dropout = p > 0.0
    if use_dropout and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng")

    n_layers = len(model.weights)
    inputs = []   # activation fed into each layer
    pre = []      # pre-activation of each hidden layer
    masks = []    # dropout masks (scaled), hidden layers only
    a = x
    for i in range(n_layers - 1):
        inputs.append(a)
        z = a @ model.weights[i]
        z += model.biases[i]
        pre.append(z)
        a = np.maximum(z, 0.0)
        if use_dropout:
            mask = (rng.random(a.shape) >= p) / (1.0 - p)
            a *= mask  # a is this layer's own array
            masks.append(mask)
        else:
            masks.append(None)
    inputs.append(a)
    h = a @ model.weights[-1]
    h += model.biases[-1]

    cache = {
        "inputs": inputs,
        "pre": pre,
        "masks": masks,
        "param_ids": tuple(id(p_) for p_ in model.parameters()),
        "batch": x.shape[0],
    }
    return h, cache


def backward(
    model: EmbeddingModel, cache: dict | None, d_h: np.ndarray
) -> list[np.ndarray]:
    """Gradients of a scalar loss w.r.t. every parameter, given dLoss/dH.

    The cache must come from a forward pass against the model's current
    parameter arrays; a stale cache (parameters replaced since) is
    rejected, and so is None, which an eval-mode forward returns.
    """
    if cache is None:
        raise ValueError("backward needs the cache of a train-mode forward; "
                         "an eval-mode forward keeps none")
    if cache.get("param_ids") != tuple(id(p) for p in model.parameters()):
        raise ValueError("stale cache: model parameters changed since forward")
    d_h = np.asarray(d_h, dtype=np.float64)
    if d_h.shape != (cache["batch"], model.h_dim):
        raise ValueError(f"dLoss/dH shape {d_h.shape} does not match forward output")

    n_layers = len(model.weights)
    grads: list[np.ndarray | None] = [None] * (2 * n_layers)
    d_a = d_h
    for i in range(n_layers - 1, -1, -1):
        grads[2 * i] = cache["inputs"][i].T @ d_a
        grads[2 * i + 1] = d_a.sum(axis=0)
        if i > 0:
            d_a = d_a @ model.weights[i].T
            mask = cache["masks"][i - 1]
            if mask is not None:
                d_a *= mask
            d_a *= cache["pre"][i - 1] > 0.0
    return grads


@dataclass
class AdamState:
    """Adam accumulators for a flat parameter list."""

    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_parameters(
        cls, params: list[np.ndarray], learning_rate: float = 0.001
    ) -> "AdamState":
        return cls(
            learning_rate=learning_rate,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update; pure, returns new params and state.

    Raises on non-finite gradients instead of silently continuing.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and state must have matching lengths")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient passed to adam_step")

    t = state.step + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    new_params = []
    new_m = []
    new_v = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m_next = state.beta1 * m + (1.0 - state.beta1) * g
        v_next = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        m_hat = m_next / bc1
        v_hat = v_next / bc2
        new_params.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon))
        new_m.append(m_next)
        new_v.append(v_next)
    new_state = AdamState(
        learning_rate=state.learning_rate,
        beta1=state.beta1,
        beta2=state.beta2,
        epsilon=state.epsilon,
        step=t,
        m=new_m,
        v=new_v,
    )
    return new_params, new_state
