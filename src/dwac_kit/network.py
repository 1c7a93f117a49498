"""Embedding network: an MLP with dropout, manual backprop, and Adam.

The network maps encoded features to a low-dimensional embedding through
rectified hidden layers and a final linear projection. Both output heads
sit on top of this embedding: the softmax head needs the projection width
to equal the class count, the weighted-averaging head can use any width.

Its input rows are :class:`Inputs`: continuous values, which multiply
their rows of the first weight matrix, and one code per categorical column,
which selects a row of it. That is the product of a one-hot encoding with
the matrix, without the one-hot matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix


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

GATHER_ROWS = 1024  # rows per block of an eval pass

# Adam's decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass(frozen=True)
class Inputs:
    """Rows of first-layer input, as the encoding keeps them.

    ``cont`` holds the continuous columns (rows x c float64), which multiply
    the rows ``cont_rows`` of the first weight matrix W. ``slots`` holds one
    int32 per categorical column and row (rows x k): the row of W that the
    row's value selects. ``width`` is W's row count, the width a one-hot
    encoding would have. Rows with no slots feed every row of W, in order:
    a plain matrix, made by :func:`as_inputs`.
    """

    cont: np.ndarray
    slots: np.ndarray
    cont_rows: np.ndarray
    width: int

    def __post_init__(self):
        cont = as_matrix(self.cont, "features")
        slots = np.asarray(self.slots)
        if slots.ndim != 2 or slots.shape[0] != cont.shape[0] or slots.dtype != np.int32:
            raise ValueError(f"slots must be an int32 array of {cont.shape[0]} rows, "
                             f"got {slots.dtype} of shape {slots.shape}")
        if slots.size and (slots.min() < 0 or slots.max() >= self.width):
            raise ValueError(f"slots must lie in 0..{self.width - 1}")
        cont_rows = np.asarray(self.cont_rows, dtype=np.intp)
        if cont_rows.shape != (cont.shape[1],):
            raise ValueError(f"{cont.shape[1]} continuous columns need as many cont_rows, "
                             f"got shape {cont_rows.shape}")
        if not slots.shape[1] and cont.shape[1] != self.width:
            raise ValueError(f"{cont.shape[1]} continuous columns and no slots "
                             f"cannot feed {self.width} rows")
        object.__setattr__(self, "cont", cont)
        object.__setattr__(self, "slots", np.ascontiguousarray(slots))
        object.__setattr__(self, "cont_rows", cont_rows)

    def __len__(self) -> int:
        return self.cont.shape[0]

    def __getitem__(self, rows) -> "Inputs":
        """The rows ``rows`` (a slice or an index array), as Inputs. They were
        checked when these Inputs were made, so they are not checked again."""
        return _checked(np.ascontiguousarray(self.cont[rows]),
                        np.ascontiguousarray(self.slots[rows]), self.cont_rows, self.width)


def _checked(cont, slots, cont_rows, width) -> Inputs:
    """Inputs of arrays that already hold checked values, built without
    :meth:`Inputs.__post_init__`'s scans."""
    x = object.__new__(Inputs)
    for name, value in zip(("cont", "slots", "cont_rows", "width"),
                           (cont, slots, cont_rows, width)):
        object.__setattr__(x, name, value)
    return x


def as_inputs(x) -> Inputs:
    """``x`` if it is Inputs; else a matrix whose columns are all continuous."""
    if isinstance(x, Inputs):
        return x
    x = as_matrix(x, "features")
    return Inputs(x, np.empty((x.shape[0], 0), dtype=np.int32), np.arange(x.shape[1]),
                  x.shape[1])


def _first_layer(x: Inputs, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x.cont @ W[x.cont_rows] + Σ_k W[slot_k] + b``: the product of the
    one-hot encoding with W, adding each slot's row in column order. With
    no slots it is the plain ``x @ W + b``.

    An eval pass calls it on one ``GATHER_ROWS``-row block at a time, so a
    block's sums stay in cache: a 20,000-row Adult pass takes half the time
    of one add per column over all rows. Each entry takes the same additions
    in the same order whatever the block."""
    z = x.cont @ (w if not x.slots.shape[1] else w[x.cont_rows])
    for column in x.slots.T:
        z += w[column]
    z += b
    return z


def _first_layer_grad(x: Inputs, d: np.ndarray) -> np.ndarray:
    """dLoss/dW of :func:`_first_layer` given dLoss/dz: ``x.cont.T @ d`` in
    the continuous rows, and each row of ``d`` added into its slots' rows.

    The batch's distinct slot rows, and how often each batch row selects
    each of them, make that sum one small product; ``np.add.at`` takes six
    times as long on a 128-row Adult batch, and a one-hot of all W's rows
    grows with W."""
    if not x.slots.shape[1]:
        return x.cont.T @ d
    n = len(x)
    g = np.zeros((x.width, d.shape[1]))
    g[x.cont_rows] = x.cont.T @ d
    hit = np.zeros(x.width, dtype=bool)
    hit[x.slots] = True
    rows = np.flatnonzero(hit)
    position = np.empty(x.width, dtype=np.intp)
    position[rows] = np.arange(rows.size)
    counts = np.bincount((position[x.slots] * n + np.arange(n)[:, None]).ravel(),
                         minlength=rows.size * n)
    g[rows] += counts.reshape(rows.size, n).astype(np.float64) @ d
    return g


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
        weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
        biases.append(np.zeros(fan_out))
    return EmbeddingModel(spec=spec, weights=weights, biases=biases, head=head)


def forward(
    model: EmbeddingModel,
    x: Inputs | np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Embed a batch of rows; returns (embeddings, cache for backward).

    ``x`` is :class:`Inputs`, or a matrix of continuous columns. The first
    layer is ``x.cont @ W[x.cont_rows] + Σ_k W[slot_k] + b`` in both
    modes: each categorical value adds the row of W it selects, as a
    one-hot encoding times W would, and no one-hot matrix is built. Rows
    with no slots take the plain ``x @ W + b``.

    In train mode each hidden unit is zeroed independently with
    probability ``dropout_prob`` and the survivors are scaled by 1/(1-p),
    so eval needs no rescaling. The cache keeps every layer's input,
    pre-activation and mask for ``backward``.

    In eval mode dropout is the identity and the cache is None: nothing
    backpropagates through an eval pass. It embeds ``GATHER_ROWS`` rows at
    a time into one preallocated output, rectifying each layer's product in
    place and letting it go once the next layer has used it, so it holds
    the output and one block's activations. The last block is zero-padded
    to full height (its padded rows select slot 0 of each categorical
    column) and its padded rows' outputs are dropped, so every GEMM has one
    shape. That keeps a row's embedding from depending on the rows embedded
    with it: OpenBLAS rounds some products differently by their row count
    (a one-row product takes its GEMV path, and a 9,000 x 36 by 36 x 4
    product differs from its row blocks), but a row comes out bit for bit
    the same alone, at any offset or in a full batch.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = as_inputs(x)
    if x.width != model.spec.input_dim:
        raise ValueError(
            f"input has {x.width} columns, model expects {model.spec.input_dim}"
        )
    layers = list(zip(model.weights, model.biases))
    if mode == "eval":
        return _embed(x, layers), None

    p = model.spec.dropout_prob
    use_dropout = p > 0.0
    if use_dropout and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng")

    inputs = [x]  # input of each layer: x, then each hidden activation
    pre = []      # pre-activation of each hidden layer
    masks = []    # dropout masks (scaled), hidden layers only
    z = _first_layer(x, *layers[0])
    for w, b in layers[1:]:
        pre.append(z)
        a = np.maximum(z, 0.0)
        if use_dropout:
            mask = (rng.random(a.shape) >= p) / (1.0 - p)
            a *= mask  # a is this layer's own array
            masks.append(mask)
        else:
            masks.append(None)
        inputs.append(a)
        z = a @ w
        z += b

    cache = {
        "inputs": inputs,
        "pre": pre,
        "masks": masks,
        "param_ids": tuple(id(p_) for p_ in model.parameters()),
        "batch": len(x),
    }
    return z, cache


def _embed(x: Inputs, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Eval-mode embeddings of ``x``, one zero-padded ``GATHER_ROWS``-row
    block at a time (see :func:`forward`)."""
    n = len(x)
    out = np.empty((n, layers[-1][1].size))
    for start in range(0, n, GATHER_ROWS):
        block = x[start:start + GATHER_ROWS]
        rows = len(block)
        if rows < GATHER_ROWS:
            cont = np.zeros((GATHER_ROWS, block.cont.shape[1]))
            cont[:rows] = block.cont
            slots = np.zeros((GATHER_ROWS, block.slots.shape[1]), dtype=np.int32)
            slots[:rows] = block.slots
            block = _checked(cont, slots, x.cont_rows, x.width)
        a = _first_layer(block, *layers[0])
        for w, b in layers[1:]:
            np.maximum(a, 0.0, out=a)
            a = a @ w
            a += b
        out[start:start + rows] = a[:rows]
    return out


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
        a = cache["inputs"][i]
        grads[2 * i] = _first_layer_grad(a, d_a) if i == 0 else a.T @ d_a
        grads[2 * i + 1] = d_a.sum(axis=0)
        if i > 0:
            d_a = d_a @ model.weights[i].T
            mask = cache["masks"][i - 1]
            if mask is not None:
                d_a *= mask
            d_a *= cache["pre"][i - 1] > 0.0
    return grads


def adam_step(
    p: np.ndarray,
    g: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    learning_rate: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adam update number ``step`` (from 1) of parameters ``p`` with gradient
    ``g`` and moments ``m`` and ``v``; pure, returns new (p, m, v).

    Raises on a non-finite gradient instead of silently continuing.
    """
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite gradient passed to adam_step")
    m_next = BETA1 * m + (1.0 - BETA1) * g
    v_next = BETA2 * v + (1.0 - BETA2) * (g * g)
    m_hat = m_next / (1.0 - BETA1**step)
    v_hat = v_next / (1.0 - BETA2**step)
    return p - learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON), m_next, v_next
