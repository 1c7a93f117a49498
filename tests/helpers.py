"""Brute-force reference implementations used to pin down the fast paths.

Most of these are written as plain Python loops over scalars, on purpose:
they are the oracles the vectorized kernels are checked against, so they
must not share any code or vectorization tricks with the implementations
under test. The exceptions are the one-shot kernel
(``shifted_kernel_oracle``), the whole q x t kernel of the engine in one
product, the training-step oracles (``dwac_batch_loss_oracle``,
``train_per_array_oracle``), which keep the first, plainest numpy form of
the minibatch step, the layer-by-layer embedding (``eval_forward_oracle``),
and the explanation
oracle (``explain_rows_oracle``), which ranks one row at a time as the
library once did. The block-wide forms must match them bit for bit.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from dwac_kit import (
    Dataset,
    FeatureStats,
    TrainConfig,
    blob_data,
    make_blobs,
    make_rng,
    shuffle_split,
    train,
    trial_splits,
)
from dwac_kit import heads
from dwac_kit.data import (
    ROLE_CONTINUOUS,
    ROLE_LABEL,
    Schema,
    encode_rows,
    fit_stats,
    read_csv_rows,
)
from dwac_kit.explain import explain_with_agreement
from dwac_kit.evaluate import SPLIT_STREAM
from dwac_kit.heads import Predictor, softmax_batch_loss
from dwac_kit.linalg import pairwise_sq_distances, query_factor, reference_factor
from dwac_kit.network import DWAC, GATHER_ROWS, Inputs, adam_step, backward, forward
from dwac_kit.trainer import SHUFFLE_STREAM, build_model

# CPU counts the kernel engine is run at in the thread-count tests: serial,
# the two cores of a small host, an uneven split and more runs than cores.
CPU_COUNTS = (1, 2, 3, 7)


def use_cpus(monkeypatch, n: int) -> None:
    """Make the kernel engine see ``n`` usable CPUs and give a thread as few as
    one block, so it runs ``n`` runs of blocks (fewer when there are fewer
    blocks)."""
    monkeypatch.setattr(heads, "usable_cpus", lambda: n)
    monkeypatch.setattr(heads, "RUN_BLOCKS", 1)


def assert_one_error_line(capsys):
    """stderr holds exactly one line, an ``error:`` line; returns it."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def write_csv_data(tmp_path):
    """A 150-row, three-class CSV (one continuous and one categorical
    feature) and its schema, written under ``tmp_path``."""
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "columns": [{"name": "size", "role": "continuous"},
                    {"name": "color", "role": "categorical"},
                    {"name": "species", "role": "label"}],
        "label_values": ["a", "b", "c"],
    }))
    rng = np.random.default_rng(0)
    lines = ["size,color,species"]
    for i in range(150):
        label = "abc"[i % 3]
        color = "purple" if label == "c" else ["red", "blue"][int(rng.integers(2))]
        lines.append(f"{4 * (i % 3) + rng.normal():.4f},{color},{label}")
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    return str(data), str(schema)


def write_unique_id_csv(tmp_path, rows: int):
    """A two-class CSV of ``rows`` rows with one continuous feature and one
    categorical column that holds a distinct value in every row, and its
    schema, written under ``tmp_path``."""
    schema = tmp_path / "ids_schema.json"
    schema.write_text(json.dumps({
        "columns": [{"name": "size", "role": "continuous"},
                    {"name": "id", "role": "categorical"},
                    {"name": "species", "role": "label"}],
        "label_values": ["a", "b"],
    }))
    data = tmp_path / "ids.csv"
    data.write_text("size,id,species\n" + "".join(
        f"{i % 2 * 4 + i % 7 / 7:.4f},u{i:06d},{'ab'[i % 2]}\n" for i in range(rows)))
    return str(data), str(schema)


def load_csv(path: str, schema: Schema, stats: FeatureStats | None = None) -> Dataset:
    """Read and encode a whole CSV, with stats fitted on the file itself when
    none are given."""
    table, has_labels = read_csv_rows(path, schema)
    if stats is None:
        stats = fit_stats(table, schema)
    return encode_rows(table, schema, stats, has_labels=has_labels)


def decode_lines(lines) -> list:
    """The records of JSON lines, such as ``explain_with_agreement``'s
    explanations, each through ``json.loads``."""
    return [json.loads(line) for line in lines]


def explain(x, model, train, k: int | None = None, sigma: float = 0.5) -> dict:
    """The explanation record of one encoded feature row (one-row Inputs, or
    a vector of continuous features), through ``explain_with_agreement``,
    with ``k`` entries (every training instance unless given)."""
    rows = x if isinstance(x, Inputs) else np.asarray(x, dtype=np.float64)[None, :]
    k = len(train) if k is None else k
    return decode_lines(explain_with_agreement(rows, Predictor(model, sigma, train, {}), k=k,
                                               k_list=())[0])[0]


def class_weights(explanation: dict, num_classes: int) -> np.ndarray:
    """Per-class weight mass rebuilt from an explanation record's entries."""
    masses = np.zeros(num_classes)
    for e in explanation["entries"]:
        masses[e["label"]] += e["weight"]
    return masses


def total_weights(x, model, train, sigma: float = 0.5) -> np.ndarray:
    """Each query's total kernel weight, relative to its nearest training
    instance's: the class sums ``explain_with_agreement`` reads, summed."""
    h, _ = forward(model, x, mode="eval")
    return heads.kernel_blocks(h, train, None, sigma)[0].sum(axis=1)


def kernel_matrix(h_query, train, sigma: float = 0.5) -> np.ndarray:
    """The whole q x t class-sorted kernel, gathered from ``kernel_blocks``."""
    out = np.full((len(h_query), len(train)), np.nan)

    def keep(rows, w, sums):
        out[rows] = w

    heads.kernel_blocks(h_query, train, keep, sigma)
    return out


def shifted_kernel_oracle(h_query, train, sigma: float = 0.5) -> np.ndarray:
    """The class-sorted kernel of ``kernel_blocks`` and its row offsets in
    one shot: one product of the query factor scaled by 1/(2 sigma) and the
    negated reference factor, each row shifted by its largest entry, then
    ``exp``. The engine matches it bit for bit wherever this product takes
    no one-row (GEMV) path and no partial tile of columns (t a multiple of
    8)."""
    z = (query_factor(h_query) * (1.0 / (2.0 * sigma))) @ -reference_factor(train.sorted_h).T
    offset = z.max(axis=1)
    return np.exp(z - offset[:, None]), offset


def pairwise_sq_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            s = 0.0
            for k in range(a.shape[1]):
                diff = a[i, k] - b[j, k]
                s += diff * diff
            out[i, j] = s
    return out


def dwac_predict_oracle(
    h_query: np.ndarray, h_train: np.ndarray, labels: np.ndarray,
    num_classes: int, sigma: float,
) -> np.ndarray:
    """Per-class probabilities by direct accumulation, each weight taken
    relative to the nearest training row's, so no row runs out of mass."""
    q = h_query.shape[0]
    probs = np.zeros((q, num_classes))
    for i in range(q):
        d2s = []
        for j in range(h_train.shape[0]):
            d2 = 0.0
            for k in range(h_query.shape[1]):
                diff = h_query[i, k] - h_train[j, k]
                d2 += diff * diff
            d2s.append(d2)
        nearest = min(d2s)
        sums = [0.0] * num_classes
        for j, d2 in enumerate(d2s):
            sums[labels[j]] += math.exp(-(d2 - nearest) / (2.0 * sigma))
        total = sum(sums)
        for c in range(num_classes):
            probs[i, c] = sums[c] / total
    return probs


def class_weight_sums_oracle(
    h_query: np.ndarray, h_train: np.ndarray, labels: np.ndarray,
    num_classes: int, sigma: float,
) -> np.ndarray:
    q = h_query.shape[0]
    out = np.zeros((q, num_classes))
    for i in range(q):
        for j in range(h_train.shape[0]):
            d2 = 0.0
            for k in range(h_query.shape[1]):
                diff = h_query[i, k] - h_train[j, k]
                d2 += diff * diff
            out[i, labels[j]] += math.exp(-d2 / (2.0 * sigma))
    return out


def loo_loss_oracle(
    h: np.ndarray, y: np.ndarray, sigma: float, floor: float = 1e-12
) -> float:
    """Mean negative log of the leave-one-out within-batch probability of
    each instance's own label, the weights taken relative to the nearest
    other instance's, with the same clamping as the implementation."""
    n = h.shape[0]
    total = 0.0
    for j in range(n):
        d2s = {}
        for i in range(n):
            if i == j:
                continue
            d2 = 0.0
            for k in range(h.shape[1]):
                diff = h[j, k] - h[i, k]
                d2 += diff * diff
            d2s[i] = d2
        nearest = min(d2s.values())
        num = 0.0
        den = 0.0
        for i, d2 in d2s.items():
            w = math.exp(-(d2 - nearest) / (2.0 * sigma))
            den += w
            if y[i] == y[j]:
                num += w
        total += -math.log(min(max(num / den, floor), 1.0))
    return total / n


def dwac_batch_loss_oracle(h_batch, labels, num_classes, sigma=0.5, prob_floor=1e-12):
    """Leave-one-out loss and gradient, one whole-array expression per step;
    each row's weights are shifted by its nearest other row's."""
    b = h_batch.shape[0]
    z = pairwise_sq_distances(h_batch, h_batch) * (-1.0 / (2.0 * sigma))
    np.fill_diagonal(z, -np.inf)
    w = np.exp(z - z.max(axis=1, keepdims=True))
    same = (labels[:, None] == labels[None, :]).astype(np.float64)

    denom = w.sum(axis=1)
    p_raw = (w * same).sum(axis=1) / denom
    p = np.clip(p_raw, prob_floor, 1.0)
    loss = float(np.mean(-np.log(p)))

    g = np.where(p_raw > prob_floor, -1.0 / (b * p), 0.0)
    coeff = (g / denom)[:, None] * (same - p_raw[:, None]) * w
    m = coeff + coeff.T
    grad = (1.0 / sigma) * (m @ h_batch - m.sum(axis=1)[:, None] * h_batch)
    return loss, grad


def eval_forward_oracle(model, x) -> np.ndarray:
    """Eval-mode embedding one layer at a time, each step a fresh array:
    product plus bias, then the rectifier on every layer but the last.

    All rows go through at once, zero-padded to a whole number of
    ``GATHER_ROWS``-row blocks, and the padded rows are dropped: a product
    of fewer rows than a block may round otherwise (one row takes
    OpenBLAS's GEMV path), and an embedding must not depend on its batch."""
    x = np.asarray(x, dtype=np.float64)
    a = np.zeros((-(-len(x) // GATHER_ROWS) * GATHER_ROWS, x.shape[1]))
    a[:len(x)] = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
    return a[:len(x)]


def train_per_array_oracle(proper, config, epochs):
    """The minibatch loop of ``train`` with one Adam update per parameter
    array and the oracle loss, without validation; returns the parameters
    after each epoch."""
    model = build_model(config, proper.dim, proper.num_classes)
    rng = make_rng(config.seed, SHUFFLE_STREAM)
    params = model.parameters()
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    step = 0
    per_epoch = []
    for _ in range(epochs):
        order = rng.permutation(len(proper))
        for start in range(0, len(proper), config.batch_size):
            idx = order[start : start + config.batch_size]
            if config.head == DWAC and idx.size < 2:
                continue
            h, cache = forward(model, proper.x[idx], mode="train", rng=rng)
            if config.head == DWAC:
                _, d_h = dwac_batch_loss_oracle(h, proper.y[idx], proper.num_classes,
                                                config.sigma)
            else:
                _, d_h = softmax_batch_loss(h, proper.y[idx])
            step += 1
            updated = [adam_step(p, g, m, v, step, config.learning_rate)
                       for p, g, (m, v) in zip(params, backward(model, cache, d_h), moments)]
            params = [p for p, _, _ in updated]
            moments = [(m, v) for _, m, v in updated]
            model.set_parameters(params)
        per_epoch.append([p.copy() for p in params])
    return per_epoch


def agreement_oracle(
    weights: np.ndarray, labels: np.ndarray, num_classes: int, k_list,
) -> list[tuple[int, float]]:
    """Agreement at k from a full ranking of every row: descending weight,
    ties by ascending index. Class masses add up in rank order, and the
    argmax keeps the lowest class index among equal masses."""
    n, t = weights.shape

    def prefix_argmax(row, order, k):
        masses = [0.0] * num_classes
        for j in order[:k]:
            masses[labels[j]] += row[j]
        best = 0
        for cls in range(1, num_classes):
            if masses[cls] > masses[best]:
                best = cls
        return best

    agree = {k: 0 for k in k_list}
    for row in weights:
        order = sorted(range(t), key=lambda j: (-row[j], j))
        full = prefix_argmax(row, order, t)
        for k in k_list:
            if prefix_argmax(row, order, min(k, t)) == full:
                agree[k] += 1
    return [(k, 1.0 if k >= t else agree[k] / n) for k in k_list]


def _top_positions_oracle(w: np.ndarray, index: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest weights in ``w``, by descending weight and
    then ascending ``index``: a partial selection, then a scan of the ties at
    the pivot."""
    if k >= w.size:
        return np.lexsort((index, -w))
    cand = np.argpartition(-w, k - 1)[:k]
    pivot = w[cand].min()
    above = np.flatnonzero(w > pivot)
    ties = np.flatnonzero(w == pivot)
    ties = ties[np.argsort(index[ties])][: k - above.size]
    chosen = np.concatenate([above, ties])
    return chosen[np.lexsort((index[chosen], -w[chosen]))]


def _decisive_prefix_oracle(labels, weights, total: float, num_classes: int) -> int:
    masses = np.zeros(num_classes)
    cum = 0.0
    for j in range(weights.size):
        masses[labels[j]] += weights[j]
        cum += weights[j]
        if num_classes < 2:
            lead, runner = masses[0], 0.0
        else:
            top2 = np.partition(masses, -2)[-2:]
            runner, lead = float(top2[0]), float(top2[1])
        if lead - runner > total - cum:
            return j + 1
    return 0


def explain_rows_oracle(weights, sums, train, k, k_list):
    """What ``explain_with_agreement`` returns, from the class-sorted kernel
    ``weights`` and class sums ``sums`` of the queries, one row at a time:
    (the explanation records, the agreement table)."""
    n, t = weights.shape
    short = sorted({kk for kk in k_list if kk < t})
    depth = max([k, *short])
    docs = []
    agree = {kk: 0 for kk in short}
    for i, (w, row_sums) in enumerate(zip(weights, sums)):
        top = _top_positions_oracle(w, train.order, depth)
        index = train.order[top[:k]]
        labels = train.labels[index]
        total = float(row_sums.sum())
        predicted = int(np.argmax(row_sums))
        doc = {
            "query_id": i,
            "predicted_label": predicted,
            "entries": [{"index": int(j), "weight": float(wt), "label": int(lb)}
                        for j, wt, lb in zip(index, w[top[:k]], labels)],
            "decisive_prefix": _decisive_prefix_oracle(labels, w[top[:k]], total,
                                                       train.num_classes),
        }
        docs.append(doc)
        masses = np.zeros(train.num_classes)
        done = 0
        for kk in short:
            for p in top[done:kk]:
                masses[train.labels[train.order[p]]] += w[p]
            done = kk
            agree[kk] += int(masses.argmax() == predicted)
    return docs, [(kk, agree[kk] / n if kk < t else 1.0) for kk in k_list]


def p_value_oracle(calibration: np.ndarray, score: float) -> float:
    count = 0
    for v in calibration:
        if v >= score:
            count += 1
    return count / len(calibration)


def calibrate_oracle(score_rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    out = [score_rows[i][labels[i]] for i in range(len(labels))]
    return np.array(sorted(out))


def subset(dataset: Dataset, indices) -> Dataset:
    """The rows ``indices`` of an encoded dataset."""
    return Dataset(x=dataset.x[indices], y=None if dataset.y is None else dataset.y[indices],
                   num_classes=dataset.num_classes, stats=dataset.stats)


def quick_split(dataset, fractions, seed):
    """Raw (unencoded) splits of a dataset, by the rows ``trial_splits`` picks."""
    parts = shuffle_split(len(dataset), fractions, make_rng(seed, SPLIT_STREAM))
    return tuple(subset(dataset, p) for p in parts)


def quick_train(head: str, n: int = 400, c: int = 3, d: int = 6, sep: float = 8.0,
                seed: int = 0, max_epochs: int = 40, **overrides):
    """Train a small model on blobs; returns (result, proper, calib, test)."""
    blobs = make_blobs(n, c, d, sep, make_rng(seed, 3))
    proper, calib, test = trial_splits(blob_data(blobs), seed, (0.6, 0.2, 0.2))
    config = TrainConfig(head=head, seed=seed, max_epochs=max_epochs,
                         batch_size=64, **overrides)
    return train(proper, calib, config), proper, calib, test


WHERE = "__where__"  # the row-dict key of "path: row N", N the row's line in the file


def read_rows_oracle(path: str, schema) -> tuple[list[dict[str, str]], bool]:
    """A headered CSV as one dict of stripped cells per row, plus where the
    row came from under ``WHERE``; the same checks and messages as
    ``read_csv_rows``: the file's shape first, then every continuous cell,
    row by row and left to right."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        known = {c.name for c in schema.columns}
        extra = [h for h in header if h not in known]
        if extra:
            raise ValueError(f"{path}: columns not in schema: {extra}")
        repeated = [c.name for c in schema.columns if header.count(c.name) > 1]
        if repeated:
            raise ValueError(f"{path}: columns repeated in header: {repeated}")
        required = {c.name for c in schema.columns if c.role != ROLE_LABEL}
        missing = required - set(header)
        if missing:
            raise ValueError(f"{path}: schema columns missing from file: {sorted(missing)}")
        has_labels = schema.label_column in header
        rows = []
        line_no = reader.line_num + 1
        for record in reader:
            start, line_no = line_no, reader.line_num + 1
            if not record:
                continue
            if len(record) != len(header):
                raise ValueError(
                    f"{path}: row {start} has {len(record)} cells, header has {len(header)}"
                )
            row = {name: cell.strip() for name, cell in zip(header, record)}
            row[WHERE] = f"{path}: row {start}"
            rows.append(row)
    continuous = {c.name for c in schema.columns if c.role == ROLE_CONTINUOUS}
    for row in rows:
        for name in header:
            if name in continuous:
                _parse_cell_oracle(row, name)
    return rows, has_labels


def _parse_cell_oracle(row, name) -> float:
    cell = row[name]
    if cell == "":
        raise ValueError(f"{row[WHERE]}, column {name!r}: missing continuous value")
    try:
        return float(cell)
    except ValueError:
        raise ValueError(
            f"{row[WHERE]}, column {name!r}: cannot parse {cell!r} as a number"
        ) from None


def _parse_continuous_oracle(rows, name):
    return np.array([_parse_cell_oracle(row, name) for row in rows], dtype=np.float64)


def fit_stats_oracle(rows, schema, path) -> FeatureStats:
    """Moments and sorted vocabularies fitted on row dicts of the file
    ``path``, one cell at a time. A column without a finite mean and spread
    is refused."""
    means, stds, vocabs = {}, {}, {}
    for col in schema.feature_columns:
        if col.role == ROLE_CONTINUOUS:
            values = _parse_continuous_oracle(rows, col.name)
            means[col.name] = float(np.mean(values)) if len(values) else 0.0
            std = float(np.std(values)) if len(values) else 1.0
            if not (math.isfinite(means[col.name]) and math.isfinite(std)):
                raise ValueError(f"{path}: column {col.name!r}: no finite mean and spread "
                                 "(a value is not finite, or too large)")
            stds[col.name] = std if std > 0.0 else 1.0
        else:
            vocabs[col.name] = tuple(sorted({r[col.name] for r in rows}))
    return FeatureStats(means=means, stds=stds, vocabs=vocabs)


def dense(x: Inputs) -> np.ndarray:
    """The one-hot matrix that ``x`` codes, one cell at a time: each
    continuous value in its column, plus 1.0 in a slot's column for each
    time the row selects it."""
    out = np.zeros((len(x), x.width))
    for i in range(len(x)):
        for j, column in enumerate(x.cont_rows):
            out[i, column] = x.cont[i, j]
        for column in x.slots[i]:
            out[i, column] += 1.0
    return out


def encode_rows_oracle(rows, schema, stats, has_labels: bool = True) -> Dataset:
    """Row dicts encoded one cell at a time into a dense block per column
    (an indicator column per vocabulary value and one for unknown values),
    the blocks stacked side by side: the one-hot matrix that the encoder's
    codes stand for, held as all-continuous features. A label not in the
    schema is refused first, then a continuous cell whose z-score is not
    finite or has no finite square, column by column."""
    blocks = []
    n = len(rows)
    y = None
    if has_labels:
        label_index = {v: i for i, v in enumerate(schema.label_values)}
        y = np.empty(n, dtype=np.int64)
        for i, row in enumerate(rows):
            cell = row[schema.label_column]
            if cell not in label_index:
                raise ValueError(f"{row[WHERE]}: label {cell!r} not in schema label_values")
            y[i] = label_index[cell]
    for col in schema.feature_columns:
        if col.role == ROLE_CONTINUOUS:
            column = []
            for row in rows:
                value = _parse_cell_oracle(row, col.name)
                z = (value - stats.means[col.name]) / stats.stds[col.name]
                if not math.isfinite(z * z):
                    raise ValueError(f"{row[WHERE]}, column {col.name!r}: {value!r} is not "
                                     "finite, or too large once z-scored")
                column.append(z)
            blocks.append(np.array(column, dtype=np.float64).reshape(n, 1))
        else:
            vocab = stats.vocabs[col.name]
            index = {v: i for i, v in enumerate(vocab)}
            width = len(vocab) + 1
            block = np.zeros((n, width))
            for i, row in enumerate(rows):
                block[i, index.get(row[col.name], width - 1)] = 1.0
            blocks.append(block)
    return Dataset(x=np.hstack(blocks), y=y, num_classes=schema.num_classes, stats=stats)
