"""Dataset ingestion, preprocessing, synthetic blobs, and model artifacts.

CSV files must carry a header row; a JSON schema assigns each column a
role (label | continuous | categorical | drop) and fixes the label
vocabulary. Continuous columns are z-scored with statistics fitted on
training data only; categorical columns become indicator blocks with a
trailing unknown-category slot so unseen values at prediction time encode
instead of crashing. Missing continuous values are rejected outright;
silent imputation would corrupt reproductions. A file is read once into a
columnar table; stats are fitted on, and rows encoded from, any subset of
its rows by index, so splitting copies no cells.

Model artifacts are single JSON documents (format ``dwac-kit/2``) that hold
each float array as its shape plus the base64 of its little-endian float64
bytes, which is exact, so save/load reproduces predictions bit for bit.
"""

from __future__ import annotations

import base64
import binascii
import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np

from .heads import EmbeddedTrainingSet
from .linalg import as_matrix
from .network import DWAC, EmbeddingModel, MlpSpec

FORMAT_VERSION = "dwac-kit/2"

ROLE_LABEL = "label"
ROLE_CONTINUOUS = "continuous"
ROLE_CATEGORICAL = "categorical"
ROLE_DROP = "drop"
ROLES = (ROLE_LABEL, ROLE_CONTINUOUS, ROLE_CATEGORICAL, ROLE_DROP)


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r} for column {self.name!r}")


@dataclass(frozen=True)
class Schema:
    """Column roles plus the ordered label vocabulary."""

    columns: tuple[ColumnSpec, ...]
    label_values: tuple[str, ...]

    def __post_init__(self):
        labels = [c for c in self.columns if c.role == ROLE_LABEL]
        if len(labels) != 1:
            raise ValueError(f"schema needs exactly one label column, found {len(labels)}")
        features = [c for c in self.columns if c.role in (ROLE_CONTINUOUS, ROLE_CATEGORICAL)]
        if not features:
            raise ValueError("schema needs at least one feature column")
        if len(self.label_values) < 1:
            raise ValueError("label_values must be nonempty")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")

    @cached_property
    def label_column(self) -> str:
        return next(c.name for c in self.columns if c.role == ROLE_LABEL)

    @cached_property
    def feature_columns(self) -> tuple[ColumnSpec, ...]:
        return tuple(c for c in self.columns if c.role in (ROLE_CONTINUOUS, ROLE_CATEGORICAL))

    @property
    def num_classes(self) -> int:
        return len(self.label_values)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Schema":
        """Inverse of :meth:`to_json_dict`; a missing or malformed key raises
        ValueError naming it."""
        if not isinstance(obj, dict):
            raise ValueError("schema must be a JSON object")
        for key in ("columns", "label_values"):
            if key not in obj:
                raise ValueError(f"schema is missing {key!r}")
        columns, label_values = obj["columns"], obj["label_values"]
        if not isinstance(columns, list) or not all(
            isinstance(c, dict) and isinstance(c.get("name"), str)
            and isinstance(c.get("role"), str) for c in columns
        ):
            raise ValueError("schema 'columns' must be a list of objects with string "
                             "'name' and 'role'")
        if not isinstance(label_values, list) or not all(
            isinstance(v, str) for v in label_values
        ):
            raise ValueError("schema 'label_values' must be a list of strings")
        return cls(columns=tuple(ColumnSpec(c["name"], c["role"]) for c in columns),
                   label_values=tuple(label_values))

    @classmethod
    def from_file(cls, path: str) -> "Schema":
        try:
            with open(path, "r", encoding="utf-8") as f:
                return cls.from_json_dict(json.load(f))
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None

    def to_json_dict(self) -> dict:
        return {
            "columns": [{"name": c.name, "role": c.role} for c in self.columns],
            "label_values": list(self.label_values),
        }


@dataclass(frozen=True)
class FeatureStats:
    """Fitted preprocessing state: z-score moments and category vocabularies."""

    means: dict[str, float]
    stds: dict[str, float]
    vocabs: dict[str, tuple[str, ...]]


@dataclass
class Dataset:
    """Encoded feature matrix with labels and preprocessing provenance."""

    x: np.ndarray
    y: np.ndarray | None
    num_classes: int
    feature_names: tuple[str, ...]
    stats: FeatureStats | None = None

    def __post_init__(self):
        self.x = as_matrix(self.x, "features")
        if self.y is not None:
            self.y = np.ascontiguousarray(self.y, dtype=np.int64)
            if self.y.shape != (self.x.shape[0],):
                raise ValueError("labels must align with feature rows")
            if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
                raise ValueError("labels out of range 0..num_classes-1")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            x=self.x[indices],
            y=None if self.y is None else self.y[indices],
            num_classes=self.num_classes,
            feature_names=self.feature_names,
            stats=self.stats,
        )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsvTable:
    """A CSV body held column by column: ``columns[name][i]`` is the stripped
    cell of data row i, blank lines not counted, and ``lines[i]`` is the line
    of ``path`` that row i came from, so errors can name it."""

    path: str
    columns: dict[str, list[str]]
    lines: list[int]

    def __len__(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class CsvData:
    """A CSV file read but not yet encoded; encoding waits for stats fitted
    on a proper training split."""

    table: CsvTable
    schema: Schema
    has_labels: bool

    def __len__(self) -> int:
        return len(self.table)

    @property
    def num_classes(self) -> int:
        return self.schema.num_classes


def read_csv_rows(path: str, schema: Schema) -> tuple[CsvTable, bool]:
    """Parse a headered CSV into a table of stripped cells, one list per
    header column.

    Returns (table, has_labels). The file must contain every schema column
    except that the label column may be absent (unlabeled data); columns
    not named in the schema are rejected.
    """
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
        required = {c.name for c in schema.columns if c.role != ROLE_LABEL}
        missing = required - set(header)
        if missing:
            raise ValueError(f"{path}: schema columns missing from file: {sorted(missing)}")
        has_labels = schema.label_column in header

        records = []
        lines = []
        line_no = reader.line_num + 1  # where the next record starts; quoted cells span lines
        for record in reader:
            if record:
                if len(record) != len(header):
                    raise ValueError(f"{path}: row {line_no} has {len(record)} cells, "
                                     f"header has {len(header)}")
                records.append(record)
                lines.append(line_no)
            line_no = reader.line_num + 1
    cells = zip(*records) if records else ((),) * len(header)
    columns = {name: list(map(str.strip, column)) for name, column in zip(header, cells)}
    return CsvTable(path=path, columns=columns, lines=lines), has_labels


def _positions(index) -> list[int] | None:
    return None if index is None else np.asarray(index, dtype=np.intp).tolist()


def _cells(table: CsvTable, name: str, positions: list[int] | None) -> list[str]:
    column = table.columns[name]
    return column if positions is None else [column[i] for i in positions]


def _where(table: CsvTable, positions: list[int] | None, i: int) -> str:
    """``path: row N`` for the i-th selected row, N its line in the file."""
    return f"{table.path}: row {table.lines[i if positions is None else positions[i]]}"


def fit_stats(table: CsvTable, schema: Schema, index=None) -> FeatureStats:
    """Fit z-score moments and sorted category vocabularies on the training
    rows ``index`` of ``table`` (all rows when None), in that order."""
    positions = _positions(index)
    means: dict[str, float] = {}
    stds: dict[str, float] = {}
    vocabs: dict[str, tuple[str, ...]] = {}
    for col in schema.feature_columns:
        if col.role == ROLE_CONTINUOUS:
            values = _parse_continuous(table, col.name, positions)
            mean = float(np.mean(values)) if len(values) else 0.0
            std = float(np.std(values)) if len(values) else 1.0
            means[col.name] = mean
            stds[col.name] = std if std > 0.0 else 1.0
        else:
            vocabs[col.name] = tuple(sorted(set(_cells(table, col.name, positions))))
    return FeatureStats(means=means, stds=stds, vocabs=vocabs)


def _parse_continuous(table: CsvTable, name: str, positions: list[int] | None) -> np.ndarray:
    """One float() per cell; on a bad cell, a row scan names the first one."""
    cells = _cells(table, name, positions)
    try:
        return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        for i, cell in enumerate(cells):
            if cell == "":
                raise ValueError(
                    f"{_where(table, positions, i)}, column {name!r}: missing continuous value"
                ) from None
            try:
                float(cell)
            except ValueError:
                raise ValueError(f"{_where(table, positions, i)}, column {name!r}: "
                                 f"cannot parse {cell!r} as a number") from None
        raise


def label_codes(table: CsvTable, schema: Schema, index=None) -> np.ndarray:
    """Class indices of the rows ``index`` of ``table`` (all rows when None)."""
    positions = _positions(index)
    cells = _cells(table, schema.label_column, positions)
    lookup = {v: i for i, v in enumerate(schema.label_values)}
    y = np.fromiter(map(lookup.get, cells, repeat(-1)), dtype=np.int64, count=len(cells))
    bad = np.flatnonzero(y < 0)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{_where(table, positions, i)}: label {cells[i]!r} "
                         "not in schema label_values")
    return y


def encode_rows(
    table: CsvTable,
    schema: Schema,
    stats: FeatureStats,
    has_labels: bool = True,
    index=None,
) -> Dataset:
    """Encode the rows ``index`` of ``table`` (all rows when None), in that
    order, into a Dataset with the given fitted stats.

    Feature width is sum(|vocab| + 1) over categoricals plus the number of
    continuous columns; the +1 is the unknown-category slot, which is what
    unseen values fall into at prediction time. Error messages name the file
    and the line a bad row came from.
    """
    positions = _positions(index)
    n = len(table) if positions is None else len(positions)
    widths = [len(stats.vocabs[c.name]) + 1 if c.role == ROLE_CATEGORICAL else 1
              for c in schema.feature_columns]
    x = np.zeros((n, sum(widths)))
    names: list[str] = []
    offset = 0
    for col, width in zip(schema.feature_columns, widths):
        if col.role == ROLE_CONTINUOUS:
            values = _parse_continuous(table, col.name, positions)
            x[:, offset] = (values - stats.means[col.name]) / stats.stds[col.name]
            names.append(col.name)
        else:
            vocab = stats.vocabs[col.name]
            slot = {v: offset + i for i, v in enumerate(vocab)}
            unknown = offset + width - 1
            cells = _cells(table, col.name, positions)
            x[np.arange(n), np.fromiter(map(slot.get, cells, repeat(unknown)),
                                        dtype=np.intp, count=n)] = 1.0
            names.extend(f"{col.name}={v}" for v in vocab)
            names.append(f"{col.name}=<unknown>")
        offset += width

    return Dataset(
        x=x,
        y=label_codes(table, schema, index) if has_labels else None,
        num_classes=schema.num_classes,
        feature_names=tuple(names),
        stats=stats,
    )


def load_csv(path: str, schema: Schema, stats: FeatureStats | None = None) -> Dataset:
    """Load and encode a CSV; fits stats on the file itself when none given.

    Pass the stats of the training dataset when loading calibration, test,
    or prediction data so normalization comes from the training split only.
    """
    table, has_labels = read_csv_rows(path, schema)
    if stats is None:
        stats = fit_stats(table, schema)
    return encode_rows(table, schema, stats, has_labels=has_labels)


def standardize(dataset: Dataset, stats: FeatureStats | None = None) -> Dataset:
    """Z-score every feature column; fits moments on ``dataset`` when no
    stats are given. Used for synthetic data, whose raw features bypass the
    schema pipeline; constant columns keep std 1 so they map to zero."""
    if stats is None:
        mean = dataset.x.mean(axis=0)
        std = dataset.x.std(axis=0)
        std = np.where(std > 0.0, std, 1.0)
        stats = FeatureStats(
            means={name: float(m) for name, m in zip(dataset.feature_names, mean)},
            stds={name: float(s) for name, s in zip(dataset.feature_names, std)},
            vocabs={},
        )
    else:
        missing = [n for n in dataset.feature_names if n not in stats.means]
        if missing:
            raise ValueError(f"stats lack moments for columns {missing}")
        mean = np.array([stats.means[n] for n in dataset.feature_names])
        std = np.array([stats.stds[n] for n in dataset.feature_names])
    return Dataset(
        x=(dataset.x - mean) / std,
        y=dataset.y,
        num_classes=dataset.num_classes,
        feature_names=dataset.feature_names,
        stats=stats,
    )


def standardize_splits(proper: Dataset, *others: Dataset) -> tuple[Dataset, ...]:
    """Z-score a family of splits with moments fitted on the proper training
    split only, mirroring the CSV pipeline's train-only stats rule."""
    proper = standardize(proper)
    return (proper, *(standardize(ds, proper.stats) for ds in others))


# ---------------------------------------------------------------------------
# synthetic blobs
# ---------------------------------------------------------------------------

def make_blobs(
    n: int, c: int, d: int, separation: float, rng: np.random.Generator
) -> Dataset:
    """Isotropic unit-variance Gaussian clusters with pairwise-equidistant centers.

    Centers sit at the vertices of a regular simplex with edge length
    ``separation`` (so every pair of centers is exactly that far apart),
    which needs d >= c - 1. Labels are balanced within one instance.
    """
    if n < c:
        raise ValueError(f"need at least one point per class: n={n}, c={c}")
    if c < 1:
        raise ValueError("c must be >= 1")
    if separation <= 0.0:
        raise ValueError(f"separation must be > 0, got {separation}")
    if d < max(1, c - 1):
        raise ValueError(f"equidistant centers for {c} classes need d >= {c - 1}")

    centers = np.zeros((c, d))
    if c > 1:
        a = separation / np.sqrt(2.0)
        u = a * (np.sqrt(c) - 1.0) / (c - 1)
        for i in range(c - 1):
            centers[i, : c - 1] = u
            centers[i, i] += a

    counts = np.full(c, n // c)
    counts[: n % c] += 1
    y = np.repeat(np.arange(c), counts)
    x = centers[y] + rng.standard_normal((n, d))
    return Dataset(
        x=x,
        y=y,
        num_classes=c,
        feature_names=tuple(f"x{i}" for i in range(d)),
        stats=None,
    )


# ---------------------------------------------------------------------------
# model artifacts
# ---------------------------------------------------------------------------

@dataclass
class ModelArtifact:
    """Everything needed to reproduce predictions: parameters, head,
    preprocessing state, embedded training set, and calibration scores."""

    model: EmbeddingModel
    sigma: float
    num_classes: int
    schema: Schema | None = None
    stats: FeatureStats | None = None
    embedded: EmbeddedTrainingSet | None = None
    calibrations: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.model.head == DWAC and self.embedded is None:
            raise ValueError("dwac artifacts must carry the embedded training set")


def _encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "f8": base64.b64encode(a.data).decode("ascii")}


def _decode_array(obj: dict, ndim: int, what: str) -> np.ndarray:
    """Inverse of :func:`_encode_array`: a writable native float64 copy,
    checked for rank, size and finiteness before it is trusted."""
    shape = obj["shape"]
    if not (isinstance(shape, list) and len(shape) == ndim
            and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"{what}: shape must be {ndim} non-negative ints, got {shape!r}")
    try:
        raw = base64.b64decode(obj["f8"], validate=True)
    except binascii.Error as e:
        raise ValueError(f"{what}: bad base64 ({e})") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{what}: {len(raw)} bytes for shape {shape}")
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(a).all():
        raise ValueError(f"{what}: non-finite values")
    return a


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename, so a crash
    never leaves a partial file at the target path."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(artifact: ModelArtifact, path: str) -> None:
    """Serialize an artifact to a single JSON document at ``path``."""
    model = artifact.model
    doc = {
        "format": FORMAT_VERSION,
        "spec": {
            "layer_sizes": list(model.spec.layer_sizes),
            "dropout_prob": model.spec.dropout_prob,
        },
        "head": model.head,
        "sigma": artifact.sigma,
        "num_classes": artifact.num_classes,
        "weights": [_encode_array(w) for w in model.weights],
        "biases": [_encode_array(b) for b in model.biases],
        "schema": artifact.schema.to_json_dict() if artifact.schema else None,
        "stats": _encode_stats(artifact.stats) if artifact.stats else None,
        "embedded": None,
        "calibrations": {
            measure: _encode_array(scores) for measure, scores in artifact.calibrations.items()
        },
    }
    if artifact.embedded is not None:
        doc["embedded"] = {
            "h": _encode_array(artifact.embedded.h),
            "labels": artifact.embedded.labels.tolist(),
            "num_classes": artifact.embedded.num_classes,
        }
    # no indent: CPython's C encoder serves only compact output
    atomic_write_text(path, json.dumps(doc, sort_keys=True))


def _encode_stats(stats: FeatureStats) -> dict:
    return {
        "means": {k: repr(v) for k, v in sorted(stats.means.items())},
        "stds": {k: repr(v) for k, v in sorted(stats.stds.items())},
        "vocabs": {k: list(v) for k, v in sorted(stats.vocabs.items())},
    }


def _decode_stats(obj: dict, schema: Schema | None) -> FeatureStats:
    """Inverse of :func:`_encode_stats`, checked as far as encoding relies on
    it: a finite mean and a positive finite std per continuous column, string
    vocabularies, and, with a schema, exactly its feature columns."""
    stats = FeatureStats(
        means={k: float(v) for k, v in obj["means"].items()},
        stds={k: float(v) for k, v in obj["stds"].items()},
        vocabs={k: tuple(v) for k, v in obj["vocabs"].items()},
    )
    if stats.means.keys() != stats.stds.keys() or not all(
        math.isfinite(stats.means[k]) and math.isfinite(s) and s > 0.0
        for k, s in stats.stds.items()
    ):
        raise ValueError("stats need a finite mean and a positive finite std per column")
    if not all(isinstance(v, str) for vocab in stats.vocabs.values() for v in vocab):
        raise ValueError("stats vocabularies must hold strings")
    if schema is not None and (
        set(stats.means) != {c.name for c in schema.feature_columns if c.role == ROLE_CONTINUOUS}
        or set(stats.vocabs) != {c.name for c in schema.feature_columns
                                 if c.role == ROLE_CATEGORICAL}
    ):
        raise ValueError("stats do not cover the schema's feature columns")
    return stats


def load_model(path: str) -> ModelArtifact:
    """Load an artifact saved by :func:`save_model`; rejects wrong versions,
    truncated files, malformed arrays, and dwac artifacts missing their
    embedded training set, with a ValueError that names ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: truncated or corrupt model file: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: model file must hold a JSON object")
    if doc.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format {doc.get('format')!r}, expected {FORMAT_VERSION!r}"
        )
    try:
        spec = MlpSpec(
            layer_sizes=tuple(doc["spec"]["layer_sizes"]),
            dropout_prob=float(doc["spec"]["dropout_prob"]),
        )
        model = EmbeddingModel(
            spec=spec,
            weights=[_decode_array(w, 2, f"weights[{i}]") for i, w in enumerate(doc["weights"])],
            biases=[_decode_array(b, 1, f"biases[{i}]") for i, b in enumerate(doc["biases"])],
            head=doc["head"],
        )
        num_classes = int(doc["num_classes"])
        schema = Schema.from_json_dict(doc["schema"]) if doc["schema"] else None
        # Each kernel block holds rows x num_classes sums: bound the count by
        # what training can have given before anything is sized by it.
        if model.head != DWAC and num_classes != spec.output_dim:
            raise ValueError(f"num_classes is {num_classes}, softmax outputs {spec.output_dim}")
        if schema is not None and num_classes != schema.num_classes:
            raise ValueError(f"num_classes is {num_classes}, schema labels {schema.num_classes}")
        if schema is None and num_classes > spec.input_dim + 1:
            raise ValueError(f"num_classes is {num_classes}, over layer_sizes[0] + 1 = "
                             f"{spec.input_dim + 1}, the most blobs of that width hold")
        embedded = None
        if doc["embedded"] is not None:
            if doc["embedded"]["num_classes"] != num_classes:
                raise ValueError(f"embedded.num_classes is not num_classes ({num_classes})")
            h = _decode_array(doc["embedded"]["h"], 2, "embedded.h")
            if h.shape[1] != spec.output_dim:
                raise ValueError(f"embedded.h has {h.shape[1]} columns, "
                                 f"layer_sizes[-1] is {spec.output_dim}")
            labels = doc["embedded"]["labels"]
            if not (isinstance(labels, list) and set(map(type, labels)) <= {int}):
                raise ValueError("embedded.labels must be a list of ints")
            embedded = EmbeddedTrainingSet(
                h=h,
                labels=np.array(labels, dtype=np.int64),
                num_classes=num_classes,
            )
        sigma = float(doc["sigma"])
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError(f"sigma must be finite and > 0, got {sigma}")
        return ModelArtifact(
            model=model,
            sigma=sigma,
            num_classes=num_classes,
            schema=schema,
            stats=_decode_stats(doc["stats"], schema) if doc["stats"] else None,
            embedded=embedded,
            calibrations={
                measure: _decode_array(scores, 1, f"calibrations.{measure}")
                for measure, scores in doc["calibrations"].items()
            },
        )
    except (KeyError, TypeError, AttributeError) as e:
        raise ValueError(f"{path}: incomplete or malformed model file "
                         f"({type(e).__name__}: {e})") from None
    except (ValueError, OverflowError) as e:
        raise ValueError(f"{path}: {e}") from None
