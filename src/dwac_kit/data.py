"""Dataset ingestion, preprocessing, synthetic blobs, and model artifacts.

All data is a table with a schema. CSV files must carry a header row; a
JSON schema assigns each column a role (label | continuous | categorical |
drop) and fixes the label vocabulary. Synthetic blobs become a table with a
generated schema (:func:`blob_data`), so both go through one pipeline.
Continuous columns are z-scored with statistics fitted on training data
only, into one float64 block. Categorical columns are not expanded into
indicator columns: each becomes one int32 code per row, the row of the
network's first weight matrix that a one-hot encoding of the value would
select (:class:`~dwac_kit.network.Inputs`). Each column owns a block of
those rows, one per vocabulary value and a trailing unknown-category row,
so unseen values at prediction time encode instead of crashing. An encoded
row takes 8 bytes per continuous and 4 per categorical column, whatever the
vocabulary sizes, while the first layer keeps the full one-hot width.
Missing continuous values are rejected outright; silent imputation would
corrupt reproductions. A file is read once, a chunk of rows at a time, into
a columnar table, or into one table per run of rows for a caller that takes
them in turn: continuous cells are parsed then, categorical and label
cells become integer codes into their distinct values, and ``drop`` cells
are not kept. Stats are fitted on, and rows encoded from, any subset of its
rows by index, so splitting copies no cells.

Model artifacts are single JSON documents (format ``dwac-kit/2``) that hold
each float array as its shape plus the base64 of its little-endian float64
bytes, which is exact, so save/load reproduces predictions bit for bit.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import csv
import json
import math
import os
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import islice
from typing import NamedTuple

import numpy as np

from .heads import EmbeddedTrainingSet, Predictor
from .network import DWAC, EmbeddingModel, Inputs, MlpSpec, as_inputs

FORMAT_VERSION = "dwac-kit/2"
# every JSON output's: sorted keys, compact (all that CPython's C encoder serves)
encode_json = json.JSONEncoder(sort_keys=True).encode

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
        repeated = sorted({v for v in self.label_values if self.label_values.count(v) > 1})
        if repeated:
            raise ValueError(f"label values repeated in schema: {repeated}")

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
    """Encoded feature rows with labels and preprocessing provenance. ``x``
    may be given as a matrix of continuous columns; it is held as
    :class:`Inputs`, whose ``width`` is the encoded width ``dim``."""

    x: Inputs
    y: np.ndarray | None
    num_classes: int
    stats: FeatureStats | None = None

    def __post_init__(self):
        self.x = as_inputs(self.x)
        if self.y is not None:
            self.y = np.ascontiguousarray(self.y, dtype=np.int64)
            if self.y.shape != (len(self.x),):
                raise ValueError("labels must align with feature rows")
            if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
                raise ValueError("labels out of range 0..num_classes-1")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def dim(self) -> int:
        return self.x.width


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

CHUNK_ROWS = 1024  # rows parsed per step of a CSV read; one chunk's cells are alive at a time


class Coded(NamedTuple):
    """A categorical or label column: its distinct stripped values, and a code per row."""

    values: tuple[str, ...]
    codes: np.ndarray


@dataclass(frozen=True)
class CsvTable:
    """A table held column by column. A continuous column is a float64 array
    with one value per data row; a categorical or label column is
    :class:`Coded`; ``drop`` columns are not held. ``lines[i]`` is the line
    of ``path`` that row i came from (blank lines hold no row), so errors
    can name it."""

    path: str
    columns: dict[str, np.ndarray | Coded]
    lines: np.ndarray | range

    def __len__(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class CsvData:
    """A table read but not yet encoded; encoding waits for stats fitted on
    a proper training split, or for those of the artifact that scores it."""

    table: CsvTable
    schema: Schema
    has_labels: bool

    def __len__(self) -> int:
        return len(self.table)

    @property
    def num_classes(self) -> int:
        return self.schema.num_classes

    def rows(self, start: int, stop: int) -> CsvData:
        """The rows ``start:stop``, their columns views of these."""
        table = self.table
        columns = {name: Coded(c.values, c.codes[start:stop]) if isinstance(c, Coded)
                   else c[start:stop] for name, c in table.columns.items()}
        return CsvData(CsvTable(table.path, columns, table.lines[start:stop]), self.schema,
                       self.has_labels)


def _records(reader, path: str, width: int):
    """(line, record) for each nonblank record, line the one it starts on
    (quoted cells span lines); a record of the wrong width is the error."""
    line_no = reader.line_num + 1
    for record in reader:
        if record:
            if len(record) != width:
                raise ValueError(f"{path}: row {line_no} has {len(record)} cells, "
                                 f"header has {width}")
            yield line_no, record
        line_no = reader.line_num + 1


def _bad_number(path: str, lines, cells: dict[str, list[str]], names: list[str]) -> str | None:
    """The error of the first empty or unparseable cell of the columns
    ``names`` of ``cells``, row by row and left to right."""
    for i, line in enumerate(lines):
        for name in names:
            try:
                float(cells[name][i])
            except ValueError:
                what = (f"cannot parse {cells[name][i]!r} as a number" if cells[name][i]
                        else "missing continuous value")
                return f"{path}: row {line}, column {name!r}: {what}"


def read_csv_tables(path: str, schema: Schema, rows: int | None = None) -> Iterator[CsvData]:
    """The data rows of a headered CSV as tables of ``rows`` rows each, in
    file order (all of them in one table when None), each parsed
    ``CHUNK_ROWS`` rows at a time. The last table may be shorter, and a file
    with no data rows gives one empty table. No table is held here once it
    is yielded, so a caller that lets go of each holds one at a time.

    The file must contain every schema column except that the label column
    may be absent (unlabeled data); columns not named in the schema, or named
    twice, are rejected. Continuous cells are parsed here, once. Each table's
    rows are read before it is yielded: a row of the wrong width is the error
    when it is read; otherwise the table's first empty or unparseable
    continuous cell in file order is, named by its line and column. So a bad
    row in a later table is found only once the tables before it are taken.
    """
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        roles = {c.name: c.role for c in schema.columns}
        extra = [h for h in header if h not in roles]
        if extra:
            raise ValueError(f"{path}: columns not in schema: {extra}")
        repeated = [h for h in roles if header.count(h) > 1]
        if repeated:
            raise ValueError(f"{path}: columns repeated in header: {repeated}")
        required = {c.name for c in schema.columns if c.role != ROLE_LABEL}
        missing = required - set(header)
        if missing:
            raise ValueError(f"{path}: schema columns missing from file: {sorted(missing)}")
        has_labels = schema.label_column in header
        records = _records(reader, path, len(header))
        first = True
        while True:
            read = [_read_table(path, header, roles, records, rows)]
            n = len(read[0])
            if n or first:
                # popped, so this frame holds no table while the caller has it
                yield CsvData(read.pop(), schema, has_labels)
            if rows is None or n < rows:
                return
            first = False


def _read_table(path: str, header: list[str], roles: dict[str, str], records,
                rows: int | None) -> CsvTable:
    """The next ``rows`` of ``records`` (all that are left when None) as a
    table, read and parsed ``CHUNK_ROWS`` at a time (see read_csv_tables)."""
    continuous = [h for h in header if roles[h] == ROLE_CONTINUOUS]
    coded = {h: {} for h in header if roles[h] in (ROLE_CATEGORICAL, ROLE_LABEL)}
    # each column's chunks, after an empty one that gives an empty table its dtype
    parts = {**{name: [np.empty(0)] for name in continuous},
             **{name: [np.empty(0, dtype=np.int32)] for name in coded}}
    line_parts = [np.empty(0, dtype=np.int64)]
    error = None
    left = math.inf if rows is None else rows
    while chunk := list(islice(records, min(CHUNK_ROWS, left))):
        left -= len(chunk)
        lines, row_cells = zip(*chunk)
        line_parts.append(np.array(lines, dtype=np.int64))
        cells = {name: list(map(str.strip, column))
                 for name, column in zip(header, zip(*row_cells)) if name in parts}
        for name, index in coded.items():
            for value in dict.fromkeys(cells[name]):
                index.setdefault(value, len(index))
            parts[name].append(np.fromiter(map(index.__getitem__, cells[name]),
                                           dtype=np.int32, count=len(lines)))
        try:
            for name in continuous:
                parts[name].append(np.fromiter(map(float, cells[name]), dtype=np.float64,
                                               count=len(lines)))
        except ValueError as e:
            error = error or _bad_number(path, lines, cells, continuous) or str(e)
    if error is not None:
        raise ValueError(error)
    columns = {name: np.concatenate(parts[name]) for name in continuous}
    columns.update((name, Coded(tuple(index), np.concatenate(parts[name])))
                   for name, index in coded.items())
    return CsvTable(path=path, columns=columns, lines=np.concatenate(line_parts))


def read_csv_rows(path: str, schema: Schema) -> tuple[CsvTable, bool]:
    """The whole of a headered CSV as one table (see read_csv_tables), and
    whether it has the label column."""
    data, = read_csv_tables(path, schema)
    return data.table, data.has_labels


def _column(table: CsvTable, name: str, index) -> np.ndarray | Coded:
    """Column ``name`` at the rows ``index`` (all rows when None)."""
    column = table.columns[name]
    if index is None:
        return column
    positions = np.asarray(index, dtype=np.intp)
    if isinstance(column, Coded):
        return Coded(column.values, column.codes[positions])
    return column[positions]


def fit_stats(table: CsvTable, schema: Schema, index=None) -> FeatureStats:
    """Fit z-score moments and sorted category vocabularies on the training
    rows ``index`` of ``table`` (all rows when None), in that order."""
    means: dict[str, float] = {}
    stds: dict[str, float] = {}
    vocabs: dict[str, tuple[str, ...]] = {}
    for col in schema.feature_columns:
        if col.role == ROLE_CONTINUOUS:
            values = _column(table, col.name, index)
            with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
                mean = float(np.mean(values)) if len(values) else 0.0
                std = float(np.std(values)) if len(values) else 1.0
            if not (math.isfinite(mean) and math.isfinite(std)):
                raise ValueError(f"{table.path}: column {col.name!r}: no finite mean and spread "
                                 "(a value is not finite, or too large)")
            means[col.name] = mean
            stds[col.name] = std if std > 0.0 else 1.0
        else:
            values, codes = _column(table, col.name, index)
            vocabs[col.name] = tuple(sorted(values[k] for k in np.unique(codes).tolist()))
    return FeatureStats(means=means, stds=stds, vocabs=vocabs)


def label_codes(table: CsvTable, schema: Schema, index=None) -> np.ndarray:
    """Class indices of the rows ``index`` of ``table`` (all rows when None)."""
    values, codes = _column(table, schema.label_column, index)
    lookup = {v: i for i, v in enumerate(schema.label_values)}
    y = np.array([lookup.get(v, -1) for v in values], dtype=np.int64)[codes]
    bad = np.flatnonzero(y < 0)
    if bad.size:
        i = int(bad[0])
        line = table.lines[i if index is None else index[i]]
        raise ValueError(f"{table.path}: row {line}: label {values[codes[i]]!r} "
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

    The encoded width is the number of continuous columns plus |vocab| + 1
    per categorical column, in schema order; the + 1 is the unknown-category
    row, which is what unseen values select at prediction time. Continuous
    columns are z-scored into one float64 block, and each categorical column
    becomes one int32 slot per row (see :class:`Inputs`). Error messages name
    the file and the line a bad row came from: a label not in the schema
    first, then a continuous value that is not finite or whose z-score's
    square overflows float64 (the first such row of the first such column).
    """
    n = len(table) if index is None else len(index)
    y = label_codes(table, schema, index) if has_labels else None
    features = schema.feature_columns
    num_continuous = sum(c.role == ROLE_CONTINUOUS for c in features)
    cont = np.empty((n, num_continuous))
    slots = np.empty((n, len(features) - num_continuous), dtype=np.int32)
    cont_rows: list[int] = []
    slot_columns = iter(slots.T)
    width = 0  # rows of the first weight matrix that the columns so far feed
    for col in features:
        if col.role == ROLE_CONTINUOUS:
            values = _column(table, col.name, index)
            z = cont[:, len(cont_rows)]
            with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
                np.divide(values - stats.means[col.name], stats.stds[col.name], out=z)
                usable = np.isfinite(np.square(z))
            if not usable.all():
                i = int(np.argmin(usable))
                line = table.lines[i if index is None else index[i]]
                raise ValueError(f"{table.path}: row {line}, column {col.name!r}: "
                                 f"{float(values[i])!r} is not finite, or too large once "
                                 "z-scored")
            cont_rows.append(width)
            width += 1
        else:
            vocab = stats.vocabs[col.name]
            slot = dict(zip(vocab, range(width, width + len(vocab))))
            width += len(vocab) + 1  # the column's last row is the unknown value's
            values, codes = _column(table, col.name, index)
            next(slot_columns)[:] = np.fromiter((slot.get(v, width - 1) for v in values),
                                                dtype=np.int32, count=len(values))[codes]
    return Dataset(x=Inputs(cont, slots, cont_rows, width), y=y,
                   num_classes=schema.num_classes, stats=stats)


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
    if not 0.0 < separation < np.inf:  # so NaN fails too
        raise ValueError(f"separation must be finite and > 0, got {separation}")
    if d < max(1, c - 1):
        raise ValueError(f"equidistant centers for {c} classes need d >= {max(1, c - 1)}")
    if n * d > np.iinfo(np.intp).max // 8:  # checked before anything is allocated
        raise ValueError(f"n x d = {n} x {d} float64 values are more than an array holds")
    if not math.isfinite(n * separation * separation):  # bounds a column's squared spread
        raise ValueError(f"separation {separation} is too large: the squared spread of "
                         f"{n} rows overflows float64")

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
    return Dataset(x=x, y=y, num_classes=c)


def blob_data(ds: Dataset, source: str = "blobs") -> CsvData:
    """Generated blobs as a table, to be split, fitted and encoded as a CSV
    is: continuous features ``x0``..``x{d-1}`` and the label ``y``, whose
    values are ``"0"``..``"{c-1}"``. Errors name ``source`` and number the
    rows from 1."""
    label_values = tuple(map(str, range(ds.num_classes)))
    names = [f"x{i}" for i in range(ds.dim)]
    schema = Schema(
        columns=(*(ColumnSpec(name, ROLE_CONTINUOUS) for name in names),
                 ColumnSpec("y", ROLE_LABEL)),
        label_values=label_values,
    )
    columns: dict[str, np.ndarray | Coded] = dict(zip(names, ds.x.cont.T.copy()))
    columns["y"] = Coded(label_values, ds.y)
    table = CsvTable(path=source, columns=columns, lines=range(1, len(ds) + 1))
    return CsvData(table=table, schema=schema, has_labels=True)


# ---------------------------------------------------------------------------
# model artifacts
# ---------------------------------------------------------------------------

@dataclass
class ModelArtifact(Predictor):
    """Everything needed to reproduce predictions: a trained head and the
    preprocessing state (schema and stats) that encodes its input."""

    schema: Schema
    stats: FeatureStats

    @property
    def num_classes(self) -> int:
        return self.schema.num_classes

    @classmethod
    def of(cls, head: Predictor, schema: Schema, stats: FeatureStats) -> ModelArtifact:
        """The artifact of a trained head, every field of it kept."""
        return cls(**{f.name: getattr(head, f.name) for f in fields(Predictor)},
                   schema=schema, stats=stats)


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


def atomic_write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the text ``chunks``, as they come, to a temp file in the same
    directory, then rename it to ``path``: a process that fails or is killed,
    even between chunks, leaves no partial file at ``path`` (a killed one may
    leave its temp file). Nothing is fsynced before the rename, so an OS
    crash can. The directory is made if it does not exist yet, and a write
    that fails removes it again, with each parent it made, if still empty."""
    directory = os.path.dirname(os.path.abspath(path))
    made = []  # the directories this call makes, deepest first
    parent = directory
    while not os.path.exists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        for made_dir in made:
            with contextlib.suppress(OSError):  # another writer's file keeps it
                os.rmdir(made_dir)
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
        "schema": artifact.schema.to_json_dict(),
        "stats": _encode_stats(artifact.stats),
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
    atomic_write_text(path, [encode_json(doc)])


def _encode_stats(stats: FeatureStats) -> dict:
    return {
        "means": {k: repr(v) for k, v in sorted(stats.means.items())},
        "stds": {k: repr(v) for k, v in sorted(stats.stds.items())},
        "vocabs": {k: list(v) for k, v in sorted(stats.vocabs.items())},
    }


def _decode_stats(obj: dict, schema: Schema) -> FeatureStats:
    """Inverse of :func:`_encode_stats`, checked as far as encoding relies on
    it: a finite mean and a positive finite std per continuous column, string
    vocabularies, and exactly the schema's feature columns."""
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
    if (set(stats.means) != {c.name for c in schema.feature_columns if c.role == ROLE_CONTINUOUS}
            or set(stats.vocabs) != {c.name for c in schema.feature_columns
                                     if c.role == ROLE_CATEGORICAL}):
        raise ValueError("stats do not cover the schema's feature columns")
    return stats


def load_model(path: str) -> ModelArtifact:
    """Load an artifact saved by :func:`save_model`; rejects wrong versions,
    truncated files, malformed arrays, artifacts without a schema or stats,
    and dwac artifacts missing their embedded training set, with a
    ValueError that names ``path``."""
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
    for key in ("schema", "stats"):
        if doc.get(key) is None:
            raise ValueError(f"{path}: model file has no {key!r}; re-train it")
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
        schema = Schema.from_json_dict(doc["schema"])
        # Each kernel block holds rows x num_classes sums: bound the count by
        # what training can have given before anything is sized by it.
        if model.head != DWAC and num_classes != spec.output_dim:
            raise ValueError(f"num_classes is {num_classes}, softmax outputs {spec.output_dim}")
        if num_classes != schema.num_classes:
            raise ValueError(f"num_classes is {num_classes}, schema labels {schema.num_classes}")
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
        stats = _decode_stats(doc["stats"], schema)
        calibrations = {measure: _decode_array(scores, 1, f"calibrations.{measure}")
                        for measure, scores in doc["calibrations"].items()}
        return ModelArtifact(model, sigma, embedded, calibrations, schema, stats)
    except (KeyError, TypeError, AttributeError) as e:
        raise ValueError(f"{path}: incomplete or malformed model file "
                         f"({type(e).__name__}: {e})") from None
    except (ValueError, OverflowError) as e:
        raise ValueError(f"{path}: {e}") from None
