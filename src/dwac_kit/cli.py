"""Command-line interface: train, predict, explain, conformal, ood.

Every run resolves a single RunConfig from defaults, an optional JSON
config file, and command-line flags (flags win). Outputs embed the
resolved semantic config (not file paths) as a header comment or JSON
field, so a rerun with the same config produces byte-identical files.

A setting is declared once: its line in KEYS gives the runs that read it
and its flag, and its field (TrainConfig's for a training value, else
RunConfig's) its type, default and check.

Datasets are either CSV files paired with a JSON schema, or synthetic
blob specs written inline as ``blobs:n=4000,c=4,d=8,sep=10`` (optional
``seed=``; defaults to the run seed). Blob data needs no schema file: it
becomes a table with a generated one, and from there both kinds take the
same path (split, stats fitted on the proper rows, encoding).

A scoring run reads its input a chunk of rows at a time (``_chunks``).
``predict``, ``conformal`` and both ``ood`` protocols predict through one
loop, ``_predicted``; ``ood --held-class`` gives it the test and held-out
sets of the heads it trains as one chunk each.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields, replace
from itertools import chain

import numpy as np

from . import heads
from .conformal import EPSILON_GRID, HEAD_MEASURES, Coverage, conformal_predict
from .data import (
    CsvData,
    Dataset,
    ModelArtifact,
    Schema,
    atomic_write_text,
    blob_data,
    encode_json,
    encode_rows,
    load_model,
    make_blobs,
    read_csv_rows,
    read_csv_tables,
    save_model,
)
from .evaluate import PER_BIN, accuracy, calibration_mae, trial_splits
from .explain import explain_rows
from .linalg import make_rng, split_sizes
from .network import DWAC, GATHER_ROWS, SOFTMAX
from .trainer import TrainConfig, predict, train_many

log = logging.getLogger("dwac_kit")

BLOBS_STREAM = 3
RECORD_ROWS = 1024  # predictions turned into records at a time, as they are written
HIST_BINS = 20  # equal bins of [0, 1] in every credibility histogram
# Fewest query rows scored at a time. Each chunk's kernel call starts and joins
# its threads anew: against 20,000 reference rows on a 2-vCPU VM the caller
# waited about 3 ms per call for its helper, so 1,024-row chunks made serve-20k's
# predict and conformal slower than one call, while 4,096-row chunks did not
# raise its peak.
CHUNK_MIN_ROWS = 4096
BLOB_KEYS = {"n": int, "c": int, "d": int, "sep": float, "seed": int}

BOTH = "both"
HEAD_CHOICES = (SOFTMAX, DWAC, BOTH)
# The kinds of run: train, ood --held-class, ood --foreign, and the commands
# that score with a saved artifact. Only the first two train.
RUNS = ("train", "holdout", "foreign", "predict", "explain", "conformal")
TRAINS, SCORES = RUNS[:2], RUNS[2:]
# Locations, not meaning: every run accepts them and no provenance holds them.
PATH_KEYS = frozenset({"schema", "model", "out"})


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


# Each key of a flag or config file: the kinds of run that read it, and its
# flag's argparse options ("flag" if not the key with dashes). A run refuses
# every key it does not read but a path (a key read only by runs that train
# is a training key), and its provenance holds the command and what it reads
# but the paths. A subcommand takes the flags of what its runs (COMMANDS) read.
KEYS = {
    "schema": (RUNS, {"help": "JSON schema for CSV data"}),
    "out": (RUNS, {"help": "output directory"}),
    "data": (RUNS, {"help": "CSV path or blobs:n=..,c=..,d=..,sep=.."}),
    "test_data": (("train",),
                  {"help": "fixed test CSV; --data is then split proper/calibration only"}),
    "foreign": (("foreign",), {"help": "foreign dataset (CSV or blobs spec)"}),
    "held_class": (("holdout",), {"type": int, "help": "class index to hold out of training"}),
    "seed": (RUNS, {"type": int, "help": "base seed"}),
    "trials": (("train",), {"type": int}),
    "head": (TRAINS, {"choices": HEAD_CHOICES}),
    "sigma": (TRAINS, {"type": float, "help": "kernel width"}),
    "h_dim": (TRAINS, {"type": int, "help": "embedding width (default: #classes)"}),
    "hidden": (TRAINS, {"type": int_list, "help": "hidden layer sizes, e.g. 32,8"}),
    "dropout": (TRAINS, {"type": float}),
    "learning_rate": (TRAINS, {"type": float}),
    "batch_size": (TRAINS, {"type": int}),
    "max_epochs": (TRAINS, {"type": int}),
    "patience": (TRAINS, {"type": int}),
    "fractions": (TRAINS, {"type": float_list, "help": "proper,calibration,test fractions"}),
    "epsilons": (("conformal",), {"flag": "--epsilon-grid", "type": float_list,
                                  "help": "comma-separated error rates"}),
    "k": (("explain",), {"type": int, "help": "entries per explanation"}),
    "k_list": (("explain",),
               {"type": int_list, "help": "agreement table k values, e.g. 1,5,10,100"}),
    "model": (SCORES, {"action": "append", "help": "model artifact path"}),
}
READS = {run: tuple(key for key, (runs, _) in KEYS.items() if run in runs) for run in RUNS}


@dataclass(frozen=True)
class RunConfig:
    command: str
    training: tuple[TrainConfig, ...] = ()  # a run that trains: its settings, one per head
    data: str | None = None
    test_data: str | None = None
    schema: str | None = None
    model: tuple[str, ...] = ()
    foreign: str | None = None
    held_class: int | None = None
    out: str | None = None
    trials: int = 1
    seed: int = 0
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    epsilons: tuple[float, ...] = EPSILON_GRID
    k: int = 10
    k_list: tuple[int, ...] = (1, 5, 10, 100)

    def __post_init__(self):
        if not all(map(math.isfinite, self.fractions)):
            raise ValueError(f"fractions must be finite, got {list(self.fractions)!r}")
        split_sizes(0, self.fractions)  # each part > 0, and they sum to 1
        if self.held_class is not None and self.held_class < 0:
            raise ValueError(f"held_class must be >= 0, got {self.held_class}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("epsilons", "k_list"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must hold at least one value")
            if len(set(values)) < len(values):  # a table would hold a column or row twice
                raise ValueError(f"{name} must not repeat a value, got {list(values)}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if min(self.k_list) < 1:
            raise ValueError(f"k_list entries must be >= 1, got {list(self.k_list)}")
        if any(not 0.0 <= e <= 1.0 for e in self.epsilons):
            raise ValueError("epsilon values must lie in [0, 1]")

    @property
    def run(self) -> str:
        """The kind of run, one of RUNS: the command, or for ood its protocol."""
        if self.command != "ood":
            return self.command
        return "foreign" if self.held_class is None else "holdout"

    def provenance(self) -> str:
        """Canonical JSON of the semantic config: everything that shapes the
        numbers, none of the filesystem paths."""
        values = {**vars(self)}
        if self.training:  # the heads share every training value but the head
            values.update(vars(self.training[0]))
            values["head"] = BOTH if len(self.training) > 1 else self.training[0].head
        sources = ("data", "test_data", "foreign")
        doc = {}
        for name in ("command", *READS[self.run]):
            value = values[name]
            if name in PATH_KEYS or (name in sources and value is not None
                                     and not value.startswith("blobs:")):
                continue  # CSV paths are location, not meaning; blob specs stay
            doc[name] = list(value) if isinstance(value, tuple) else value
        return encode_json(doc)


def _conforms(value, hint: str) -> bool:
    """Whether ``value`` has the type a field's annotation ``hint`` names;
    ints pass for floats, bools pass for nothing."""
    if " | " in hint:
        return any(_conforms(value, h) for h in hint.split(" | "))
    if hint.startswith("tuple["):
        items = hint[6:-1].split(", ")
        if items[-1] == "...":
            items = items[:1] * len(value) if isinstance(value, tuple) else []
        return (isinstance(value, tuple) and len(value) == len(items)
                and all(map(_conforms, value, items)))
    return type(value) in {"int": (int,), "float": (int, float), "str": (str,),
                           "None": (type(None),)}[hint]


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, the optional config file, and explicit flags."""
    merged: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as f:
            try:
                file_values = json.load(f)
            except ValueError as e:
                raise ValueError(f"{args.config}: {e}") from None
        if not isinstance(file_values, dict):
            raise ValueError(f"{args.config}: config file must hold a JSON object")
        unknown = set(file_values) - set(KEYS)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {sorted(unknown)}")
        merged.update(file_values)
    merged.update((k, v) for k, v in vars(args).items() if k in KEYS and v is not None)
    # JSON arrays of the config file, and the --model list, as the tuples the fields hold
    merged = {k: tuple(v) if isinstance(v, list) else v for k, v in merged.items()}
    hints = {f.name: f.type for c in (TrainConfig, RunConfig) for f in fields(c)}
    for key, value in merged.items():
        choices = KEYS[key][1].get("choices")
        if not _conforms(value, hints[key]):
            raise ValueError(f"{key} must be {hints[key]}, got {value!r}")
        if choices and value not in choices:
            raise ValueError(f"{key} must be one of {choices}")
    own = {f.name for f in fields(RunConfig)}
    cfg = RunConfig(args.command, **{k: v for k, v in merged.items() if k in own})
    reads = READS[cfg.run]
    refused = sorted(merged.keys() - PATH_KEYS - set(reads))
    if refused:
        key = refused[0]
        source = _flag(key) if getattr(args, key, None) is not None else args.config
        if KEYS[key][0] == TRAINS:
            raise ValueError(f"{source}: {key} is a training key; {cfg.command} scores with "
                             "the model artifact and trains nothing (ood trains only with "
                             "--held-class)")
        raise ValueError(f"{source}: {cfg.command} does not read {key}; it reads only "
                         f"{', '.join(k for k in reads if k not in PATH_KEYS)} besides paths")
    if cfg.data is None:  # every kind of run reads it
        raise ValueError(f"{cfg.command} needs --data")
    if cfg.run in TRAINS:  # its bad settings go before any data is read
        settings = {k: v for k, v in merged.items() if k not in own}
        head = settings.pop("head", BOTH)  # the CLI trains both heads unless told one
        heads = (SOFTMAX, DWAC) if head == BOTH else (head,)
        cfg = replace(cfg, training=tuple(TrainConfig(**settings, head=h, seed=cfg.seed)
                                          for h in heads))
    return cfg


# ---------------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------------

def _parse_blob_spec(spec: str, default_seed: int) -> Dataset:
    body = spec.split(":", 1)[1]
    kv = {}
    for part in body.split(","):
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad blob spec {spec!r}: expected key=value, got {part!r}")
        key, value = (t.strip() for t in part.split("=", 1))
        if key in kv:
            raise ValueError(f"bad blob spec {spec!r}: repeated key {key!r}")
        kv[key] = value
    unknown = set(kv) - set(BLOB_KEYS)
    if unknown:
        raise ValueError(f"bad blob spec {spec!r}: unknown keys {sorted(unknown)}")
    values = {"n": 4000, "c": 4, "d": 8, "sep": 10.0, "seed": default_seed}
    for key, text in kv.items():
        try:
            values[key] = BLOB_KEYS[key](text)
        except ValueError:
            raise ValueError(f"bad blob spec {spec!r}: cannot parse {key}={text!r} "
                             f"as {BLOB_KEYS[key].__name__}") from None
    try:
        return make_blobs(values["n"], values["c"], values["d"], values["sep"],
                          make_rng(values["seed"], BLOBS_STREAM))
    except ValueError as e:
        raise ValueError(f"bad blob spec {spec!r}: {e}") from None


def _load_raw(source: str, cfg: RunConfig, schema: Schema | None = None) -> CsvData:
    """A CSV, or generated blobs, as a table not yet encoded: its stats come
    from each trial's proper split, or from the artifact that scores it.
    With ``schema`` (the training data's, or the artifact's), the table must
    have its columns, and its labels are read against its label values."""
    if source.startswith("blobs:"):
        data = blob_data(_parse_blob_spec(source, cfg.seed), source)
        if schema is None:
            return data
        if schema.columns != data.schema.columns:
            raise ValueError(f"{source}: blob columns {[c.name for c in data.schema.columns]} "
                             f"are not the schema's {[c.name for c in schema.columns]}")
        return replace(data, schema=schema)
    if schema is None:
        if cfg.schema is None:
            raise ValueError(f"{source}: CSV data needs --schema")
        schema = Schema.from_file(cfg.schema)
    table, has_labels = read_csv_rows(source, schema)
    return CsvData(table=table, schema=schema, has_labels=has_labels)


def _chunk_rows(artifacts: list[ModelArtifact]) -> int:
    """Query rows scored at a time: a multiple of GATHER_ROWS, so only the
    last chunk pads its eval block, with at least RUN_BLOCKS kernel blocks
    for each of up to two usable CPUs against each artifact's embedded
    training set, so the kernel engine runs a thread on each, and at least
    CHUNK_MIN_ROWS. A chunk's rows do not grow past two CPUs, so neither
    does the memory that holds them."""
    blocks = min(heads.usable_cpus(), 2) * heads.RUN_BLOCKS
    rows = max([CHUNK_MIN_ROWS, *(blocks * heads.block_rows(len(a.embedded))
                                  for a in artifacts if a.embedded is not None)])
    return -(-rows // GATHER_ROWS) * GATHER_ROWS


def _tables(source: str, cfg: RunConfig, schema: Schema, rows: int) -> Iterator[CsvData]:
    """``source`` read with an artifact's ``schema`` as tables of ``rows`` rows
    each, in row order. A blob spec is generated whole, since drawing it in
    parts would change its values, and taken ``rows`` at a time."""
    if source.startswith("blobs:"):
        data = _load_raw(source, cfg, schema)
        return (data.rows(a, a + rows) for a in range(0, len(data), rows))
    return read_csv_tables(source, schema, rows)


def _encode_chunk(source: str, read: dict[Schema, CsvData | None],
                  artifacts: list[ModelArtifact], labels: bool) -> list[Dataset] | None:
    """The tables ``read`` of one chunk, one per schema, encoded the way each
    artifact's training data was: once per distinct schema and stats, so the
    artifacts of one training run share one encoding. None once the tables
    have run out."""
    if not all(read.values()):
        return None
    encoded: list[tuple[tuple, Dataset]] = []
    datasets = []
    for artifact in artifacts:
        key = (artifact.schema, artifact.stats)
        ds = next((ds for k, ds in encoded if k == key), None)
        if ds is None:
            data = read[artifact.schema]
            ds = encode_rows(data.table, data.schema, artifact.stats,
                             has_labels=labels and data.has_labels)
            encoded.append((key, ds))
        expected = artifact.model.spec.input_dim
        if ds.dim != expected:
            raise ValueError(f"{source}: feature width {ds.dim}, model expects {expected}")
        datasets.append(ds)
    return datasets


def _chunks(source: str, cfg: RunConfig, artifacts: list[ModelArtifact],
            labels: bool = False) -> Iterator[tuple[int, list[Dataset]]]:
    """A --data or --foreign input, ``_chunk_rows(artifacts)`` rows at a
    time in row order: the position of each chunk's first row, and the chunk
    encoded for each artifact. The input is read once per schema, a chunk at
    a time, and each chunk's tables go once it is encoded, so no table sits
    beside a kernel sum. No output depends on the chunk size, as no row's
    does on the rows scored with it. Labels are encoded only for a command
    that reads them. An input with no rows is refused."""
    rows = _chunk_rows(artifacts)
    readers = {schema: _tables(source, cfg, schema, rows)
               for schema in dict.fromkeys(a.schema for a in artifacts)}
    start = 0
    while datasets := _encode_chunk(
            source, {schema: next(tables, None) for schema, tables in readers.items()},
            artifacts, labels):
        yield start, datasets
        start += len(datasets[0])
        del datasets  # the next chunk is read with this one let go
    if start == 0:
        raise ValueError(f"{source}: no data rows to score")


def _predicted(chunks: Iterable[tuple[int, list[Dataset]]], predictors: list[heads.Predictor]
               ) -> Iterator[tuple[int, int, Dataset, heads.Predictions]]:
    """The one prediction of each chunk of ``chunks`` (pairs as ``_chunks``
    yields them) by each predictor, in order: the chunk's first row, the
    predictor's position, the chunk's rows encoded for it, and their
    Predictions. A consumer lets go of the rows and predictions it is given
    before it asks for the next, so no chunk sits beside the next one read."""
    for start, datasets in chunks:
        for i, predictor in enumerate(predictors):
            yield start, i, datasets[i], predict(predictor, datasets[i].x)
        del datasets  # the next chunk is read with this one let go


def _artifacts(cfg: RunConfig) -> list[ModelArtifact]:
    """The --model artifacts of a scoring run, refused before any data is
    read. predict and explain take exactly one. conformal and ood --foreign
    name their outputs by head, so they take one per head, and they score
    each head under every measure it has (HEAD_MEASURES): each artifact
    keeps those calibration scores, in that order, and is refused if it
    lacks one."""
    single = cfg.run in ("predict", "explain")
    if not cfg.model or single and len(cfg.model) > 1:
        raise ValueError(f"{cfg.command} needs {'exactly' if single else 'at least'} one --model")
    artifacts = []
    for path in cfg.model:
        artifact = load_model(path)
        head = artifact.model.head
        for other, earlier in zip(cfg.model, artifacts):
            if earlier.model.head == head:
                raise ValueError(f"--model {other} and --model {path} are both {head} "
                                 "artifacts; give one artifact per head")
        if not single:
            missing = [m for m in HEAD_MEASURES[head] if m not in artifact.calibrations]
            if missing:
                raise ValueError(f"{path}: artifact has no calibration scores for {missing[0]!r}")
            artifact = replace(artifact, calibrations={m: artifact.calibrations[m]
                                                       for m in HEAD_MEASURES[head]})
        artifacts.append(artifact)
    return artifacts


def _write_csv(cfg: RunConfig, name: str, header: list[str], rows: list[list]) -> None:
    """Write ``name`` under --out: the provenance as a comment line, then
    the header and the rows."""
    buf = io.StringIO()
    buf.write(f"# {cfg.provenance()}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(os.path.join(cfg.out, name), [buf.getvalue()])


def _write_json(cfg: RunConfig, name: str, key: str, records: Iterable[str] | dict) -> int:
    """Write ``{key: records, "provenance": ...}`` as ``name`` under --out,
    with sorted keys (``key`` sorts before "provenance") and one record per
    line: a dict entry, or a list item given as its ``encode_json`` line.
    Each line is written as it comes, so no list of them all is held here.
    Returns the number of records written."""
    if isinstance(records, dict):
        lines = (f"{encode_json(k)}: {encode_json(v)}" for k, v in sorted(records.items()))
        opening, closing = "{", "}"
    else:
        lines, opening, closing = records, "[", "]"
    written = 0

    def chunks():
        nonlocal written
        yield f"{{{encode_json(key)}: {opening}\n"
        for line in lines:
            yield f",\n{line}" if written else line
            written += 1
        yield f"\n{closing},\n{encode_json('provenance')}: {cfg.provenance()}}}\n"

    atomic_write_text(os.path.join(cfg.out, name), chunks())
    return written


def _require_out(cfg: RunConfig) -> None:
    """Refuse the --out directory up front if a file holds its place or
    that of a directory above it. The first output written makes it, so a
    refused run leaves none behind."""
    if not cfg.out:
        raise ValueError("--out directory is required")
    path = os.path.abspath(cfg.out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ValueError(f"--out {cfg.out}: {path} is not a directory")


def _fmt(x: float) -> str:
    return repr(float(x))


def _histogram(values: np.ndarray) -> np.ndarray:
    """Counts of ``values`` in the HIST_BINS equal bins of [0, 1]."""
    return np.histogram(values, bins=HIST_BINS, range=(0.0, 1.0))[0]


def _write_histogram(cfg: RunConfig, name: str, counts: dict[str, np.ndarray]) -> None:
    """Write ``name`` under --out: the HIST_BINS equal bins of [0, 1], with
    a column per named ``_histogram`` of credibilities."""
    edges = np.linspace(0.0, 1.0, HIST_BINS + 1)
    _write_csv(cfg, name, ["bin_low", "bin_high", *counts],
               [[_fmt(edges[i]), _fmt(edges[i + 1]), *(int(c[i]) for c in counts.values())]
                for i in range(HIST_BINS)])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(cfg: RunConfig) -> int:
    raw = _load_raw(cfg.data, cfg)
    fixed_test = _load_raw(cfg.test_data, cfg, schema=raw.schema) if cfg.test_data else None
    accs = {config.head: [] for config in cfg.training}
    maes = {head: [] for head in accs}
    schema = raw.schema
    for trial in range(cfg.trials):
        seed = cfg.seed + trial
        # one encoding per trial, shared by every head
        proper, calib_set, test = trial_splits(raw, seed, cfg.fractions, fixed_test)
        if trial == cfg.trials - 1:  # the encoded splits are all the rest of the run reads
            raw = fixed_test = None
        if len(test) < proper.num_classes:
            log.warning("trial %d: the test split has %d rows, fewer than the %d classes; "
                        "its accuracy and calibration error say little",
                        trial, len(test), proper.num_classes)
        configs = [replace(config, seed=seed) for config in cfg.training]
        results = train_many([(proper, calib_set, config) for config in configs])
        for config, result in zip(configs, results):
            head = config.head
            preds = predict(result, test.x)
            acc = accuracy(preds, test.y)
            mae = calibration_mae(preds.probs, test.y)
            accs[head].append(acc)
            maes[head].append(mae)
            log.info(
                "head=%s trial=%d seed=%d epochs=%d acc=%.4f mae=%.4f",
                head, trial, seed, len(result.history), acc, mae,
            )
            save_model(ModelArtifact.of(result, schema, proper.stats),
                       os.path.join(cfg.out, f"model_{head}_trial{trial}.json"))
            _write_csv(
                cfg, f"history_{head}_trial{trial}.csv",
                ["epoch", "mean_loss", "calib_accuracy"],
                [[e.epoch, _fmt(e.mean_loss), _fmt(e.calib_accuracy)] for e in result.history],
            )
        if math.isnan(mae):  # then every head's is: the bins depend on the test split alone
            pairs = len(test) * proper.num_classes
            log.warning("trial %d: the calibration error is NaN: the test split's %d rows x %d "
                        "classes make %d pairs, fewer than two bins of %d", trial, len(test),
                        proper.num_classes, pairs, PER_BIN)
    _write_csv(
        cfg, "summary.csv",
        ["head", "accuracy_mean", "accuracy_std", "calibration_mae_mean",
         "calibration_mae_std"],
        [[head, _fmt(np.mean(accs[head])), _fmt(np.std(accs[head])),
          _fmt(np.mean(maes[head])), _fmt(np.std(maes[head]))] for head in accs],
    )
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    artifact, = _artifacts(cfg)
    label_names = artifact.schema.label_values

    def records():
        for start, _, ds, preds in _predicted(_chunks(cfg.data, cfg, [artifact]), [artifact]):
            for a in range(0, len(preds), RECORD_ROWS):
                b = a + RECORD_ROWS
                for i, k, p in zip(range(start + a, start + b), preds.predicted[a:b].tolist(),
                                   preds.probs[a:b].tolist()):
                    yield encode_json({"index": i, "label": label_names[k], "predicted": k,
                                       "probs": p})
            del ds, preds  # the next chunk is read with this one let go

    written = _write_json(cfg, "predictions.json", "predictions", records())
    log.info("wrote %d predictions", written)
    return 0


def cmd_explain(cfg: RunConfig) -> int:
    artifact, = _artifacts(cfg)
    if artifact.model.head != DWAC:
        raise ValueError("explanations need a dwac artifact")
    hits = np.zeros(len(cfg.k_list), dtype=np.int64)  # rows agreeing at each k

    def lines():
        for start, (ds,) in _chunks(cfg.data, cfg, [artifact]):
            chunk, chunk_hits = explain_rows(ds.x, artifact, cfg.k, cfg.k_list, first=start)
            hits[:] += chunk_hits
            yield from chunk
            del ds, chunk  # the next chunk is read with this one let go

    written = _write_json(cfg, "explanations.json", "explanations", lines())
    _write_csv(cfg, "agreement.csv", [f"k_{k}" for k in cfg.k_list],
               [[_fmt(h / written) for h in hits.tolist()]])
    log.info("wrote %d explanations and agreement table for k=%s",
             written, list(cfg.k_list))
    return 0


def cmd_conformal(cfg: RunConfig) -> int:
    artifacts = _artifacts(cfg)
    # per artifact, measure -> its coverage counts and credibility histogram
    tallies = [{measure: (Coverage(cfg.epsilons), np.zeros(HIST_BINS, dtype=np.int64))
                for measure in artifact.calibrations} for artifact in artifacts]
    for _, i, ds, preds in _predicted(_chunks(cfg.data, cfg, artifacts, labels=True), artifacts):
        if ds.y is None:
            raise ValueError(f"{cfg.data}: coverage evaluation needs labels")
        for measure, calibration in artifacts[i].calibrations.items():
            scores = conformal_predict(preds, calibration, measure)
            coverage, counts = tallies[i][measure]
            coverage.add(scores, ds.y)
            counts += _histogram(scores.credibility())
        del ds, preds, scores  # the next chunk is read with these let go
    for artifact, tally in zip(artifacts, tallies):
        head = artifact.model.head
        for measure, (coverage, counts) in tally.items():
            rows = coverage.rows()
            _write_csv(cfg, f"coverage_{head}_{measure}.csv", list(rows[0]),
                       [[_fmt(value) for value in r.values()] for r in rows])
            _write_histogram(cfg, f"credibility_{head}_{measure}.csv", {"count": counts})
            log.info("head=%s measure=%s coverage@0.05=%s", head, measure,
                     next((r["coverage"] for r in rows if abs(r["epsilon"] - 0.05) < 1e-9), "n/a"))
    return 0


def cmd_ood(cfg: RunConfig) -> int:
    # the heads that score, and each one's in-domain and out-of-domain rows as
    # chunks (pairs as _chunks yields them), by either protocol
    if cfg.held_class is not None:
        # one split and encoding, shared by every head; the held class is out of domain
        proper, calib, test, held = trial_splits(_load_raw(cfg.data, cfg), cfg.seed,
                                                 cfg.fractions, held_class=cfg.held_class)
        predictors = train_many([(proper, calib, config) for config in cfg.training])
        inputs = [[(0, [ds] * len(predictors))] for ds in (test, held)]
    elif cfg.foreign is not None:
        predictors = _artifacts(cfg)
        # each input's first chunk is read before either is scored, so a
        # missing or malformed --foreign is refused before --data is scored;
        # each first chunk is then held until its input is scored through
        inputs = [chain([next(chunks)], chunks) for chunks in
                  [_chunks(source, cfg, predictors) for source in (cfg.data, cfg.foreign)]]
    else:
        raise ValueError("ood needs either --held-class or --foreign")

    # head -> measure -> (in-domain, out-of-domain) credibility, a chunk at a time
    parts = {p.model.head: {m: ([], []) for m in p.calibrations} for p in predictors}
    for side, chunks in enumerate(inputs):
        for _, i, ds, preds in _predicted(chunks, predictors):
            predictor = predictors[i]
            for measure, scores in predictor.calibrations.items():
                parts[predictor.model.head][measure][side].append(
                    conformal_predict(preds, scores, measure).credibility())
            del ds, preds  # the next chunk is read with these let go
    summary = {}
    for head, per_measure in sorted(parts.items()):
        for measure, sides in per_measure.items():
            in_cred, out_cred = map(np.concatenate, sides)
            name = f"{head}/{measure}"
            _write_histogram(cfg, f"ood_hist_{head}_{measure}.csv",
                             {"in_domain_count": _histogram(in_cred),
                              "out_of_domain_count": _histogram(out_cred)})
            in_mean, out_mean = float(np.mean(in_cred)), float(np.mean(out_cred))
            summary[name] = {"in_domain_mean": in_mean, "out_of_domain_mean": out_mean,
                             "in_domain_n": in_cred.size, "out_of_domain_n": out_cred.size}
            log.info("%s: in mean %.3f out mean %.3f", name, in_mean, out_mean)
    _write_json(cfg, "ood_summary.json", "combinations", summary)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# Each subcommand: its function, the kinds of run it makes, and its help.
COMMANDS = {
    "train": (cmd_train, ("train",), "train one or both heads over several trials"),
    "predict": (cmd_predict, ("predict",), "predict with a saved model"),
    "explain": (cmd_explain, ("explain",), "per-query neighbor explanations + agreement table"),
    "conformal": (cmd_conformal, ("conformal",),
                  "coverage and credibility over an epsilon grid"),
    "ood": (cmd_ood, ("holdout", "foreign"), "out-of-domain credibility protocols"),
}


def _flag(key: str) -> str:
    return KEYS[key][1].get("flag", "--" + key.replace("_", "-"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one error line from main, not usage text and an exit
        raise ValueError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dwac-kit",
        description="Weighted-averaging classifier with conformal label sets, "
                    "instance explanations, and OOD credibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each help shows its field's default where that is a number
    defaults = {f.name: f.default for c in (TrainConfig, RunConfig) for f in fields(c)}
    for command, (func, runs, text) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("-v", "--verbose", action="store_true", default=None)
        for key, (key_runs, options) in KEYS.items():
            if set(runs) & set(key_runs):
                options = {k: v for k, v in options.items() if k != "flag"}
                if type(defaults.get(key)) in (int, float):
                    text = options.get("help", "")
                    options["help"] = f"{text} (default {defaults[key]})".lstrip()
                p.add_argument(_flag(key), dest=key, **options)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        logging.basicConfig(format="%(levelname)s %(message)s", stream=sys.stderr)
        # set on every call: basicConfig does nothing once the root logger has a handler
        log.setLevel(logging.DEBUG if args.verbose else logging.INFO)
        cfg = build_config(args)
        _require_out(cfg)
        # Values too large to compute with (in a CSV, an artifact or a setting)
        # end the run with one error line, not a numpy warning beside NaN outputs.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(cfg)
    except (ValueError, OSError, RuntimeError, FloatingPointError, MemoryError) as e:
        # numpy's MemoryError names the shape it could not allocate; a bare one is empty
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
