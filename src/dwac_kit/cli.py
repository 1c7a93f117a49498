"""Command-line interface: train, predict, explain, conformal, ood.

Every run resolves a single RunConfig from defaults, an optional JSON
config file, and command-line flags (flags win). Outputs embed the
resolved semantic config (not file paths) as a header comment or JSON
field, so a rerun with the same config produces byte-identical files.

Datasets are either CSV files paired with a JSON schema, or synthetic
blob specs written inline as ``blobs:n=4000,c=4,d=8,sep=10`` (optional
``seed=``; defaults to the run seed). Blob data needs no schema file: it
becomes a table with a generated one, and from there both kinds take the
same path (split, stats fitted on the proper rows, encoding).
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
import types
import typing
from dataclasses import dataclass, fields, replace

import numpy as np

from .conformal import (
    EPSILON_GRID,
    MEASURES,
    NEG_PROB,
    NEG_WEIGHT_SUM,
    calibrate,
    conformal_predict,
    coverage_report,
)
from .data import (
    CsvData,
    Dataset,
    ModelArtifact,
    Schema,
    atomic_write_text,
    blob_data,
    encode_rows,
    load_model,
    make_blobs,
    read_csv_rows,
    save_model,
)
from .evaluate import (
    HIST_BINS,
    accuracy,
    calibration_mae,
    ood_cross_dataset,
    ood_holdout_class_multi,
    trial_splits,
)
from .explain import explain_with_agreement
from .linalg import make_rng
from .network import DWAC, SOFTMAX
from .trainer import TrainConfig, predict, train_many

log = logging.getLogger("dwac_kit")

BLOBS_STREAM = 3
BLOB_KEYS = {"n": int, "c": int, "d": int, "sep": float, "seed": int}

BOTH = "both"
HEAD_CHOICES = (SOFTMAX, DWAC, BOTH)
MEASURE_CHOICES = MEASURES + (BOTH,)
# Settings that only training reads; runs that train nothing refuse them.
TRAINING_KEYS = ("head", "sigma", "h_dim", "hidden", "dropout", "learning_rate",
                 "batch_size", "max_epochs", "patience", "fractions")
# Locations, not meaning: every run accepts them and no provenance holds them.
PATH_KEYS = frozenset({"schema", "model", "out"})
# All that each kind of run reads: train, ood --held-class, ood --foreign,
# and the commands that score with a saved artifact. Its provenance holds
# the command and these keys but the paths; it refuses every other key but
# a path, and its subcommand takes a flag for each key (see FLAGS).
READS = {
    "train": ("data", "test_data", "seed", "trials", *TRAINING_KEYS),
    "holdout": ("data", "held_class", "measure", "seed", *TRAINING_KEYS),
    "foreign": ("data", "foreign", "measure", "seed", "model"),
    "predict": ("data", "seed", "model"),
    "explain": ("data", "seed", "k", "k_list", "model"),
    "conformal": ("data", "seed", "measure", "epsilons", "model"),
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    data: str | None = None
    test_data: str | None = None
    schema: str | None = None
    model: tuple[str, ...] = ()
    foreign: str | None = None
    held_class: int | None = None
    out: str | None = None
    head: str = BOTH
    measure: str = BOTH
    h_dim: int | None = None
    hidden: tuple[int, ...] = (32, 8)
    dropout: float = 0.2
    sigma: float = 0.5
    learning_rate: float = 0.001
    batch_size: int = 128
    max_epochs: int = 200
    patience: int = 10
    trials: int = 1
    seed: int = 0
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    epsilons: tuple[float, ...] = EPSILON_GRID
    k: int = 10
    k_list: tuple[int, ...] = (1, 5, 10, 100)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, _FIELD_TYPES[f.name]):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        for name in ("sigma", "learning_rate", "dropout"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not all(map(math.isfinite, self.fractions)):
            raise ValueError(f"fractions must be finite, got {list(self.fractions)!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if any(not 0.0 <= e <= 1.0 for e in self.epsilons):
            raise ValueError("epsilon values must lie in [0, 1]")
        if self.head not in HEAD_CHOICES:
            raise ValueError(f"head must be one of {HEAD_CHOICES}")
        if self.measure not in MEASURE_CHOICES:
            raise ValueError(f"measure must be one of {MEASURE_CHOICES}")

    @property
    def run(self) -> str:
        """The kind of run, a key of READS: the command, or for ood its
        protocol. Only ``train`` and hold-out ``ood`` train, and so take
        sigma; the others score with the artifact's."""
        if self.command != "ood":
            return self.command
        return "foreign" if self.held_class is None else "holdout"

    def provenance(self) -> str:
        """Canonical JSON of the semantic config: everything that shapes the
        numbers, none of the filesystem paths."""
        sources = ("data", "test_data", "foreign")
        doc = {}
        for name in ("command", *READS[self.run]):
            value = getattr(self, name)
            if name in PATH_KEYS or (name in sources and value is not None
                                     and not value.startswith("blobs:")):
                continue  # CSV paths are location, not meaning; blob specs stay
            doc[name] = list(value) if isinstance(value, tuple) else value
        return json.dumps(doc, sort_keys=True)


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _conforms(value, hint) -> bool:
    """Whether ``value`` has the annotated type; ints pass for floats, bools
    pass for nothing."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_conforms(value, h) for h in args)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, tuple):
            return False
        if len(args) == 2 and args[1] is Ellipsis:
            return all(_conforms(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    if isinstance(value, bool):
        return False
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


_LIST_PARSERS = {
    "hidden": _parse_ints,
    "k_list": _parse_ints,
    "fractions": _parse_floats,
    "epsilons": _parse_floats,
}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, the optional config file, and explicit flags."""
    merged: dict = {"command": args.command}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as f:
            file_values = json.load(f)
        if not isinstance(file_values, dict):
            raise ValueError(f"{args.config}: config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)} - {"command"}  # the subcommand decides
        unknown = set(file_values) - known
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {sorted(unknown)}")
        merged.update(file_values)
    for key, value in vars(args).items():
        if key in ("command", "config", "func", "verbose") or value is None:
            continue
        merged[key] = value
    for key, parser in _LIST_PARSERS.items():
        if key in merged and isinstance(merged[key], str):
            merged[key] = parser(merged[key])
        elif key in merged and isinstance(merged[key], list):
            merged[key] = tuple(merged[key])
    if "model" in merged and isinstance(merged["model"], (list, tuple)):
        merged["model"] = tuple(merged["model"])
    cfg = RunConfig(**merged)
    reads = READS[cfg.run]
    refused = sorted(merged.keys() - {"command"} - PATH_KEYS - set(reads))
    if refused:
        key = refused[0]
        source = _flag(key) if getattr(args, key, None) is not None else args.config
        if key in TRAINING_KEYS:
            raise ValueError(
                f"{source}: {key} is a training key; {cfg.command} scores with the model "
                "artifact and trains nothing (ood trains only with --held-class)"
            )
        raise ValueError(f"{source}: {cfg.command} does not read {key}; it reads only "
                         f"{', '.join(k for k in reads if k not in PATH_KEYS)} besides paths")
    if cfg.data is None:  # every kind of run reads it
        raise ValueError(f"{cfg.command} needs --data")
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
        key, value = part.split("=", 1)
        kv[key.strip()] = value.strip()
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


class _Source:
    """A --data or --foreign input scored against the run's artifacts, each
    of which asks for it once. It is read once per schema, and encoded once
    per distinct schema and stats, so the artifacts of one training run
    share one encoding. The table read is let go once the last artifact has
    its encoding, so it does not sit beside that artifact's kernel sums. Its
    labels are encoded only for a command that reads them."""

    def __init__(self, source: str, cfg: RunConfig, labels: bool = False):
        self.source = source
        self.cfg = cfg
        self.labels = labels
        self._read: dict[Schema, CsvData] = {}
        self._encoded: list[tuple[tuple, Dataset]] = []
        self._artifacts_left = len(cfg.model)

    def for_artifact(self, artifact: ModelArtifact) -> Dataset:
        """The input encoded the way ``artifact``'s training data was."""
        key = (artifact.schema, artifact.stats)
        ds = next((ds for k, ds in self._encoded if k == key), None)
        if ds is None:
            if artifact.schema not in self._read:
                self._read[artifact.schema] = _load_raw(self.source, self.cfg, artifact.schema)
            data = self._read[artifact.schema]
            ds = encode_rows(data.table, data.schema, artifact.stats,
                             has_labels=self.labels and data.has_labels)
            self._encoded.append((key, ds))
        self._artifacts_left -= 1
        if self._artifacts_left <= 0:
            self._read.clear()
        expected = artifact.model.spec.input_dim
        if ds.dim != expected:
            raise ValueError(f"{self.source}: feature width {ds.dim}, model expects {expected}")
        return ds


def _heads(cfg: RunConfig) -> list[str]:
    return [SOFTMAX, DWAC] if cfg.head == BOTH else [cfg.head]


def _measures_for(head: str, requested: str) -> list[str]:
    valid = (NEG_PROB, NEG_WEIGHT_SUM) if head == DWAC else (NEG_PROB,)
    if requested == BOTH:
        return list(valid)
    if requested not in valid:
        raise ValueError(
            f"measure {requested!r} is incompatible with head {head!r}; valid: {valid}"
        )
    return [requested]


def _calibrations(artifact: ModelArtifact, path: str, requested: str) -> dict[str, np.ndarray]:
    """The artifact's calibration scores of each measure ``requested`` of its
    head, refused if the head has no such measure or the artifact no such
    scores. Commands call it before they score or write anything."""
    calibrations = {}
    for measure in _measures_for(artifact.model.head, requested):
        if measure not in artifact.calibrations:
            raise ValueError(f"{path}: artifact has no calibration scores for {measure!r}")
        calibrations[measure] = artifact.calibrations[measure]
    return calibrations


def _scored_artifacts(cfg: RunConfig) -> list[tuple[ModelArtifact, dict[str, np.ndarray]]]:
    """Each --model artifact with its ``_calibrations``, refused before
    anything is scored if there is none or two share a head: outputs are
    named by head, so the second would overwrite the first."""
    if not cfg.model:
        raise ValueError(f"{cfg.command} needs at least one --model")
    artifacts = [load_model(path) for path in cfg.model]
    heads = [a.model.head for a in artifacts]
    for i, head in enumerate(heads):
        if head in heads[:i]:
            raise ValueError(f"--model {cfg.model[heads.index(head)]} and --model {cfg.model[i]} "
                             f"are both {head} artifacts; give one artifact per head")
    return [(a, _calibrations(a, path, cfg.measure)) for a, path in zip(artifacts, cfg.model)]


def _train_config(cfg: RunConfig, head: str, seed: int) -> TrainConfig:
    return TrainConfig(
        head=head,
        hidden_sizes=cfg.hidden,
        h_dim=cfg.h_dim,
        dropout_prob=cfg.dropout,
        sigma=cfg.sigma,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
        max_epochs=cfg.max_epochs,
        patience=cfg.patience,
        seed=seed,
    )


def _write_csv(cfg: RunConfig, name: str, header: list[str], rows: list[list]) -> None:
    """Write ``name`` under --out: the provenance as a comment line, then
    the header and the rows."""
    buf = io.StringIO()
    buf.write(f"# {cfg.provenance()}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(os.path.join(cfg.out, name), buf.getvalue())


def _write_json(cfg: RunConfig, name: str, key: str, records: list | dict) -> None:
    """Write ``{key: records, "provenance": ...}`` as ``name`` under --out,
    with sorted keys and one record (list item or dict entry) per line, each
    through the C encoder, which serves only compact output."""
    encode = json.JSONEncoder(sort_keys=True).encode
    if isinstance(records, dict):
        lines = [f"{encode(k)}: {encode(v)}" for k, v in sorted(records.items())]
        body = "{\n" + ",\n".join(lines) + "\n}"
    else:
        body = "[\n" + ",\n".join(map(encode, records)) + "\n]"
    parts = sorted([(key, body), ("provenance", cfg.provenance())])
    atomic_write_text(os.path.join(cfg.out, name),
                      "{" + ",\n".join(f"{encode(k)}: {v}" for k, v in parts) + "}\n")


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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(cfg: RunConfig) -> int:
    _require_out(cfg)
    raw = _load_raw(cfg.data, cfg)
    fixed_test = _load_raw(cfg.test_data, cfg, schema=raw.schema) if cfg.test_data else None
    if not raw.has_labels:
        raise ValueError(f"{cfg.data}: training data must include the label column")
    if fixed_test is not None and not fixed_test.has_labels:
        raise ValueError(f"{cfg.test_data}: test data must include the label column "
                         f"{raw.schema.label_column!r}")
    parts = len(cfg.fractions) - (fixed_test is not None)
    if len(raw) < parts:
        raise ValueError(
            f"{cfg.data}: {len(raw)} data rows, too few to split into {parts} parts"
        )
    if fixed_test is not None and len(fixed_test) == 0:
        raise ValueError(f"{cfg.test_data}: 0 data rows, nothing to test on")

    heads = _heads(cfg)
    accs = {head: [] for head in heads}
    maes = {head: [] for head in heads}
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
        results = train_many([(proper, calib_set, _train_config(cfg, head, seed))
                              for head in heads])
        for head, result in zip(heads, results):
            preds = predict(result.model, test.x, train=result.embedded, sigma=cfg.sigma)
            acc = accuracy(preds, test.y)
            mae = calibration_mae(preds.probs, test.y)
            accs[head].append(acc)
            maes[head].append(mae)
            log.info(
                "head=%s trial=%d seed=%d epochs=%d acc=%.4f mae=%.4f",
                head, trial, seed, len(result.history), acc, mae,
            )

            calibrations = {
                m: calibrate(result.calib_predictions, calib_set.y, m)
                for m in _measures_for(head, BOTH)
            }
            artifact = ModelArtifact(
                model=result.model,
                sigma=cfg.sigma,
                num_classes=proper.num_classes,
                schema=schema,
                stats=proper.stats,
                embedded=result.embedded,
                calibrations=calibrations,
            )
            save_model(artifact, os.path.join(cfg.out, f"model_{head}_trial{trial}.json"))
            _write_csv(
                cfg, f"history_{head}_trial{trial}.csv",
                ["epoch", "mean_loss", "calib_accuracy"],
                [[e.epoch, _fmt(e.mean_loss), _fmt(e.calib_accuracy)] for e in result.history],
            )
    _write_csv(
        cfg, "summary.csv",
        ["head", "accuracy_mean", "accuracy_std", "calibration_mae_mean",
         "calibration_mae_std"],
        [[head, _fmt(np.mean(accs[head])), _fmt(np.std(accs[head])),
          _fmt(np.mean(maes[head])), _fmt(np.std(maes[head]))] for head in heads],
    )
    return 0


def _single_model(cfg: RunConfig) -> ModelArtifact:
    if len(cfg.model) != 1:
        raise ValueError("this command needs exactly one --model")
    return load_model(cfg.model[0])


def cmd_predict(cfg: RunConfig) -> int:
    _require_out(cfg)
    artifact = _single_model(cfg)
    ds = _Source(cfg.data, cfg).for_artifact(artifact)
    preds = predict(artifact.model, ds.x, train=artifact.embedded, sigma=artifact.sigma)
    label_names = artifact.schema.label_values
    records = [{"index": i, "label": label_names[k], "predicted": k, "probs": p}
               for i, (k, p) in enumerate(zip(preds.predicted.tolist(), preds.probs.tolist()))]
    _write_json(cfg, "predictions.json", "predictions", records)
    log.info("wrote %d predictions", len(records))
    return 0


def cmd_explain(cfg: RunConfig) -> int:
    _require_out(cfg)
    artifact = _single_model(cfg)
    if artifact.model.head != DWAC:
        raise ValueError("explanations need a dwac artifact")
    ds = _Source(cfg.data, cfg).for_artifact(artifact)
    explanations, table = explain_with_agreement(
        ds.x, artifact.model, artifact.embedded, k=cfg.k, k_list=cfg.k_list,
        sigma=artifact.sigma,
    )
    _write_json(cfg, "explanations.json", "explanations",
                [e.to_json_dict() for e in explanations])
    _write_csv(cfg, "agreement.csv", [f"k_{k}" for k, _ in table],
               [[_fmt(frac) for _, frac in table]])
    log.info("wrote %d explanations and agreement table for k=%s",
             len(explanations), list(cfg.k_list))
    return 0


def cmd_conformal(cfg: RunConfig) -> int:
    _require_out(cfg)
    data = _Source(cfg.data, cfg, labels=True)
    for artifact, calibrations in _scored_artifacts(cfg):
        head = artifact.model.head
        ds = data.for_artifact(artifact)
        if ds.y is None:
            raise ValueError(f"{cfg.data}: coverage evaluation needs labels")
        preds = predict(artifact.model, ds.x, train=artifact.embedded, sigma=artifact.sigma)
        for measure, calibration in calibrations.items():
            scores = conformal_predict(preds, calibration, measure)
            rows = coverage_report(scores, ds.y, cfg.epsilons)
            _write_csv(
                cfg, f"coverage_{head}_{measure}.csv",
                ["epsilon", "coverage", "mean_set_size", "empty_rate", "singleton_rate"],
                [[_fmt(r.epsilon), _fmt(r.coverage), _fmt(r.mean_set_size),
                  _fmt(r.empty_rate), _fmt(r.singleton_rate)] for r in rows],
            )
            cred = scores.credibility()
            counts, edges = np.histogram(cred, bins=HIST_BINS, range=(0.0, 1.0))
            _write_csv(
                cfg, f"credibility_{head}_{measure}.csv",
                ["bin_low", "bin_high", "count"],
                [[_fmt(edges[i]), _fmt(edges[i + 1]), int(counts[i])]
                 for i in range(counts.size)],
            )
            log.info("head=%s measure=%s coverage@0.05=%s", head, measure,
                     next((r.coverage for r in rows if abs(r.epsilon - 0.05) < 1e-9), "n/a"))
    return 0


def cmd_ood(cfg: RunConfig) -> int:
    _require_out(cfg)
    reports = {}  # head -> measure -> report
    if cfg.held_class is not None:
        # one split and encoding, shared by every head
        splits = trial_splits(_load_raw(cfg.data, cfg), cfg.seed, cfg.fractions,
                              held_class=cfg.held_class)
        measures = {head: _measures_for(head, cfg.measure) for head in _heads(cfg)}
        results = train_many([(*splits[:2], _train_config(cfg, head, cfg.seed))
                              for head in measures])
        for (head, head_measures), result in zip(measures.items(), results):
            reports[head] = ood_holdout_class_multi(splits, result, head_measures, cfg.sigma)
    elif cfg.foreign is not None:
        in_data, foreign_data = _Source(cfg.data, cfg), _Source(cfg.foreign, cfg)
        for artifact, calibrations in _scored_artifacts(cfg):
            reports[artifact.model.head] = ood_cross_dataset(
                artifact.model, artifact.embedded, calibrations,
                in_data.for_artifact(artifact), foreign_data.for_artifact(artifact),
                sigma=artifact.sigma)
    else:
        raise ValueError("ood needs either --held-class or --foreign")

    summary = {}
    for head, per_measure in sorted(reports.items()):
        for measure, report in per_measure.items():
            name = f"{head}/{measure}"
            _write_csv(
                cfg, f"ood_hist_{head}_{measure}.csv",
                ["bin_low", "bin_high", "in_domain_count", "out_of_domain_count"],
                [[_fmt(report.hist_edges[i]), _fmt(report.hist_edges[i + 1]),
                  int(report.in_counts[i]), int(report.out_counts[i])]
                 for i in range(report.in_counts.size)],
            )
            summary[name] = {
                "in_domain_mean": report.in_mean,
                "out_of_domain_mean": report.out_mean,
                "in_domain_n": int(report.in_domain.size),
                "out_of_domain_n": int(report.out_of_domain.size),
            }
            log.info("%s: in mean %.3f out mean %.3f", name, report.in_mean, report.out_mean)
    _write_json(cfg, "ood_summary.json", "combinations", summary)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# The flag of each key: its argparse options, and its name where that is not
# the key's with dashes. Every subcommand takes --config, -v, --schema, --out
# and the flag of every key that its kinds of run (COMMANDS) read.
FLAGS = {
    "data": {"help": "CSV path or blobs:n=..,c=..,d=..,sep=.."},
    "test_data": {"help": "fixed test CSV; --data is then split proper/calibration only"},
    "schema": {"help": "JSON schema for CSV data"},
    "model": {"action": "append", "help": "model artifact path"},
    "foreign": {"help": "foreign dataset (CSV or blobs spec)"},
    "held_class": {"type": int, "help": "class index to hold out of training"},
    "out": {"help": "output directory"},
    "head": {"choices": HEAD_CHOICES}, "measure": {"choices": MEASURE_CHOICES},
    "h_dim": {"type": int, "help": "embedding width (default: #classes)"},
    "hidden": {"help": "hidden layer sizes, e.g. 32,8"},
    "sigma": {"type": float, "help": "kernel width (default 0.5)"},
    "dropout": {"type": float}, "learning_rate": {"type": float},
    "batch_size": {"type": int}, "max_epochs": {"type": int}, "patience": {"type": int},
    "trials": {"type": int},
    "seed": {"type": int, "help": "base seed (default 0)"},
    "fractions": {"help": "proper,calibration,test fractions"},
    "epsilons": {"flag": "--epsilon-grid", "help": "comma-separated error rates"},
    "k": {"type": int, "help": "entries per explanation (default 10)"},
    "k_list": {"help": "agreement table k values, e.g. 1,5,10,100"},
}
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
    return FLAGS[key].get("flag", "--" + key.replace("_", "-"))


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwac-kit",
        description="Weighted-averaging classifier with conformal label sets, "
                    "instance explanations, and OOD credibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, runs, text) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("-v", "--verbose", action="store_true", default=None)
        for key in dict.fromkeys(("schema", "out", *(k for run in runs for k in READS[run]))):
            options = {k: v for k, v in FLAGS[key].items() if k != "flag"}
            p.add_argument(_flag(key), dest=key, **options)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(message)s", stream=sys.stderr)
    # set on every call: basicConfig does nothing once the root logger has a handler
    log.setLevel(logging.DEBUG if args.verbose else logging.INFO)
    try:
        cfg = build_config(args)
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
