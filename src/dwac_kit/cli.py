"""Command-line interface: train, predict, explain, conformal, ood.

Every run resolves a single RunConfig from defaults, an optional JSON
config file, and command-line flags (flags win). Outputs embed the
resolved semantic config (not file paths) as a header comment or JSON
field, so a rerun with the same config produces byte-identical files.

Datasets are either CSV files paired with a JSON schema, or synthetic
blob specs written inline as ``blobs:n=4000,c=4,d=8,sep=10`` (optional
``seed=``; defaults to the run seed). Blob data needs no schema.
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
from dataclasses import dataclass, fields

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
    encode_rows,
    fit_stats,
    load_model,
    make_blobs,
    read_csv_rows,
    save_model,
    standardize,
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
from .heads import Predictions
from .linalg import make_rng
from .network import DWAC, SOFTMAX
from .trainer import TrainConfig, predict, train_many

log = logging.getLogger("dwac_kit")

BLOBS_STREAM = 3

BOTH = "both"
HEAD_CHOICES = (SOFTMAX, DWAC, BOTH)
MEASURE_CHOICES = MEASURES + (BOTH,)
# Settings that only training reads; runs that train nothing refuse them.
TRAINING_KEYS = frozenset({
    "head", "sigma", "h_dim", "hidden", "dropout", "learning_rate", "batch_size",
    "max_epochs", "patience", "fractions", "trials",
})
# Locations, not meaning: every command takes them and no provenance holds them.
PATH_KEYS = frozenset({"schema", "model", "out"})
# All that ood --foreign reads besides paths, and so all its provenance holds.
FOREIGN_KEYS = ("command", "data", "foreign", "measure", "seed")
# The same for the commands that score with a saved artifact.
SCORING_KEYS = {
    "predict": ("command", "data", "seed"),
    "explain": ("command", "data", "seed", "k", "k_list"),
    "conformal": ("command", "data", "seed", "measure", "epsilons"),
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
    def trains(self) -> bool:
        """Whether the run trains a model and so takes sigma: ``train`` and
        hold-out ``ood``. The others score with the artifact's sigma."""
        return self.command == "train" or (
            self.command == "ood" and self.held_class is not None
        )

    @property
    def reads(self) -> tuple[str, ...] | None:
        """The keys a run that trains nothing reads besides paths; None for
        runs that train, which read them all."""
        if self.trains:
            return None
        return FOREIGN_KEYS if self.command == "ood" else SCORING_KEYS[self.command]

    @property
    def refused(self) -> frozenset[str]:
        """Keys this run may not be given: whatever a run that trains nothing
        does not read, since it would shape nothing."""
        if self.reads is None:
            return frozenset()
        return frozenset(f.name for f in fields(self)) - PATH_KEYS - set(self.reads)

    def provenance(self) -> str:
        """Canonical JSON of the semantic config: everything that shapes the
        numbers, none of the filesystem paths."""
        sources = ("data", "test_data", "foreign")
        doc = {}
        for f in fields(self):
            if f.name in PATH_KEYS or f.name in self.refused:
                continue
            value = getattr(self, f.name)
            if f.name in sources and value is not None and not value.startswith("blobs:"):
                continue  # CSV paths are location, not meaning; blob specs stay
            doc[f.name] = list(value) if isinstance(value, tuple) else value
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
    refused = sorted(cfg.refused & merged.keys())
    if refused:
        key = refused[0]
        flag = "--" + key.replace("_", "-")
        source = flag if getattr(args, key, None) is not None else args.config
        if key in TRAINING_KEYS:
            raise ValueError(
                f"{source}: {key} is a training key; {cfg.command} scores with the model "
                "artifact and trains nothing (ood trains only with --held-class)"
            )
        raise ValueError(f"{source}: {cfg.command} does not read {key}; it reads only "
                         f"{', '.join(k for k in cfg.reads if k != 'command')} besides paths")
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
    allowed = {"n", "c", "d", "sep", "seed"}
    unknown = set(kv) - allowed
    if unknown:
        raise ValueError(f"bad blob spec {spec!r}: unknown keys {sorted(unknown)}")
    return make_blobs(
        n=int(kv.get("n", 4000)),
        c=int(kv.get("c", 4)),
        d=int(kv.get("d", 8)),
        separation=float(kv.get("sep", 10.0)),
        rng=make_rng(int(kv.get("seed", default_seed)), BLOBS_STREAM),
    )


def _load_raw(source: str, cfg: RunConfig, schema: Schema | None = None) -> Dataset | CsvData:
    """Generated blobs, or a CSV read but not encoded: its stats come from
    each trial's proper split."""
    if source.startswith("blobs:"):
        return _parse_blob_spec(source, cfg.seed)
    if schema is None:
        if cfg.schema is None:
            raise ValueError(f"{source}: CSV data needs --schema")
        schema = Schema.from_file(cfg.schema)
    table, has_labels = read_csv_rows(source, schema)
    return CsvData(table=table, schema=schema, has_labels=has_labels)


class _Source:
    """A --data or --foreign input scored against saved artifacts. A CSV is
    read once per schema, and the input is encoded once per distinct schema
    and stats, so the artifacts of one training run share one encoding."""

    def __init__(self, source: str, cfg: RunConfig):
        self.source = source
        self.cfg = cfg
        self._read: dict[Schema, CsvData] = {}
        self._encoded: list[tuple[tuple, Dataset]] = []

    def for_artifact(self, artifact: ModelArtifact) -> Dataset:
        """The input encoded the way ``artifact``'s training data was."""
        key = (artifact.schema, artifact.stats)
        ds = next((ds for k, ds in self._encoded if k == key), None)
        if ds is None:
            ds = self._encode(artifact)
            self._encoded.append((key, ds))
        expected = artifact.model.spec.input_dim
        if ds.dim != expected:
            raise ValueError(f"{self.source}: feature width {ds.dim}, model expects {expected}")
        return ds

    def _csv(self, schema: Schema) -> CsvData:
        if schema not in self._read:
            self._read[schema] = _load_raw(self.source, self.cfg, schema)
        return self._read[schema]

    def _encode(self, artifact: ModelArtifact) -> Dataset:
        if self.source.startswith("blobs:"):
            ds = _parse_blob_spec(self.source, self.cfg.seed)
            if artifact.stats is not None and not artifact.stats.vocabs:
                ds = standardize(ds, artifact.stats)
            return ds
        if artifact.schema is not None and artifact.stats is not None:
            data = self._csv(artifact.schema)
            stats = artifact.stats
        else:
            if self.cfg.schema is None:
                raise ValueError(
                    f"{self.source}: artifact carries no schema; pass --schema (stats will be "
                    "fitted on this file, which is only sound for training-like data)"
                )
            data = self._csv(Schema.from_file(self.cfg.schema))
            stats = fit_stats(data.table, data.schema)
        return encode_rows(data.table, data.schema, stats, has_labels=data.has_labels)


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


def _write_csv(path: str, comment: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    buf.write(f"# {comment}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def _write_json(path: str, prov: str, key: str, records: list | dict) -> None:
    """Write ``{key: records, "provenance": prov}`` with sorted keys and one
    record (list item or dict entry) per line, each through the C encoder,
    which serves only compact output."""
    encode = json.JSONEncoder(sort_keys=True).encode
    if isinstance(records, dict):
        lines = [f"{encode(k)}: {encode(v)}" for k, v in sorted(records.items())]
        body = "{\n" + ",\n".join(lines) + "\n}"
    else:
        body = "[\n" + ",\n".join(map(encode, records)) + "\n]"
    parts = sorted([(key, body), ("provenance", prov)])
    atomic_write_text(path, "{" + ",\n".join(f"{encode(k)}: {v}" for k, v in parts) + "}\n")


def _require_out(cfg: RunConfig) -> str:
    if not cfg.out:
        raise ValueError("--out directory is required")
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def _fmt(x: float) -> str:
    return repr(float(x))


def _degenerate(preds: Predictions) -> int:
    """Rows whose kernel mass underflowed to zero, scored as uniform; softmax
    predictions have none."""
    return 0 if preds.degenerate is None else int(np.count_nonzero(preds.degenerate))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(cfg: RunConfig) -> int:
    if cfg.data is None:
        raise ValueError("train needs --data")
    out = _require_out(cfg)
    prov = cfg.provenance()
    raw = _load_raw(cfg.data, cfg)
    schema = raw.schema if isinstance(raw, CsvData) else None
    fixed_test = _load_raw(cfg.test_data, cfg, schema=schema) if cfg.test_data else None
    if isinstance(raw, CsvData) and not raw.has_labels:
        raise ValueError(f"{cfg.data}: training data must include the label column")
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
    for trial in range(cfg.trials):
        seed = cfg.seed + trial
        # one encoding per trial, shared by every head
        proper, calib_set, test = trial_splits(raw, seed, cfg.fractions, fixed_test)
        if len(test) < proper.num_classes:
            log.warning("trial %d: the test split has %d rows, fewer than the %d classes; "
                        "its accuracy and calibration error say little",
                        trial, len(test), proper.num_classes)
        results = train_many([(proper, calib_set, _train_config(cfg, head, seed))
                              for head in heads])
        for head, result in zip(heads, results):
            preds = predict(result.model, test.x, train=result.embedded, sigma=cfg.sigma)
            acc = accuracy(preds, test.y)
            mae = calibration_mae(preds.probs, test.y).mae
            underflowed = (_degenerate(preds), _degenerate(result.calib_predictions))
            if any(underflowed):
                log.warning("head=%s trial=%d: at sigma=%r the kernel mass underflowed to zero "
                            "for %d of %d test and %d of %d calibration rows, scored as "
                            "uniform", head, trial, cfg.sigma, underflowed[0], len(test),
                            underflowed[1], len(calib_set))
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
            save_model(artifact, os.path.join(out, f"model_{head}_trial{trial}.json"))
            _write_csv(
                os.path.join(out, f"history_{head}_trial{trial}.csv"),
                prov,
                ["epoch", "mean_loss", "calib_accuracy"],
                [[e.epoch, _fmt(e.mean_loss), _fmt(e.calib_accuracy)] for e in result.history],
            )
    _write_csv(
        os.path.join(out, "summary.csv"),
        prov,
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
    if cfg.data is None:
        raise ValueError("predict needs --data")
    out = _require_out(cfg)
    artifact = _single_model(cfg)
    ds = _Source(cfg.data, cfg).for_artifact(artifact)
    preds = predict(artifact.model, ds.x, train=artifact.embedded, sigma=artifact.sigma)
    label_names = artifact.schema.label_values if artifact.schema else None
    records = [{"index": i, "predicted": k, "probs": p}
               for i, (k, p) in enumerate(zip(preds.predicted.tolist(), preds.probs.tolist()))]
    if label_names:
        for record in records:
            record["label"] = label_names[record["predicted"]]
    _write_json(os.path.join(out, "predictions.json"), cfg.provenance(), "predictions", records)
    log.info("wrote %d predictions (%d degenerate)", len(records), _degenerate(preds))
    return 0


def cmd_explain(cfg: RunConfig) -> int:
    if cfg.data is None:
        raise ValueError("explain needs --data")
    out = _require_out(cfg)
    artifact = _single_model(cfg)
    if artifact.model.head != DWAC:
        raise ValueError("explanations need a dwac artifact")
    ds = _Source(cfg.data, cfg).for_artifact(artifact)
    explanations, table = explain_with_agreement(
        ds.x, artifact.model, artifact.embedded, k=cfg.k, k_list=cfg.k_list,
        sigma=artifact.sigma,
    )
    _write_json(os.path.join(out, "explanations.json"), cfg.provenance(), "explanations",
                [e.to_json_dict() for e in explanations])
    _write_csv(
        os.path.join(out, "agreement.csv"),
        cfg.provenance(),
        [f"k_{k}" for k, _ in table],
        [[_fmt(frac) for _, frac in table]],
    )
    log.info("wrote %d explanations and agreement table for k=%s",
             len(explanations), list(cfg.k_list))
    return 0


def cmd_conformal(cfg: RunConfig) -> int:
    if cfg.data is None:
        raise ValueError("conformal needs --data")
    if not cfg.model:
        raise ValueError("conformal needs at least one --model")
    out = _require_out(cfg)
    prov = cfg.provenance()
    data = _Source(cfg.data, cfg)
    for path in cfg.model:
        artifact = load_model(path)
        head = artifact.model.head
        ds = data.for_artifact(artifact)
        if ds.y is None:
            raise ValueError(f"{cfg.data}: coverage evaluation needs labels")
        preds = predict(artifact.model, ds.x, train=artifact.embedded, sigma=artifact.sigma)
        for measure in _measures_for(head, cfg.measure):
            if measure not in artifact.calibrations:
                raise ValueError(f"{path}: artifact has no calibration scores for {measure!r}")
            scores = conformal_predict(preds, artifact.calibrations[measure], measure)
            rows = coverage_report(scores, ds.y, cfg.epsilons)
            _write_csv(
                os.path.join(out, f"coverage_{head}_{measure}.csv"),
                prov,
                ["epsilon", "coverage", "mean_set_size", "empty_rate", "singleton_rate"],
                [[_fmt(r.epsilon), _fmt(r.coverage), _fmt(r.mean_set_size),
                  _fmt(r.empty_rate), _fmt(r.singleton_rate)] for r in rows],
            )
            cred = scores.credibility()
            counts, edges = np.histogram(cred, bins=HIST_BINS, range=(0.0, 1.0))
            _write_csv(
                os.path.join(out, f"credibility_{head}_{measure}.csv"),
                prov,
                ["bin_low", "bin_high", "count"],
                [[_fmt(edges[i]), _fmt(edges[i + 1]), int(counts[i])]
                 for i in range(counts.size)],
            )
            log.info("head=%s measure=%s coverage@0.05=%s degenerate=%d", head, measure,
                     next((r.coverage for r in rows if abs(r.epsilon - 0.05) < 1e-9), "n/a"),
                     _degenerate(preds))
    return 0


def cmd_ood(cfg: RunConfig) -> int:
    out = _require_out(cfg)
    prov = cfg.provenance()
    reports = {}
    if cfg.held_class is not None:
        if cfg.data is None:
            raise ValueError("hold-out ood needs --data")
        raw = _load_raw(cfg.data, cfg)
        if isinstance(raw, CsvData) and not raw.has_labels:
            raise ValueError(f"{cfg.data}: hold-out ood needs labels")
        # one split and encoding, shared by every head
        splits = trial_splits(raw, cfg.seed, cfg.fractions, held_class=cfg.held_class)
        measures = {head: _measures_for(head, cfg.measure) for head in _heads(cfg)}
        results = train_many([(*splits[:2], _train_config(cfg, head, cfg.seed))
                              for head in measures])
        for (head, head_measures), result in zip(measures.items(), results):
            per_measure = ood_holdout_class_multi(splits, result, head_measures, cfg.sigma)
            for measure, report in per_measure.items():
                reports[f"{head}/{measure}"] = report
    elif cfg.foreign is not None:
        if cfg.data is None:
            raise ValueError("cross-dataset ood needs --data as the in-domain reference")
        if not cfg.model:
            raise ValueError("cross-dataset ood needs --model")
        in_data, foreign_data = _Source(cfg.data, cfg), _Source(cfg.foreign, cfg)
        for path in cfg.model:
            artifact = load_model(path)
            head = artifact.model.head
            in_ds = in_data.for_artifact(artifact)
            foreign_ds = foreign_data.for_artifact(artifact)
            for measure in _measures_for(head, cfg.measure):
                if measure not in artifact.calibrations:
                    raise ValueError(
                        f"{path}: artifact has no calibration scores for {measure!r}"
                    )
                reports[f"{head}/{measure}"] = ood_cross_dataset(
                    artifact.model, artifact.embedded, artifact.calibrations[measure],
                    measure, in_ds, foreign_ds, sigma=artifact.sigma,
                )
    else:
        raise ValueError("ood needs either --held-class or --foreign")

    summary = {}
    for name, report in sorted(reports.items()):
        head, measure = name.split("/")
        _write_csv(
            os.path.join(out, f"ood_hist_{head}_{measure}.csv"),
            prov,
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
    _write_json(os.path.join(out, "ood_summary.json"), prov, "combinations", summary)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--data", help="CSV path or blobs:n=..,c=..,d=..,sep=..")
    p.add_argument("--schema", help="JSON schema for CSV data")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="base seed (default 0)")
    p.add_argument("-v", "--verbose", action="store_true", default=None)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--head", choices=HEAD_CHOICES)
    p.add_argument("--sigma", type=float, help="kernel width (default 0.5)")
    p.add_argument("--h-dim", dest="h_dim", type=int, help="embedding width (default: #classes)")
    p.add_argument("--hidden", help="hidden layer sizes, e.g. 32,8")
    p.add_argument("--dropout", type=float)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--fractions", help="proper,calibration,test fractions")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwac-kit",
        description="Weighted-averaging classifier with conformal label sets, "
                    "instance explanations, and OOD credibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one or both heads over several trials")
    _add_common(p)
    _add_train_flags(p)
    p.add_argument("--test-data", dest="test_data",
                   help="fixed test CSV; --data is then split proper/calibration only")
    p.add_argument("--trials", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict with a saved model")
    _add_common(p)
    p.add_argument("--model", action="append", help="model artifact path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explain", help="per-query neighbor explanations + agreement table")
    _add_common(p)
    p.add_argument("--model", action="append")
    p.add_argument("--k", type=int, help="entries per explanation (default 10)")
    p.add_argument("--k-list", dest="k_list", help="agreement table k values, e.g. 1,5,10,100")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("conformal", help="coverage and credibility over an epsilon grid")
    _add_common(p)
    p.add_argument("--model", action="append")
    p.add_argument("--measure", choices=MEASURE_CHOICES)
    p.add_argument("--epsilon-grid", dest="epsilons", help="comma-separated error rates")
    p.set_defaults(func=cmd_conformal)

    p = sub.add_parser("ood", help="out-of-domain credibility protocols")
    _add_common(p)
    _add_train_flags(p)
    p.add_argument("--model", action="append")
    p.add_argument("--measure", choices=MEASURE_CHOICES)
    p.add_argument("--held-class", dest="held_class", type=int,
                   help="class index to hold out of training")
    p.add_argument("--foreign", help="foreign dataset (CSV or blobs spec)")
    p.set_defaults(func=cmd_ood)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", None) else logging.INFO,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = build_config(args)
        # Values too large to compute with (in a CSV, an artifact or a setting)
        # end the run with one error line, not a numpy warning beside NaN outputs.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(cfg)
    except (ValueError, OSError, RuntimeError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
