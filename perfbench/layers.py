"""Which dwac_kit functions the traced run wraps, and the per-layer metrics
derived from their spans and counters.

Layers are the package's modules. Each metric below should move one
end-to-end metric on one workload; NOTES.md lists the mapping.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from collections.abc import Callable

import numpy as np

from tracer import Span, Tracer, self_times

ZERO_CHECK_BLOCK = 256  # query rows per block when counting underflowed kernel entries
COMMANDS = ("train", "predict", "explain", "conformal", "ood")
# per-command figures of the traced run, name -> unit
COMMAND_FIGURES = {"wall_s": "s", "cpu_s": "s", "sys_s": "s", "wait_s": "s", "rss_growth_mb": "MB"}


def _count(key: str, amount) -> Callable:
    def hook(tr: Tracer, span: Span, args: dict, result) -> None:
        tr.counters[key] += amount(args, result)
    return hook


def _file_bytes(key: str) -> Callable:
    return _count(key, lambda a, r: os.path.getsize(a["path"]))


def _forward(tr: Tracer, span: Span, args: dict, result) -> None:
    span.name = f"network.forward_{args['mode']}"
    tr.counters[f"{span.name}.calls"] += 1
    tr.counters[f"{span.name}.rows"] += result[0].shape[0]


def _batch_loss(tr: Tracer, span: Span, args: dict, result) -> None:
    b, d = np.shape(args["h_batch"])
    tr.counters["heads.dwac_batch_loss.calls"] += 1
    tr.counters["heads.dwac_batch_loss.pairs"] += b * b
    tr.counters[f"shape heads.dwac_batch_loss {b}x{d}"] += 1


def _dwac_predict(tr: Tracer, span: Span, args: dict, result) -> None:
    h_query, ref, sigma = np.asarray(args["h_query"]), args["train"], args["sigma"]
    q, d = h_query.shape
    t, c = ref.h.shape[0], ref.num_classes
    tr.counters["heads.dwac_predict.calls"] += 1
    tr.counters["heads.dwac_predict.entries"] += q * t
    # float64 inputs, the dense q x t kernel the sum runs over, and the output
    tr.counters["heads.dwac_predict.computed_bytes"] += 8 * (q * d + t * d + q * t + q * c)
    tr.counters[f"shape heads.dwac_predict {q}x{t}x{d}"] += 1
    kernel = tr.originals.get("heads.kernel_weights")
    if kernel is None or any(s.name == "trainer.train" for s in tr.ancestors(span)):
        return
    # Post-training call: count kernel entries that are exactly 0.0, using the
    # package's own kernel a block of rows at a time so no q x t matrix is held.
    zeros = 0
    for i in range(0, q, ZERO_CHECK_BLOCK):
        zeros += int(np.count_nonzero(kernel(h_query[i:i + ZERO_CHECK_BLOCK], ref.h, sigma) == 0.0))
    tr.counters["heads.kernel.zero_entries"] += zeros
    tr.counters["heads.kernel.checked_entries"] += q * t


def _kernel_weights(tr: Tracer, span: Span, args: dict, result) -> None:
    q, t = result.shape
    tr.counters["heads.kernel_weights.entries"] += q * t
    tr.counters[f"shape heads.kernel_weights {q}x{t}x{np.shape(args['h_query'])[1]}"] += 1


def _train(tr: Tracer, span: Span, args: dict, result) -> None:
    span.attrs["head"] = args["config"].head
    tr.counters["trainer.epochs"] += len(result.history)


TARGETS = {
    "data.read_csv_rows": _count("data.read_csv_rows.rows", lambda a, r: len(r[0])),
    "data.encode_rows": _count("data.encode_rows.rows", lambda a, r: len(r)),
    "data.load_model": _file_bytes("data.load_model.bytes"),
    "data.save_model": _file_bytes("data.save_model.bytes"),
    "network.forward": _forward,
    "network.backward": None,
    "network.adam_step": _count("network.adam_step.calls", lambda a, r: 1),
    "heads.dwac_batch_loss": _batch_loss,
    "heads.dwac_predict": _dwac_predict,
    "heads.kernel_weights": _kernel_weights,
    "backends.pairwise_sq": None,
    "backends.class_weight_sums": None,
    "backends.loo_loss_grad": None,
    "linalg.pairwise_sq_distances": None,
    "trainer.train": _train,
    "trainer.predict": None,
    "trainer.embed_training_set": None,
    "conformal.calibrate": None,
    "conformal.conformal_predict": None,
    "conformal.coverage_report": None,
    "explain.explain_many": None,
    "explain.agreement_at_k": None,
    "evaluate.ood_holdout_class_multi": None,
}
RSS_TARGETS = ("heads.dwac_predict",)

# name -> unit of every per-layer metric the traced run derives in-process
TRACED_UNITS = {
    "data.read_csv_rows.s": "s", "data.read_csv_rows.rows": "rows",
    "data.encode_rows.s": "s", "data.encode_rows.rows": "rows",
    "data.load_model.s": "s", "data.load_model.bytes": "bytes",
    "data.save_model.s": "s", "data.save_model.bytes": "bytes",
    "network.forward_train.s": "s", "network.forward_train.calls": "count",
    "network.forward_eval.s": "s", "network.forward_eval.rows": "rows",
    "network.backward.s": "s",
    "network.adam_step.s": "s", "network.adam_step.calls": "count",
    "heads.dwac_batch_loss.s": "s", "heads.dwac_batch_loss.calls": "count",
    "heads.dwac_batch_loss.pairs": "count",
    "heads.dwac_predict.s": "s", "heads.dwac_predict.calls": "count",
    "heads.dwac_predict.entries": "count", "heads.dwac_predict.entries_per_s": "1/s",
    "heads.dwac_predict.computed_bytes": "bytes", "heads.dwac_predict.rss_growth_mb": "MB",
    "heads.kernel_weights.s": "s", "heads.kernel_weights.entries": "count",
    "heads.kernel.zero_fraction": "ratio",
    "backends.pairwise_sq.s": "s", "backends.class_weight_sums.s": "s",
    "backends.loo_loss_grad.s": "s",
    "linalg.pairwise_sq_distances.s": "s",
    "trainer.epochs": "count", "trainer.epoch_ms.p50": "ms", "trainer.epoch_ms.p90": "ms",
    "trainer.validation_s": "s", "trainer.validation_share": "ratio",
    "conformal.calibrate.s": "s", "conformal.conformal_predict.s": "s",
    "conformal.coverage_report.s": "s",
    "explain.explain_many.s": "s", "explain.agreement_at_k.s": "s",
    "evaluate.ood_holdout_class_multi.self_s": "s",
    **{f"cli.{c}.{k}": u for c in COMMANDS for k, u in COMMAND_FIGURES.items()},
    "trace.absent_layers": "count",
}


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures from one traced workload process."""
    out = dict.fromkeys(TRACED_UNITS, 0.0)
    total = defaultdict(float)
    for s in tr.spans:
        total[s.name] += s.duration
    for name in TRACED_UNITS:
        if name.endswith(".s") and not name.startswith("cli."):
            out[name] = total[name[:-2]]
    for key, value in tr.counters.items():
        if key in out:
            out[key] = float(value)

    ood = [i for i, s in enumerate(tr.spans) if s.name == "evaluate.ood_holdout_class_multi"]
    if ood:
        own = self_times(tr.spans)
        out["evaluate.ood_holdout_class_multi.self_s"] = sum(own[i] for i in ood)

    if out["heads.dwac_predict.s"] > 0:
        out["heads.dwac_predict.entries_per_s"] = (
            out["heads.dwac_predict.entries"] / out["heads.dwac_predict.s"])
    out["heads.dwac_predict.rss_growth_mb"] = max(
        (s.attrs.get("rss_growth_mb", 0.0) for s in tr.spans if s.name == "heads.dwac_predict"),
        default=0.0)
    if tr.counters["heads.kernel.checked_entries"]:
        out["heads.kernel.zero_fraction"] = (
            tr.counters["heads.kernel.zero_entries"] / tr.counters["heads.kernel.checked_entries"])

    # Validation is the time of embed/predict calls made directly by train;
    # with a calibration split each epoch ends with one such predict call.
    train_s, validation_s, epoch_ms = 0.0, 0.0, []
    for i, s in enumerate(tr.spans):
        if s.name != "trainer.train":
            continue
        train_s += s.duration
        kids = [k for k in tr.spans if k.parent == i]
        validation_s += sum(k.duration for k in kids
                            if k.name in ("trainer.predict", "trainer.embed_training_set"))
        if s.attrs.get("head") == "dwac":
            mark = s.start
            for k in kids:
                if k.name == "trainer.predict":
                    epoch_ms.append(1e3 * (k.end - mark))
                    mark = k.end
    out["trainer.validation_s"] = validation_s
    out["trainer.validation_share"] = validation_s / train_s if train_s else 0.0
    out["trainer.epoch_ms.p50"] = _percentile(epoch_ms, 50)
    out["trainer.epoch_ms.p90"] = _percentile(epoch_ms, 90)

    for s in tr.spans:
        if s.name.startswith("cli."):
            for key in COMMAND_FIGURES:
                out[f"{s.name}.{key}"] += s.attrs[key]
    out["trace.absent_layers"] = float(len(tr.absent))
    return out


def shape_counts(tr: Tracer) -> dict[str, int]:
    """Calls per kernel shape (query x reference x embedding width)."""
    return {k[len("shape "):]: int(v) for k, v in sorted(tr.counters.items())
            if k.startswith("shape ")}
