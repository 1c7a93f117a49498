"""The three workloads: inputs made from a seed, the CLI commands of one job,
and the checks on that job's outputs.

Every workload is a closed loop with one caller: a single process runs the
job's commands in order, each starting when the previous one has returned.
Epoch counts are fixed (patience equals the epoch budget), so run length
does not depend on which epoch happens to score best.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

from adult import ENCODED_WIDTH

SCHEMA = "schemas/adult_income.json"
ADULT_ROWS = 32_561
ADULT_QUERY_ROWS = 10_000
SERVE_REFERENCE_ROWS = 20_000


def _blobs(n: int, seed: int) -> str:
    return f"blobs:n={n},c=4,d=8,sep=10,seed={seed}"


def _input_seed(seed: int, i: int) -> int:
    """Distinct data seeds for the i-th input set of a run."""
    return 10 * seed + i


def _read_table(path: str) -> list[dict[str, str]]:
    """Rows of a CLI output CSV, whose first line is a provenance comment."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        lines = [line for line in f if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _dwac_accuracy(train_dir: str) -> float:
    row = next(r for r in _read_table(os.path.join(train_dir, "summary.csv"))
               if r["head"] == "dwac")
    return float(row["accuracy_mean"])


def _coverage_at_005(conformal_dir: str) -> float:
    rows = _read_table(os.path.join(conformal_dir, "coverage_dwac_neg_prob.csv"))
    return float(next(r["coverage"] for r in rows if abs(float(r["epsilon"]) - 0.05) < 1e-9))


def _epochs(train_dir: str, head: str) -> int:
    return len(_read_table(os.path.join(train_dir, f"history_{head}_trial0.csv")))


class Operations:
    """Steps and checks attempted in a run, and which of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[str, int], list[dict]]       # (inputs dir, seed) -> child steps
    job: Callable[[str, str, int], list[list[str]]]  # (inputs dir, out dir, seed) -> argv list
    query_rows: dict[str, int]                    # rows each command scores, for rates
    check: Callable[[str, str, Operations], dict[str, float]]  # -> test_accuracy, coverage_0.05
    prefault_mb: int                              # about the job's peak RSS


# --- blobs-train: minibatch training dominates (forward/backward/Adam and the
# 128x128 leave-one-out kernel); the 800x2400 validation kernel is small.

def _blobs_train_job(inputs: str, out: str, seed: int) -> list[list[str]]:
    data = _blobs(4000, _input_seed(seed, 1))
    budget = ["--max-epochs", "100", "--patience", "100", "--seed", str(seed)]
    train = os.path.join(out, "train")
    return [
        ["train", "--data", data, "--head", "both", *budget, "--out", train],
        ["conformal", "--data", _blobs(2000, _input_seed(seed, 2)),
         "--model", os.path.join(train, "model_dwac_trial0.json"),
         "--model", os.path.join(train, "model_softmax_trial0.json"),
         "--out", os.path.join(out, "conformal")],
        ["ood", "--data", data, "--held-class", "3", *budget, "--out", os.path.join(out, "ood")],
    ]


def _blobs_train_check(inputs: str, out: str, ops: Operations) -> dict[str, float]:
    train = os.path.join(out, "train")
    for head in ("dwac", "softmax"):
        ops.record(f"{head} ran 100 epochs", _epochs(train, head) == 100)
    acc, cov = _dwac_accuracy(train), _coverage_at_005(os.path.join(out, "conformal"))
    ops.record("dwac accuracy >= 0.9 on separated blobs", acc >= 0.9)
    ops.record("coverage at 0.05 >= 0.9", cov >= 0.9)
    # The weight-sum credibility is dwac's out-of-domain score. neg_prob need
    # not fall on a held-out class, and on some seeds it does not.
    combos = _read_json(os.path.join(out, "ood", "ood_summary.json"))["combinations"]
    ood = combos["dwac/neg_weight_sum"]
    ops.record("held-out class is less credible by weight sum",
               ood["out_of_domain_mean"] < ood["in_domain_mean"])
    return {"test_accuracy": acc, "coverage_0.05": cov}


# --- adult-shape: CSV ingest/encode, and one 6,512 x 19,536 validation
# kernel per epoch, on overlapping classes.

def _adult_setup(inputs: str, seed: int) -> list[dict]:
    return [
        {"adult_csv": os.path.join(inputs, "train.csv"), "rows": ADULT_ROWS,
         "seed": _input_seed(seed, 1)},
        {"adult_csv": os.path.join(inputs, "query.csv"), "rows": ADULT_QUERY_ROWS,
         "seed": _input_seed(seed, 2)},
    ]


def _adult_job(inputs: str, out: str, seed: int) -> list[list[str]]:
    train = os.path.join(out, "train")
    return [
        ["train", "--data", os.path.join(inputs, "train.csv"), "--schema", SCHEMA,
         "--head", "both", "--max-epochs", "3", "--patience", "3", "--seed", str(seed),
         "--out", train],
        ["conformal", "--data", os.path.join(inputs, "query.csv"),
         "--model", os.path.join(train, "model_dwac_trial0.json"),
         "--model", os.path.join(train, "model_softmax_trial0.json"),
         "--out", os.path.join(out, "conformal")],
    ]


def _adult_check(inputs: str, out: str, ops: Operations) -> dict[str, float]:
    train = os.path.join(out, "train")
    model = _read_json(os.path.join(train, "model_dwac_trial0.json"))
    ops.record(f"encoded width is {ENCODED_WIDTH}",
               model["spec"]["layer_sizes"][0] == ENCODED_WIDTH)
    for head in ("dwac", "softmax"):
        ops.record(f"{head} ran 3 epochs", _epochs(train, head) == 3)
    acc, cov = _dwac_accuracy(train), _coverage_at_005(os.path.join(out, "conformal"))
    ops.record("dwac accuracy in [0.75, 1) on noisy labels", 0.75 <= acc < 1.0)
    ops.record("coverage at 0.05 >= 0.9", cov >= 0.9)
    return {"test_accuracy": acc, "coverage_0.05": cov}


# --- serve-20k: inference only against 20,000 reference rows: artifact load,
# the 10k x 20k kernel, and explain's per-row ranking.

def _artifact(inputs: str) -> str:
    return os.path.join(inputs, "artifact", "model_dwac_trial0.json")


def _serve_setup(inputs: str, seed: int) -> list[dict]:
    return [
        {"cli": ["train", "--data", _blobs(25_000, _input_seed(seed, 1)),
                 "--fractions", "0.8,0.05,0.15", "--head", "dwac", "--max-epochs", "5",
                 "--patience", "5", "--seed", str(seed),
                 "--out", os.path.join(inputs, "artifact")]},
        {"blob_labels": _blobs(10_000, _input_seed(seed, 2)),
         "path": os.path.join(inputs, "predict_labels.json")},
    ]


def _serve_job(inputs: str, out: str, seed: int) -> list[list[str]]:
    model = ["--model", _artifact(inputs)]
    return [
        ["predict", "--data", _blobs(10_000, _input_seed(seed, 2)), *model,
         "--out", os.path.join(out, "predict")],
        ["conformal", "--data", _blobs(10_000, _input_seed(seed, 3)), *model,
         "--out", os.path.join(out, "conformal")],
        ["explain", "--k", "10", "--data", _blobs(1_000, _input_seed(seed, 4)), *model,
         "--out", os.path.join(out, "explain")],
    ]


def _serve_check(inputs: str, out: str, ops: Operations) -> dict[str, float]:
    reference = _read_json(_artifact(inputs))["embedded"]["labels"]
    ops.record(f"artifact holds {SERVE_REFERENCE_ROWS} reference rows",
                  len(reference) == SERVE_REFERENCE_ROWS)
    labels = _read_json(os.path.join(inputs, "predict_labels.json"))
    preds = _read_json(os.path.join(out, "predict", "predictions.json"))["predictions"]
    ops.record("one prediction per query row", len(preds) == len(labels))
    acc = sum(p["predicted"] == y for p, y in zip(preds, labels)) / max(len(labels), 1)
    cov = _coverage_at_005(os.path.join(out, "conformal"))
    ops.record("accuracy >= 0.9 on separated blobs", acc >= 0.9)
    ops.record("coverage at 0.05 >= 0.9", cov >= 0.9)
    explanations = _read_json(os.path.join(out, "explain", "explanations.json"))["explanations"]
    ops.record("1000 explanations of 10 entries",
                  len(explanations) == 1000
                  and all(len(e["entries"]) == 10 for e in explanations))
    return {"test_accuracy": acc, "coverage_0.05": cov}


WORKLOADS = {
    w.name: w for w in (
        Workload("blobs-train", lambda inputs, seed: [], _blobs_train_job,
                 {"conformal": 2000}, _blobs_train_check, 0),
        Workload("adult-shape", _adult_setup, _adult_job,
                 {"conformal": ADULT_QUERY_ROWS}, _adult_check, 3100),
        Workload("serve-20k", _serve_setup, _serve_job,
                 {"predict": 10_000, "conformal": 10_000, "explain": 1_000}, _serve_check,
                 3100),
    )
}
