"""Tests of the benchmark's own parts: tracer arithmetic, pass-through
wrapping, the Adult-shaped generator, BENCHMARK.json's metric lists, and
refusing to run outside a checkout.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import adult  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def _span(name, start, end, parent=None):
    s = Span(name, start, parent)
    s.end = end
    return s


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),   # overlaps a: counted once
        _span("c", 8.0, 12.0, parent=0),  # clipped to the parent's end
        _span("grandchild", 1.5, 2.5, parent=1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_excluded_time_is_taken_off_every_open_span():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0])
    tr = Tracer(clock=lambda: next(ticks), cpu_clock=lambda: 0.0)
    outer = tr.begin("outer")            # 0
    with tr.excluded():                  # 1 .. 2 excluded
        pass
    inner = tr.begin("inner")            # 5 - 1 = 4
    tr.end(inner)                        # 6 - 1 = 5
    tr.end(outer)                        # 7 - 1 = 6
    assert (outer.duration, inner.duration, inner.parent) == (6.0, 1.0, 0)
    assert tr.paused_s == 1.0


def test_install_wraps_every_binding_and_uninstall_restores():
    import numpy as np

    from dwac_kit import heads, linalg

    original = linalg.pairwise_sq_distances
    tr = Tracer()
    tr.install({"heads.kernel_weights": None, "linalg.pairwise_sq_distances": None,
                "heads.no_such_function": None, "no_such_module.f": None})
    try:
        assert heads.pairwise_sq_distances is linalg.pairwise_sq_distances is not original
        heads.kernel_weights(np.zeros((2, 3)), np.ones((4, 3)))
    finally:
        tr.uninstall()
    assert heads.pairwise_sq_distances is linalg.pairwise_sq_distances is original
    assert [(s.name, s.parent) for s in tr.spans] == [
        ("heads.kernel_weights", None), ("linalg.pairwise_sq_distances", 0)]
    assert tr.absent == ["heads.no_such_function", "no_such_module.f"]


def test_traced_cli_run_is_pass_through_and_counts_exactly(tmp_path):
    from dwac_kit import cli

    def train(out, tracer=None):
        if tracer:
            tracer.install(layers.TARGETS, rss=layers.RSS_TARGETS)
        try:
            assert cli.main(["train", "--data", "blobs:n=400,c=3,d=4,sep=8,seed=5",
                             "--head", "both", "--max-epochs", "2", "--patience", "2",
                             "--out", str(out)]) == 0
        finally:
            if tracer:
                tracer.uninstall()
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    tr = Tracer()
    assert train(tmp_path / "traced", tr) == train(tmp_path / "plain")
    m = layers.layer_metrics(tr)
    assert m["trainer.epochs"] == 4  # two heads, two epochs each
    assert m["network.adam_step.calls"] == m["network.forward_train.calls"] == 4 * 2
    assert m["heads.dwac_batch_loss.pairs"] == 2 * (128 * 128 + 112 * 112)
    # post-training dwac predict: 80 test rows against 240 reference rows
    assert m["heads.kernel.zero_fraction"] == 0.0
    assert m["trace.absent_layers"] == 0
    assert 0.0 < m["trainer.validation_share"] < 1.0


def test_adult_generator_matches_the_schema_and_baseline_width(tmp_path):
    from dwac_kit import Schema
    from dwac_kit.data import encode_rows, fit_stats, read_csv_rows

    path = tmp_path / "adult.csv"
    adult.write_adult_csv(str(path), 8000, seed=3)
    schema = Schema.from_file(os.path.join(ROOT, "schemas", "adult_income.json"))
    rows, has_labels = read_csv_rows(str(path), schema)
    ds = encode_rows(rows, schema, fit_stats(rows, schema))
    assert has_labels and len(ds) == 8000
    assert ds.dim == adult.ENCODED_WIDTH == 141
    assert 0.15 < ds.y.mean() < 0.35

    again = tmp_path / "again.csv"
    adult.write_adult_csv(str(again), 8000, seed=3)
    assert again.read_bytes() == path.read_bytes()


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "blobs-train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".bench_work").exists()
