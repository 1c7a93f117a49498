from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from dwac_kit import (TrainConfig, blob_data, heads, load_model, make_blobs, make_rng, predict,
                      save_model)
from dwac_kit import cli, evaluate
from dwac_kit.cli import (
    BLOBS_STREAM, KEYS, PATH_KEYS, READS, TRAINS, RunConfig, _flag, build_config, main,
    make_parser,
)
from dwac_kit.conformal import NEG_PROB
from dwac_kit.data import encode_json, encode_rows, label_codes
from dwac_kit.evaluate import ood_cross_dataset
from dwac_kit.explain import explain_with_agreement
from dwac_kit.network import GATHER_ROWS, forward
from helpers import (
    CPU_COUNTS,
    assert_one_error_line,
    decode_lines,
    use_cpus,
    write_csv_data,
    write_unique_id_csv,
)

BLOBS = "blobs:n=200,c=3,d=3,sep=8,seed=0"
FAST = ["--max-epochs", "30", "--batch-size", "64"]


def run(argv):
    return main(argv)


def read_table(path):
    with open(path, newline="") as f:
        comment = f.readline()
        rows = list(csv.reader(f))
    assert comment.startswith("# ")
    return json.loads(comment[2:]), rows


def provenance_keys(run_kind):
    """What the provenance of a kind of run holds: the command and what it
    reads, but the paths."""
    return {"command", *READS[run_kind]} - PATH_KEYS


# every key a config file may name, at its field's default value: TrainConfig's
# for a training value, RunConfig's for any other
DEFAULTS = {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for cls in (TrainConfig, RunConfig) for f in fields(cls) if f.name in KEYS}
TRAINING_KEYS = {key for key, (runs, _) in KEYS.items() if runs == TRAINS}


def test_every_declared_key_has_a_default():
    # so assert_reads_only_its_keys tries a key added later against every run
    assert DEFAULTS.keys() == KEYS.keys()


def assert_reads_only_its_keys(run_kind, argv, out, tmp_path, capsys):
    """``argv``, a run of ``run_kind`` writing to ``out``, accepts from a
    config file each key the run reads and each path, and refuses every other
    key with one error line and no ``out``; returns a config file holding all
    that it accepts."""
    cfg = tmp_path / "cfg.json"
    accepted = set(READS[run_kind]) | PATH_KEYS
    for key, value in DEFAULTS.items():
        cfg.write_text(json.dumps({key: value}))
        if key in accepted:
            build_config(make_parser().parse_args(argv + ["--config", str(cfg)]))
            continue
        capsys.readouterr()
        assert run(argv + ["--config", str(cfg)]) == 2
        line = assert_one_error_line(capsys)
        command = argv[0]
        assert (f"{key} is a training key; {command} scores with the model artifact"
                if key in TRAINING_KEYS else f"{command} does not read {key}") in line, line
        assert not out.exists()
    cfg.write_text(json.dumps({key: DEFAULTS[key] for key in accepted}))
    resolved = build_config(make_parser().parse_args(argv + ["--config", str(cfg)]))
    assert resolved.run == run_kind
    assert set(json.loads(resolved.provenance())) == provenance_keys(run_kind)
    return cfg


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    rc = run(["train", "--data", BLOBS, "--out", str(out), *FAST])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_expected_files(trained_dir):
    names = {p.name for p in trained_dir.iterdir()}
    assert names == {
        "model_softmax_trial0.json", "model_dwac_trial0.json",
        "history_softmax_trial0.csv", "history_dwac_trial0.csv",
        "summary.csv",
    }


def test_train_summary_layout(trained_dir):
    prov, rows = read_table(trained_dir / "summary.csv")
    assert rows[0] == ["head", "accuracy_mean", "accuracy_std",
                       "calibration_mae_mean", "calibration_mae_std"]
    assert [r[0] for r in rows[1:]] == ["softmax", "dwac"]
    for r in rows[1:]:
        assert float(r[1]) > 0.85  # well-separated blobs are easy
        assert float(r[2]) == 0.0  # single trial -> zero std
    assert prov["data"] == BLOBS
    assert prov["seed"] == 0
    assert set(prov) == provenance_keys("train")


def test_train_reruns_are_byte_identical(trained_dir, tmp_path):
    again = tmp_path / "again"
    # -v only sets the log level; it must not reach the config or the outputs
    assert run(["train", "--data", BLOBS, "--out", str(again), *FAST, "-v"]) == 0
    for name in ("summary.csv", "model_dwac_trial0.json", "history_softmax_trial0.csv"):
        assert (again / name).read_bytes() == (trained_dir / name).read_bytes()


def test_train_multi_trial_summary(tmp_path):
    out = tmp_path / "trials"
    rc = run(["train", "--data", BLOBS, "--out", str(out), "--head", "dwac",
              "--trials", "2", *FAST])
    assert rc == 0
    _, rows = read_table(out / "summary.csv")
    assert len(rows) == 2  # header + one dwac row
    assert (out / "model_dwac_trial1.json").exists()


def test_train_requires_data_and_out(trained_dir, tmp_path, capsys):
    # every kind of run reads --data: without it, one error line and no --out
    model = ["--model", str(trained_dir / "model_dwac_trial0.json")]
    for argv in (["train"], ["predict", *model], ["explain", *model], ["conformal", *model],
                 ["ood", "--held-class", "2"], ["ood", "--foreign", BLOBS, *model]):
        capsys.readouterr()
        assert run(argv + ["--out", str(tmp_path / "x")]) == 2
        assert assert_one_error_line(capsys) == f"error: {argv[0]} needs --data"
        assert not (tmp_path / "x").exists()
    assert run(["train", "--data", BLOBS]) == 2
    for flag in ("--sigma", "--learning-rate"):
        capsys.readouterr()
        assert run(["train", "--data", BLOBS, "--out", str(tmp_path / "x"), flag, "0"]) == 2
        assert_one_error_line(capsys)


@pytest.mark.parametrize("command", ["train", "ood"])
def test_non_finite_settings_are_rejected_by_name(tmp_path, capsys, command):
    # NaN and inf pass a "<= 0" test; they must fail before any training
    argv = [command, "--data", BLOBS, "--out", str(tmp_path / "x"), *FAST]
    if command == "ood":
        argv += ["--held-class", "2"]
    cfg = tmp_path / "cfg.json"
    for key in ("sigma", "learning_rate", "dropout"):
        for value in ("nan", "inf", "-inf"):
            cfg.write_text(json.dumps({key: float(value)}))  # NaN, Infinity, -Infinity
            for extra in ([f"--{key.replace('_', '-')}={value}"], ["--config", str(cfg)]):
                capsys.readouterr()
                assert run(argv + extra) == 2
                lines = capsys.readouterr().err.splitlines()
                assert lines == [f"error: {key} must be finite, got {float(value)!r}"], lines
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["train", "ood"])
def test_non_finite_fractions_are_rejected_by_name(tmp_path, capsys, command):
    argv = [command, "--data", BLOBS, "--out", str(tmp_path / "x"), *FAST]
    if command == "ood":
        argv += ["--held-class", "2"]
    cfg = tmp_path / "cfg.json"
    for value in ("nan", "inf", "-inf"):
        for fractions in ([value, "0.5", "0.5"], ["0.5", "0.5", value]):
            cfg.write_text(json.dumps({"fractions": [float(f) for f in fractions]}))
            for extra in (["--fractions=" + ",".join(fractions)], ["--config", str(cfg)]):
                capsys.readouterr()
                assert run(argv + extra) == 2
                line = assert_one_error_line(capsys)
                assert line.startswith("error: fractions must be finite"), line
    assert not (tmp_path / "x").exists()


def test_a_tiny_sigma_scores_by_the_nearest_neighbours(tmp_path, caplog):
    # at sigma 1e-300 every unshifted kernel weight underflows; shifted, the
    # head votes by each row's nearest neighbours, far above chance on 4 classes
    argv = ["train", "--data", "blobs:n=160,c=4,d=4,sep=8,seed=0", "--sigma", "1e-300",
            "--trials", "2", "--max-epochs", "2", "--batch-size", "32", "--head", "dwac"]
    with caplog.at_level("INFO", logger="dwac_kit"):
        assert run(argv + ["--out", str(tmp_path / "a")]) == 0
    accs = [float(r.getMessage().split(" acc=")[1].split()[0]) for r in caplog.records
            if r.getMessage().startswith("head=dwac trial=")]
    assert len(accs) == 2 and min(accs) > 0.5, accs
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        f"trial {trial}: the calibration error is NaN: the test split's 32 rows x 4 classes "
        "make 128 pairs, fewer than two bins of 100" for trial in (0, 1)]
    assert run(argv + ["--out", str(tmp_path / "b")]) == 0
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_round_trip_is_byte_identical(trained_dir, tmp_path):
    model = trained_dir / "model_dwac_trial0.json"
    out_a = tmp_path / "a"
    assert run(["predict", "--data", BLOBS, "--model", str(model),
                "--out", str(out_a)]) == 0
    doc = json.loads((out_a / "predictions.json").read_text())
    assert len(doc["predictions"]) == 200
    first = doc["predictions"][0]
    assert set(first) == {"index", "label", "predicted", "probs"}
    assert first["label"] == str(first["predicted"])  # blob label values are "0".."c-1"
    assert np.isclose(sum(first["probs"]), 1.0)
    assert doc["provenance"]["data"] == BLOBS

    # re-saving the artifact elsewhere must not change a single byte
    copied = tmp_path / "copy.json"
    save_model(load_model(str(model)), str(copied))
    out_b = tmp_path / "b"
    assert run(["predict", "--data", BLOBS, "--model", str(copied),
                "--out", str(out_b)]) == 0
    assert (out_a / "predictions.json").read_bytes() == \
        (out_b / "predictions.json").read_bytes()


def test_predict_requires_exactly_one_model(trained_dir, tmp_path):
    assert run(["predict", "--data", BLOBS, "--out", str(tmp_path / "x")]) == 2


def test_sigma_is_only_a_training_flag(trained_dir, tmp_path, capsys):
    # predict, explain, conformal and ood --foreign use the artifact's sigma,
    # so they refuse it as a flag and as a config key, and leave it out of
    # their provenance; ood --held-class trains, so it keeps it
    model = str(trained_dir / "model_dwac_trial0.json")
    cfg = tmp_path / "sigma.json"
    cfg.write_text(json.dumps({"sigma": 100}))
    for command in ("predict", "explain", "conformal"):
        capsys.readouterr()
        assert run([command, "--data", BLOBS, "--model", model,
                    "--out", str(tmp_path / command), "--sigma", "100"]) == 2
        assert assert_one_error_line(capsys) == "error: unrecognized arguments: --sigma 100"
        assert run([command, "--data", BLOBS, "--model", model, "--config", str(cfg),
                    "--out", str(tmp_path / command)]) == 2
        assert_one_error_line(capsys)
        assert not (tmp_path / command).exists()
    assert run(["predict", "--data", BLOBS, "--model", model,
                "--out", str(tmp_path / "p")]) == 0
    doc = json.loads((tmp_path / "p" / "predictions.json").read_text())
    assert "sigma" not in doc["provenance"]

    foreign = ["ood", "--data", BLOBS, "--foreign", "blobs:n=30,c=3,d=3,sep=8,seed=9",
               "--model", model, "--out", str(tmp_path / "ood")]
    for extra in (["--sigma", "100"], ["--config", str(cfg)]):
        capsys.readouterr()
        assert run(foreign + extra) == 2
        assert_one_error_line(capsys)
        assert not (tmp_path / "ood").exists()
    assert run(foreign) == 0
    doc = json.loads((tmp_path / "ood" / "ood_summary.json").read_text())
    assert "sigma" not in doc["provenance"]
    held = build_config(make_parser().parse_args(
        ["ood", "--data", BLOBS, "--held-class", "2", "--config", str(cfg)]))
    assert [c.sigma for c in held.training] == [100, 100]
    assert json.loads(held.provenance())["sigma"] == 100


def test_scoring_commands_read_only_their_keys(trained_dir, tmp_path, capsys):
    # predict, explain, conformal and ood --foreign refuse, from a config
    # file, every key they do not read but the paths, and accept all the rest
    # at once; their provenance holds exactly what they read
    model = str(trained_dir / "model_dwac_trial0.json")
    runs = {"predict": (["predict"], "predictions.json"),
            "explain": (["explain"], "explanations.json"),
            "conformal": (["conformal"], "coverage_dwac_neg_prob.csv"),
            "foreign": (["ood", "--foreign", "blobs:n=30,c=3,d=3,sep=8,seed=9"],
                        "ood_summary.json")}
    for run_kind, (command, output) in runs.items():
        out = tmp_path / run_kind
        argv = [*command, "--data", BLOBS, "--model", model, "--out", str(out)]
        cfg = assert_reads_only_its_keys(run_kind, argv, out, tmp_path, capsys)
        assert run(argv + ["--config", str(cfg)]) == 0
        path = out / output
        if output.endswith(".json"):
            prov = json.loads(path.read_text())["provenance"]
        else:
            prov, _ = read_table(path)
        assert set(prov) == provenance_keys(run_kind)
    # the subcommand, not a config file, names the command
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "train"}))
    capsys.readouterr()
    assert run(["predict", "--data", BLOBS, "--model", model, "--config", str(cfg),
                "--out", str(tmp_path / "x")]) == 2
    assert_one_error_line(capsys)


def test_training_runs_read_only_their_keys(tmp_path, capsys):
    # train and ood --held-class refuse, from a config file, every key they
    # do not read but the paths; their provenance holds exactly what they read
    out = tmp_path / "x"
    for run_kind, command in (("train", ["train"]), ("holdout", ["ood", "--held-class", "2"])):
        argv = [*command, "--data", BLOBS, "--out", str(out), *FAST]
        assert_reads_only_its_keys(run_kind, argv, out, tmp_path, capsys)
    capsys.readouterr()
    assert run(["ood", "--data", BLOBS, "--held-class", "2", "--foreign", BLOBS,
                "--out", str(out)]) == 2
    assert_one_error_line(capsys)
    assert not out.exists()
    # each subcommand takes the flags of what its kinds of run read
    common = {"-h", "--help", "--config", "-v", "--verbose", "--data", "--schema", "--out",
              "--seed"}
    training = {_flag(key) for key in TRAINING_KEYS}
    subparsers = _subparsers()
    assert {name: {flag for a in p._actions for flag in a.option_strings}
            for name, p in subparsers.items()} == {
        "train": common | training | {"--test-data", "--trials"},
        "predict": common | {"--model"},
        "explain": common | {"--model", "--k", "--k-list"},
        "conformal": common | {"--model", "--epsilon-grid"},
        "ood": common | training | {"--model", "--held-class", "--foreign"},
    }


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in make_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_help_shows_each_numeric_default_of_its_field():
    # the default is read from the field, never written by hand in KEYS
    shown = {action.dest: action.help or "" for parser in _subparsers().values()
             for action in parser._actions if action.dest in KEYS}
    for key, text in shown.items():
        if type(DEFAULTS[key]) in (int, float):
            assert text.endswith(f"(default {DEFAULTS[key]})"), (key, text)
            assert text.count("default") == 1, (key, text)
        else:  # --head's default is both, not TrainConfig's dwac
            assert "(default " not in text, (key, text)
    assert shown["sigma"] == "kernel width (default 0.5)"
    assert shown["h_dim"] == "embedding width (default: #classes)"
    assert shown["head"] == ""
    assert set(shown) == set(KEYS)


def test_scoring_reads_labels_only_where_it_uses_them(tmp_path, capsys):
    # predict and explain encode features only, so labels outside the
    # artifact's label values (or a blob spec with more classes than it) do
    # not stop them; conformal scores labels and refuses them with one line
    data, schema = write_csv_data(tmp_path)
    trained = tmp_path / "csv"
    assert run(["train", "--data", data, "--schema", schema, "--head", "dwac",
                "--out", str(trained), *FAST]) == 0
    unknown = tmp_path / "unknown.csv"
    lines = Path(data).read_text().splitlines()
    unknown.write_text("\n".join([lines[0], *(line.rsplit(",", 1)[0] + ",unknown"
                                              for line in lines[1:]), ""]))
    blob_model = tmp_path / "blobs"
    assert run(["train", "--data", BLOBS, "--head", "dwac", "--out", str(blob_model),
                *FAST]) == 0
    more_classes = "blobs:n=40,c=4,d=3,sep=8,seed=1"
    for model, source, bad_label in (
        (trained, [str(unknown), "--schema", schema],
         f"{unknown}: row 2: label 'unknown' not in schema label_values"),
        (blob_model, [more_classes],
         f"{more_classes}: row 31: label '3' not in schema label_values"),
    ):
        scoring = ["--data", *source, "--model", str(model / "model_dwac_trial0.json")]
        for command in ("predict", "explain"):
            assert run([command, *scoring, "--out", str(tmp_path / command)]) == 0
        capsys.readouterr()
        assert run(["conformal", *scoring, "--out", str(tmp_path / "conf")]) == 2
        assert assert_one_error_line(capsys) == f"error: {bad_label}"
    doc = json.loads((tmp_path / "predict" / "predictions.json").read_text())
    assert len(doc["predictions"]) == 40


def test_conformal_with_more_blob_classes_than_the_model_is_one_error_line(tmp_path, capsys):
    # scoring 4-class blobs against a 3-class artifact once indexed past its
    # class sums and ended in an IndexError traceback
    model = tmp_path / "m"
    assert run(["train", "--data", "blobs:n=300,c=3,d=3,sep=8", "--head", "dwac",
                "--out", str(model), *FAST]) == 0
    capsys.readouterr()
    assert run(["conformal", "--data", "blobs:n=300,c=4,d=3,sep=8",
                "--model", str(model / "model_dwac_trial0.json"),
                "--out", str(tmp_path / "c")]) == 2
    line = assert_one_error_line(capsys)
    assert line == ("error: blobs:n=300,c=4,d=3,sep=8: row 226: label '3' not in schema "
                    "label_values"), line


def test_blob_spec_labels_are_those_of_the_rows_predict_scores(trained_dir, tmp_path,
                                                               monkeypatch):
    # a benchmark builds reference labels from _parse_blob_spec(spec, 0).y, so
    # that generated dataset must stay what the table predict encodes is built from
    spec = "blobs:n=120,c=3,d=3,sep=8,seed=4"
    encoded = []

    def recording(table, schema, *args, **kwargs):
        encoded.append(label_codes(table, schema))
        return encode_rows(table, schema, *args, **kwargs)

    monkeypatch.setattr(cli, "encode_rows", recording)
    assert run(["predict", "--data", spec, "--model", str(trained_dir / "model_dwac_trial0.json"),
                "--out", str(tmp_path / "p")]) == 0
    assert len(encoded) == 1
    assert np.array_equal(encoded[0], cli._parse_blob_spec(spec, 0).y)


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

def test_explain_writes_entries_and_agreement(trained_dir, tmp_path):
    out = tmp_path / "ex"
    model = trained_dir / "model_dwac_trial0.json"
    rc = run(["explain", "--data", "blobs:n=10,c=3,d=3,sep=8,seed=1",
              "--model", str(model), "--out", str(out), "--k", "4",
              "--k-list", "1,5,10"])
    assert rc == 0
    doc = json.loads((out / "explanations.json").read_text())
    assert len(doc["explanations"]) == 10
    for e in doc["explanations"]:
        assert len(e["entries"]) == 4
        weights = [entry["weight"] for entry in e["entries"]]
        assert weights == sorted(weights, reverse=True)
    _, rows = read_table(out / "agreement.csv")
    assert rows[0] == ["k_1", "k_5", "k_10"]
    assert len(rows) == 2
    assert all(0.0 <= float(v) <= 1.0 for v in rows[1])


def test_explain_rejects_softmax_artifacts(trained_dir, tmp_path):
    rc = run(["explain", "--data", BLOBS,
              "--model", str(trained_dir / "model_softmax_trial0.json"),
              "--out", str(tmp_path / "x")])
    assert rc == 2


# ---------------------------------------------------------------------------
# conformal
# ---------------------------------------------------------------------------

def test_conformal_writes_grids(trained_dir, tmp_path):
    out = tmp_path / "conf"
    rc = run(["conformal", "--data", BLOBS,
              "--model", str(trained_dir / "model_dwac_trial0.json"),
              "--model", str(trained_dir / "model_softmax_trial0.json"),
              "--out", str(out)])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "coverage_dwac_neg_prob.csv", "credibility_dwac_neg_prob.csv",
        "coverage_dwac_neg_weight_sum.csv", "credibility_dwac_neg_weight_sum.csv",
        "coverage_softmax_neg_prob.csv", "credibility_softmax_neg_prob.csv",
    }
    _, rows = read_table(out / "coverage_dwac_neg_prob.csv")
    assert len(rows) == 1 + 21  # default epsilon grid 0..0.2
    assert float(rows[1][0]) == 0.0 and float(rows[-1][0]) == 0.2
    _, cred = read_table(out / "credibility_softmax_neg_prob.csv")
    assert len(cred) == 1 + 20
    assert sum(int(r[2]) for r in cred[1:]) == 200


def test_conformal_custom_epsilon_grid(trained_dir, tmp_path):
    out = tmp_path / "conf2"
    rc = run(["conformal", "--data", BLOBS,
              "--model", str(trained_dir / "model_dwac_trial0.json"),
              "--epsilon-grid", "0.05,0.1", "--out", str(out)])
    assert rc == 0
    for measure in ("neg_prob", "neg_weight_sum"):
        _, rows = read_table(out / f"coverage_dwac_{measure}.csv")
        assert [r[0] for r in rows[1:]] == ["0.05", "0.1"]


# ---------------------------------------------------------------------------
# ood
# ---------------------------------------------------------------------------

def test_ood_holdout_summary(tmp_path):
    out = tmp_path / "ood"
    rc = run(["ood", "--data", "blobs:n=240,c=4,d=4,sep=8,seed=0",
              "--held-class", "3", "--out", str(out),
              "--max-epochs", "12", "--batch-size", "64"])
    assert rc == 0
    doc = json.loads((out / "ood_summary.json").read_text())
    # softmax has no weight sums, so only three combinations exist
    assert set(doc["combinations"]) == {
        "softmax/neg_prob", "dwac/neg_prob", "dwac/neg_weight_sum"}
    for name, stats in doc["combinations"].items():
        assert stats["out_of_domain_n"] == 60
        assert 0.0 <= stats["out_of_domain_mean"] <= 1.0
        # 20 bins of [0, 1] that count every scored row
        _, rows = read_table(out / f"ood_hist_{name.replace('/', '_')}.csv")
        assert rows[0] == ["bin_low", "bin_high", "in_domain_count", "out_of_domain_count"]
        assert len(rows) == 21 and rows[1][0] == "0.0" and rows[-1][1] == "1.0"
        assert sum(int(r[2]) for r in rows[1:]) == stats["in_domain_n"]
        assert sum(int(r[3]) for r in rows[1:]) == stats["out_of_domain_n"]
    assert doc["provenance"]["held_class"] == 3
    assert set(doc["provenance"]) == provenance_keys("holdout")


def test_ood_cross_dataset(trained_dir, tmp_path):
    out = tmp_path / "cross"
    rc = run(["ood", "--data", BLOBS,
              "--foreign", "blobs:n=80,c=3,d=3,sep=8,seed=9",
              "--model", str(trained_dir / "model_dwac_trial0.json"),
              "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "ood_summary.json").read_text())
    assert set(doc["combinations"]) == {"dwac/neg_prob", "dwac/neg_weight_sum"}
    assert doc["combinations"]["dwac/neg_prob"]["out_of_domain_n"] == 80
    assert doc["provenance"]["foreign"].startswith("blobs:")


@pytest.mark.parametrize("command, empty", [
    ("predict", "data"), ("explain", "data"), ("conformal", "data"), ("ood", "data"),
    ("ood", "foreign"),
], ids=["predict", "explain", "conformal", "ood-data", "ood-foreign"])
def test_scoring_refuses_data_with_no_rows_by_name(command, empty, tmp_path, capsys):
    # a header-only CSV has nothing to score: one error line naming it, from
    # every scoring command alike, and no output directory
    data, schema = write_csv_data(tmp_path)
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(Path(data).read_text().splitlines()[0] + "\n")
    assert run(["train", "--data", data, "--schema", schema, "--head", "dwac",
                "--out", str(tmp_path / "m"), *FAST]) == 0
    sources = {"data": data, **({"foreign": data} if command == "ood" else {})}
    sources[empty] = str(header_only)
    out = tmp_path / "o"
    capsys.readouterr()
    assert run([command, "--model", str(tmp_path / "m" / "model_dwac_trial0.json"),
                *(arg for key, path in sources.items() for arg in (f"--{key}", path)),
                "--out", str(out)]) == 2
    assert assert_one_error_line(capsys) == f"error: {header_only}: no data rows to score"
    assert not out.exists()


def test_ood_foreign_refuses_training_settings(trained_dir, tmp_path, capsys):
    # the foreign protocol scores with the artifact and trains nothing, so a
    # training flag or config key is an error, and its provenance holds only
    # what the protocol reads
    model = str(trained_dir / "model_dwac_trial0.json")
    foreign = ["ood", "--data", BLOBS, "--foreign", "blobs:n=30,c=3,d=3,sep=8,seed=9",
               "--model", model, "--out", str(tmp_path / "ood")]
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"hidden": [99, 99], "trials": 2}))
    for extra in (["--hidden", "99,99"], ["--learning-rate", "0.9"], ["--max-epochs", "3"],
                  ["--head", "dwac"], ["--fractions", "0.5,0.3,0.2"], ["--config", str(cfg)]):
        capsys.readouterr()
        assert run(foreign + extra) == 2
        assert_one_error_line(capsys)
        assert not (tmp_path / "ood").exists()
    assert run(foreign) == 0
    doc = json.loads((tmp_path / "ood" / "ood_summary.json").read_text())
    assert set(doc["provenance"]) == provenance_keys("foreign")


def test_a_missing_calibration_is_refused_before_any_output(trained_dir, tmp_path, capsys):
    # an artifact without the scores of a measure asked for is refused before
    # anything is written, also after a --model that has all of its scores
    artifact = load_model(str(trained_dir / "model_dwac_trial0.json"))
    model = tmp_path / "no_weight_sum.json"
    save_model(replace(artifact, calibrations={NEG_PROB: artifact.calibrations[NEG_PROB]}),
               str(model))
    out = tmp_path / "out"
    softmax = ["--model", str(trained_dir / "model_softmax_trial0.json")]
    for command in (["conformal"], ["conformal", *softmax],
                    ["ood", "--foreign", "blobs:n=30,c=3,d=3,sep=8,seed=9"]):
        capsys.readouterr()
        assert run([*command, "--data", BLOBS, "--model", str(model), "--out", str(out)]) == 2
        assert assert_one_error_line(capsys) == (
            f"error: {model}: artifact has no calibration scores for 'neg_weight_sum'")
        assert not out.exists()


def test_ood_foreign_predicts_each_dataset_once(trained_dir, tmp_path, monkeypatch):
    # both measures score the same two predictions
    rows = []

    def counted(model, x, *args, **kwargs):
        rows.append(len(x))
        return predict(model, x, *args, **kwargs)

    monkeypatch.setattr(evaluate, "predict", counted)
    assert run(["ood", "--data", BLOBS, "--foreign", "blobs:n=30,c=3,d=3,sep=8,seed=9",
                "--model", str(trained_dir / "model_dwac_trial0.json"),
                "--out", str(tmp_path / "ood")]) == 0
    assert rows == [200, 30]


def test_explain_runs_the_kernel_once_per_query_block(trained_dir, tmp_path, monkeypatch):
    # 200 queries against 120 reference rows, 16 rows per block, two threads
    monkeypatch.setattr(heads, "BLOCK_ENTRIES", 120 * 16)
    use_cpus(monkeypatch, 2)
    calls, blocks = [], []

    def counted(h_query, train, visit, sigma):
        calls.append(len(h_query))

        def seen(rows, w, sums):
            blocks.append(rows)
            visit(rows, w, sums)

        heads.kernel_blocks(h_query, train, seen, sigma)

    # the package exports a function named explain, which hides the module
    monkeypatch.setattr(importlib.import_module("dwac_kit.explain"), "kernel_blocks", counted)
    model = trained_dir / "model_dwac_trial0.json"
    assert len(load_model(str(model)).embedded) == 120
    assert run(["explain", "--data", BLOBS, "--model", str(model),
                "--out", str(tmp_path / "e")]) == 0
    assert calls == [200]
    # threads visit their runs of blocks side by side, so in no fixed order
    blocks.sort(key=lambda rows: rows.start)
    assert blocks == heads.row_blocks(200, 120) and len(blocks) == 13


def test_scoring_outputs_do_not_depend_on_the_thread_count(trained_dir, tmp_path, monkeypatch):
    # 16-row blocks: 13 blocks for the 200 queries against 120 reference rows
    monkeypatch.setattr(heads, "BLOCK_ENTRIES", 120 * 16)
    model = str(trained_dir / "model_dwac_trial0.json")
    outputs = []
    for n in CPU_COUNTS:
        use_cpus(monkeypatch, n)
        out = tmp_path / f"cpus{n}"
        for command in ("predict", "conformal", "explain"):
            assert run([command, "--data", BLOBS, "--model", model,
                        "--out", str(out / command)]) == 0
        outputs.append({str(p.relative_to(out)): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(outputs[0]) == 7  # predictions, 2 x 2 conformal grids, explanations, agreement
    assert all(other == outputs[0] for other in outputs[1:])


def test_a_far_reference_set_predicts_the_nearest_rows_class(trained_dir, tmp_path):
    # a reference set moved far from every query: all unshifted kernel mass
    # underflows, and each query still takes its nearest reference row's class
    artifact = load_model(str(trained_dir / "model_dwac_trial0.json"))
    far = replace(artifact.embedded, h=artifact.embedded.h + 1e4)
    model = tmp_path / "far.json"
    save_model(replace(artifact, embedded=far), str(model))
    assert run(["predict", "--data", BLOBS, "--model", str(model),
                "--out", str(tmp_path / "p")]) == 0
    assert run(["conformal", "--data", BLOBS, "--model", str(model),
                "--out", str(tmp_path / "c")]) == 0
    table = blob_data(make_blobs(200, 3, 3, 8.0, make_rng(0, BLOBS_STREAM)))
    x = encode_rows(table.table, table.schema, artifact.stats, has_labels=False).x
    h, _ = forward(artifact.model, x, mode="eval")
    nearest = np.argmin(((h[:, None, :] - far.h[None, :, :]) ** 2).sum(axis=2), axis=1)
    records = _records(tmp_path / "p" / "predictions.json", "predictions")
    assert [r["predicted"] for r in records] == far.labels[nearest].tolist()
    assert all(np.all(np.isfinite(r["probs"])) and max(r["probs"]) > min(r["probs"])
               for r in records)


@pytest.mark.parametrize("command", [["conformal"],
                                     ["ood", "--foreign", "blobs:n=30,c=3,d=3,sep=8,seed=9"]])
def test_two_models_of_one_head_are_refused(trained_dir, tmp_path, capsys, command):
    # their outputs are named by head, so the second would overwrite the first
    model = trained_dir / "model_dwac_trial0.json"
    copy = tmp_path / "copy.json"
    copy.write_bytes(model.read_bytes())
    softmax = trained_dir / "model_softmax_trial0.json"
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*command, "--data", BLOBS, "--model", str(model), "--model", str(softmax),
                "--model", str(copy), "--out", str(out)]) == 2
    assert assert_one_error_line(capsys) == (
        f"error: --model {model} and --model {copy} are both dwac artifacts; "
        "give one artifact per head")
    assert not out.exists()


def _records(path, key):
    """The records of a JSON output, checked to sit one per line between the
    opening line and the closing provenance line."""
    lines = path.read_text().splitlines()
    dict_of_records = lines[0] == f'{{"{key}": {{'
    assert dict_of_records or lines[0] == f'{{"{key}": ['
    assert lines[-2] == ("}," if dict_of_records else "],")
    assert lines[-1].startswith('"provenance": {') and lines[-1].endswith("}}")
    body = [line.removesuffix(",") for line in lines[1:-2]]
    if dict_of_records:
        return dict(next(iter(json.loads("{" + line + "}").items())) for line in body)
    return [json.loads(line) for line in body]


def test_json_outputs_hold_one_record_per_line(trained_dir, tmp_path):
    # each file loads as the document the indented writer used to build
    model = str(trained_dir / "model_dwac_trial0.json")
    artifact = load_model(model)
    foreign_spec = "blobs:n=30,c=3,d=3,sep=8,seed=9"
    tables = [blob_data(make_blobs(n, 3, 3, 8.0, make_rng(seed, BLOBS_STREAM)))
              for n, seed in ((200, 0), (30, 9))]
    blobs = [encode_rows(t.table, t.schema, artifact.stats, has_labels=False) for t in tables]
    preds = predict(artifact, blobs[0].x)
    explanations, _ = explain_with_agreement(blobs[0].x, artifact, k=10, k_list=(1, 5, 10, 100))
    expected = {
        "predictions.json": {
            "provenance": {"command": "predict", "data": BLOBS, "seed": 0},
            "predictions": [{"index": i, "label": str(preds.predicted[i]),
                             "predicted": int(preds.predicted[i]),
                             "probs": [float(p) for p in preds.probs[i]]}
                            for i in range(len(preds))]},
        "explanations.json": {
            "provenance": {"command": "explain", "data": BLOBS, "seed": 0, "k": 10,
                           "k_list": [1, 5, 10, 100]},
            "explanations": decode_lines(explanations)},
        "ood_summary.json": {
            "provenance": {"command": "ood", "data": BLOBS, "foreign": foreign_spec,
                           "seed": 0},
            "combinations": {}},
    }
    credibility = ood_cross_dataset(artifact, *blobs)
    assert set(credibility) == {"neg_prob", "neg_weight_sum"}
    for measure, (in_cred, out_cred) in credibility.items():
        expected["ood_summary.json"]["combinations"][f"dwac/{measure}"] = {
            "in_domain_mean": float(np.mean(in_cred)),
            "out_of_domain_mean": float(np.mean(out_cred)),
            "in_domain_n": int(in_cred.size), "out_of_domain_n": int(out_cred.size)}
    scoring = ["--data", BLOBS, "--model", model, "--out", str(tmp_path)]
    assert run(["predict", *scoring]) == 0
    assert run(["explain", *scoring]) == 0
    assert run(["ood", "--foreign", foreign_spec, *scoring]) == 0
    for name, doc in expected.items():
        path = tmp_path / name
        assert json.loads(path.read_text()) == doc
        key = next(k for k in doc if k != "provenance")
        assert _records(path, key) == doc[key]


@pytest.fixture(scope="module")
def quick_start_model(tmp_path_factory):
    """A dwac artifact of the README quick start's shape: 2,400 reference rows."""
    out = tmp_path_factory.mktemp("quick_start")
    assert run(["train", "--data", "blobs:n=4000,c=4,d=8,sep=10", "--head", "dwac",
                "--max-epochs", "2", "--out", str(out)]) == 0
    return str(out / "model_dwac_trial0.json")


def _traced_peak(argv) -> int:
    """The traced heap's peak during ``main(argv)``, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command, cpus, bound", [
    ("predict", 1, 80), ("conformal", 1, 80), ("explain", 1, 80), ("explain", 2, 120),
], ids=["predict", "conformal", "explain", "explain-2cpus"])
def test_scoring_memory_per_query_row_holds_no_record_of_every_row(
        quick_start_model, tmp_path, monkeypatch, command, cpus, bound):
    # Rows are scored a chunk at a time, 4,096 of them on one CPU against
    # these 2,400 reference rows and 7,168 on two, each chunk let go before
    # the next is read, and each chunk's records are written as they are
    # made. So past a chunk, the heap grows only by the blob spec's table,
    # generated whole: 72 B a row (64 for 8 float64 features, 8 for the label
    # code). Over these 8,000 rows it grew by 72.0 B a row for predict,
    # 70.1-74.3 for conformal and 68.3-73.2 for explain --k 10 on one CPU.
    # On two, explain grew by 66-96 B: whether the two threads' block
    # temporaries meet at the peak moves it by up to 0.3 MB. Scoring every
    # row at once, predict grew by 178 B a row over these rows, conformal by
    # 270, and explain by 892 on one CPU and 982 on two.
    monkeypatch.setattr(heads, "usable_cpus", lambda: cpus)
    peaks = []
    for n in (8_000, 16_000):
        argv = [command, "--model", quick_start_model, "--out", str(tmp_path / f"{n}"),
                "--data", f"blobs:n={n},c=4,d=8,sep=10,seed=9"]
        peaks.append(_traced_peak(argv + (["--k", "10"] if command == "explain" else [])))
    assert (peaks[1] - peaks[0]) / 8_000 <= bound, peaks


def _outputs(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


def _query_csv(tmp_path, name: str, copies: int, edits: dict[int, str] | None = None) -> str:
    """``write_csv_data``'s rows ``copies`` times over as a CSV under ``tmp_path``,
    with the row on each line of ``edits`` replaced by its text."""
    lines = Path(tmp_path / "data.csv").read_text().splitlines()
    lines = [lines[0], *lines[1:] * copies]
    for line, text in (edits or {}).items():
        lines[line - 1] = text
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_scoring_outputs_do_not_depend_on_the_chunk_size(quick_start_model, tmp_path,
                                                         monkeypatch):
    # Each query is one chunk at the default size, and 3 or 4 at one eval
    # block (GATHER_ROWS) and at 1,500 rows, which is no multiple of it and
    # ends inside a thread's run of 3,456 rows against the 2,400 reference rows.
    data, schema = write_csv_data(tmp_path)
    csv_model = tmp_path / "csv" / "model_dwac_trial0.json"
    assert run(["train", "--data", data, "--schema", schema, "--head", "dwac",
                "--out", str(csv_model.parent), *FAST]) == 0
    flows = {
        "blob": (quick_start_model, "blobs:n=4000,c=4,d=8,sep=10,seed=9",
                 "blobs:n=3200,c=2,d=8,sep=40,seed=5"),
        "csv": (str(csv_model), _query_csv(tmp_path, "query.csv", 24),
                _query_csv(tmp_path, "foreign.csv", 21)),
    }
    default_rows = cli._chunk_rows
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(heads, "usable_cpus", lambda n=cpus: n)
        for rows in (None, GATHER_ROWS, 1_500):
            monkeypatch.setattr(cli, "_chunk_rows",
                                default_rows if rows is None else lambda artifacts, n=rows: n)
            out = tmp_path / f"cpus{cpus}-rows{rows}"
            for name, (model, query, foreign) in flows.items():
                for command in (["predict"], ["conformal"], ["explain"],
                                ["ood", "--foreign", foreign]):
                    assert run([*command, "--model", model, "--data", query,
                                "--out", str(out / name / command[0])]) == 0
            outputs.append(_outputs(out))
    # per flow: predictions, 2 x 2 conformal grids, explanations, agreement,
    # the ood summary and its 2 histograms
    assert len(outputs[0]) == 2 * 10
    assert all(other == outputs[0] for other in outputs[1:])


def test_a_chunk_is_whole_eval_blocks_and_a_run_of_kernel_blocks_per_cpu(monkeypatch):
    # the smallest multiple of GATHER_ROWS that holds RUN_BLOCKS kernel blocks
    # per CPU against the largest reference set, and CHUNK_MIN_ROWS
    for cpus in (1, 2, 4):
        monkeypatch.setattr(heads, "usable_cpus", lambda n=cpus: n)
        for sizes in ((), (20_000,), (2_400,), (1_800, 2_400), (200_000,)):
            rows = cli._chunk_rows([SimpleNamespace(embedded=range(t)) for t in sizes]
                                   + [SimpleNamespace(embedded=None)])
            least = max([cli.CHUNK_MIN_ROWS,
                         *(cpus * heads.RUN_BLOCKS * heads.block_rows(t) for t in sizes)])
            assert rows % GATHER_ROWS == 0 and least <= rows < least + GATHER_ROWS
    monkeypatch.setattr(heads, "usable_cpus", lambda: 2)
    assert [cli._chunk_rows([SimpleNamespace(embedded=range(t))])
            for t in (20_000, 2_400)] == [4096, 7168]


def test_a_bad_row_in_a_later_chunk_is_one_error_line_and_no_output(tmp_path, capsys,
                                                                    monkeypatch):
    # Scoring reads its CSV a chunk at a time, so the first chunk holding a bad
    # row of any kind names it; the whole-file read of training finds an
    # unparseable cell anywhere before an unknown label. A run stopped part way
    # through its output leaves neither the file nor the --out directory.
    data, schema = write_csv_data(tmp_path)
    model = tmp_path / "m" / "model_dwac_trial0.json"
    assert run(["train", "--data", data, "--schema", schema, "--head", "dwac",
                "--out", str(model.parent), *FAST]) == 0
    monkeypatch.setattr(cli, "_chunk_rows", lambda artifacts: GATHER_ROWS)
    # 3,600 rows: the file's lines 2-1025 are chunk 1, and lines 2050-3073 chunk 3
    unknown = _query_csv(tmp_path, "unknown.csv", 24, {2500: "4.0,red,x"})
    nan = _query_csv(tmp_path, "nan.csv", 24, {2500: "nan,red,a"})
    both = _query_csv(tmp_path, "both.csv", 24, {1500: "4.0,red,x", 3000: "oops,red,a"})
    cases = [
        (["conformal", "--data", unknown], f"{unknown}: row 2500: label 'x' not in schema "
                                           "label_values"),
        (["conformal", "--data", both], f"{both}: row 1500: label 'x' not in schema "
                                        "label_values"),
        (["predict", "--data", both], f"{both}: row 3000, column 'size': cannot parse 'oops' "
                                      "as a number"),
        *((argv, f"{nan}: row 2500, column 'size': nan is not finite, or too large once "
                 "z-scored")
          for argv in (["predict", "--data", nan], ["conformal", "--data", nan],
                       ["explain", "--data", nan], ["ood", "--data", data, "--foreign", nan])),
    ]
    for argv, line in cases:
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([*argv, "--model", str(model), "--out", str(out)]) == 2
        assert assert_one_error_line(capsys) == f"error: {line}"
        assert not out.exists()


def test_ood_refuses_a_bad_foreign_input_before_it_scores_its_data(trained_dir, tmp_path,
                                                                    capsys, monkeypatch):
    # the first chunk of --data and of --foreign is read before either is scored
    monkeypatch.setattr(cli, "credibility", lambda *args: pytest.fail("scored"))
    missing = tmp_path / "missing.csv"
    cases = [(str(missing), f"error: [Errno 2] No such file or directory: '{missing}'"),
             ("blobs:n=50,c=2,d=4,sep=40", "error: blobs:n=50,c=2,d=4,sep=40: blob columns "
              "['x0', 'x1', 'x2', 'x3', 'y'] are not the schema's ['x0', 'x1', 'x2', 'y']")]
    for foreign, line in cases:
        capsys.readouterr()
        assert run(["ood", "--data", BLOBS, "--foreign", foreign, "--out", str(tmp_path / "o"),
                    "--model", str(trained_dir / "model_dwac_trial0.json")]) == 2
        assert assert_one_error_line(capsys) == line
        assert not (tmp_path / "o").exists()


def test_a_write_that_fails_part_way_leaves_the_out_directory_as_it_was(
        trained_dir, tmp_path, capsys, monkeypatch):
    # predictions are encoded as the file is written; the encoder fails once
    # more than a buffer's worth of lines is in the temp file
    earlier = tmp_path / "earlier"
    earlier.mkdir()
    (earlier / "predictions.json").write_bytes(b"old predictions\n")
    calls, temp_sizes = [], []

    def failing_encode(obj):
        calls.append(obj)
        if len(calls) == 150:
            temp_sizes.extend(p.stat().st_size for p in tmp_path.glob("*/.tmp-*~"))
            raise OSError("No space left on device")
        return encode_json(obj)

    monkeypatch.setattr(cli, "encode_json", failing_encode)
    # a directory the failed write made goes with it
    for out, before in ((tmp_path / "fresh", None), (earlier, ["predictions.json"])):
        calls.clear()
        capsys.readouterr()
        assert run(["predict", "--data", BLOBS, "--out", str(out),
                    "--model", str(trained_dir / "model_dwac_trial0.json")]) == 2
        assert assert_one_error_line(capsys) == "error: No space left on device"
        assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == before
    assert len(temp_sizes) == 2 and min(temp_sizes) > 0, temp_sizes
    assert (earlier / "predictions.json").read_bytes() == b"old predictions\n"


def test_values_too_large_to_compute_with_are_one_error_line(trained_dir, tmp_path, capsys):
    # finite parameters and embeddings whose products overflow: numpy would
    # warn and write NaN probabilities; the CLI stops with one error line
    artifact = load_model(str(trained_dir / "model_dwac_trial0.json"))
    artifact.model.weights[-1] *= 1e200
    artifact.model.biases[-1] *= 1e200
    huge = replace(artifact.embedded, h=artifact.embedded.h * 1e200)
    model = tmp_path / "huge.json"
    save_model(replace(artifact, embedded=huge), str(model))
    capsys.readouterr()
    assert run(["predict", "--data", BLOBS, "--model", str(model),
                "--out", str(tmp_path / "p")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: overflow encountered in "), lines
    assert not (tmp_path / "p" / "predictions.json").exists()


def test_ood_needs_a_protocol(tmp_path):
    assert run(["ood", "--data", BLOBS, "--out", str(tmp_path / "x")]) == 2


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 5, "max_epochs": 9, "head": "dwac",
                               "batch_size": 64}))
    out = tmp_path / "out"
    rc = run(["train", "--config", str(cfg), "--data", BLOBS,
              "--out", str(out), "--seed", "7"])
    assert rc == 0
    prov, rows = read_table(out / "summary.csv")
    assert prov["seed"] == 7  # flag beats config file
    assert prov["max_epochs"] == 9
    assert [r[0] for r in rows[1:]] == ["dwac"]


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sneed": 1}))
    rc = run(["train", "--config", str(cfg), "--data", BLOBS,
              "--out", str(tmp_path / "x")])
    assert rc == 2


def test_config_file_values_are_type_checked(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"trials": "3"}))
    capsys.readouterr()
    assert run(["train", "--config", str(cfg), "--data", BLOBS,
                "--out", str(tmp_path / "x")]) == 2
    assert_one_error_line(capsys)


# JSON values of every kind a config file may hold, and of no key's type
CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
    | st.sampled_from(["", "x", "32,8", "0.6,0.2,0.2", "dwac", "both", "neg_weight_sum"]),
    lambda inner: st.lists(inner, max_size=4), max_leaves=6)


@settings(max_examples=100, deadline=None)
@given(values=st.dictionaries(st.sampled_from([*KEYS, "sneed", "command", "epsilon_grid"]),
                              CONFIG_VALUES, max_size=4))
def test_a_fuzzed_config_file_is_one_error_line_before_any_output(values, tmp_path_factory):
    # every path a flag names is missing, so an accepted config ends at the
    # first read: whatever the file holds, one error line and no --out
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg, out = tmp / "cfg.json", tmp / "out"
    cfg.write_text(json.dumps(values))
    model = ["--model", str(tmp / "absent.json")]
    paths = ["--data", str(tmp / "absent.csv"), "--schema", str(tmp / "absent_schema.json"),
             "--config", str(cfg), "--out", str(out)]
    for argv in (["train"], ["predict", *model], ["explain", *model], ["conformal", *model],
                 ["ood", "--held-class", "0"], ["ood", "--foreign", str(tmp / "absent"), *model]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(argv + paths)
        lines = err.getvalue().splitlines()
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert not out.exists()


def test_config_file_list_keys_are_json_arrays(tmp_path, capsys):
    # a comma-separated string is a flag's spelling, refused by name in a file
    cfg = tmp_path / "run.json"
    model = ["--model", str(tmp_path / "absent.json")]
    for command, key, text, extra in (("train", "hidden", "32,8", []),
                                      ("train", "fractions", "0.6,0.2,0.2", []),
                                      ("conformal", "epsilons", "0.1,0.2", model),
                                      ("explain", "k_list", "1,5", model)):
        cfg.write_text(json.dumps({key: text}))
        capsys.readouterr()
        assert run([command, "--config", str(cfg), "--data", BLOBS, *extra,
                    "--out", str(tmp_path / "x")]) == 2
        line = assert_one_error_line(capsys)
        assert line.startswith(f"error: {key} must be tuple[") and line.endswith(f"{text!r}")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--data", BLOBS, "--trials", "x"], "argument --trials: invalid int value: 'x'"),
    (["train", "--data", BLOBS, "--hidden", "a,b"],
     "argument --hidden: invalid int_list value: 'a,b'"),
    (["predict", "--data", BLOBS, "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
], ids=["bad-int", "bad-int-list", "unknown-flag", "no-subcommand"])
def test_a_bad_flag_is_one_error_line(argv, message, tmp_path, capsys):
    capsys.readouterr()
    assert run(argv + (["--out", str(tmp_path / "x")] if argv else [])) == 2
    assert assert_one_error_line(capsys) == f"error: {message}"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, config, refusal", [
    (["train", "--data", "blobs:n=300,c=3,d=4,sep=8", "--seed", "-1"], None,
     "seed must be >= 0, got -1"),
    (["train", "--data", "{csv}", "--schema", "{schema}", "--seed", "-1"], None,
     "seed must be >= 0, got -1"),
    (["train", "--data", BLOBS], '{"seed": -1}', "seed must be >= 0, got -1"),
    (["train", "--data", BLOBS], '{"seed": 1,\n',
     "{config}: Expecting property name enclosed in double quotes: line 2 column 1 (char 12)"),
    (["explain", "--data", BLOBS, "--model", "{dwac}", "--k-list", ""], None,
     "k_list must hold at least one value"),
    (["conformal", "--data", BLOBS, "--model", "{dwac}", "--epsilon-grid", ""], None,
     "epsilons must hold at least one value"),
    (["conformal", "--data", BLOBS, "--model", "{dwac}"], '{"epsilons": []}',
     "epsilons must hold at least one value"),
    (["train", "--data", "{missing}", "--schema", "{schema}", "--batch-size", "0"], None,
     "batch_size must be >= 1, got 0"),
    (["train", "--data", "{missing}", "--schema", "{schema}", "--patience", "0"], None,
     "patience must be >= 1, got 0"),
    (["train", "--data", "{missing}", "--schema", "{schema}", "--sigma", "-1"], None,
     "sigma must be > 0, got -1.0"),
    (["train", "--data", "{csv}", "--schema", "{schema}", "--learning-rate", "0"], None,
     "learning_rate must be > 0, got 0.0"),
    (["train", "--data", "{missing}", "--schema", "{schema}", "--dropout", "1.0"], None,
     "dropout must be in [0, 1), got 1.0"),
    (["train", "--data", BLOBS], '{"dropout": 1}', "dropout must be in [0, 1), got 1"),
    (["train", "--data", "{missing}", "--schema", "{schema}", "--hidden", "32,0"], None,
     "hidden sizes must be >= 1, got [32, 0]"),
    (["ood", "--data", "{missing}", "--schema", "{schema}", "--held-class", "2",
      "--h-dim", "0"], None, "h_dim must be >= 1, got 0"),
    (["train", "--data", BLOBS, "--head", "dwac", "--batch-size", "1"], None,
     "dwac needs batch_size >= 2 for leave-one-out loss"),
    (["explain", "--data", "{missing}", "--model", "{dwac}", "--k", "0"], None,
     "k must be >= 1, got 0"),
    (["explain", "--data", "{missing}", "--model", "{dwac}", "--k-list", "0,5"], None,
     "k_list entries must be >= 1, got [0, 5]"),
    (["train", "--data", "{missing}", "--schema", "{schema}", "--fractions", "0.5,0.5,0.5"],
     None, "fractions must sum to 1, got 1.5"),
    (["train", "--data", "{missing}", "--schema", "{schema}"], '{"fractions": [0.5, 0.5, 0.5]}',
     "fractions must sum to 1, got 1.5"),
    (["ood", "--data", "{missing}", "--schema", "{schema}", "--held-class", "-1"], None,
     "held_class must be >= 0, got -1"),
    (["ood", "--data", "{missing}", "--schema", "{schema}"], '{"held_class": -1}',
     "held_class must be >= 0, got -1"),
    # each head is scored under every measure it has: the filter key is gone
    (["conformal", "--data", BLOBS, "--model", "{dwac}", "--measure", "neg_prob"], None,
     "unrecognized arguments: --measure neg_prob"),
    (["conformal", "--data", BLOBS, "--model", "{dwac}"], '{"measure": "neg_prob"}',
     "{config}: unknown config keys ['measure']"),
    (["ood", "--data", BLOBS, "--held-class", "2", "--measure", "both"], None,
     "unrecognized arguments: --measure both"),
    (["ood", "--data", BLOBS, "--held-class", "2"], '{"measure": "both"}',
     "{config}: unknown config keys ['measure']"),
    (["ood", "--data", BLOBS, "--foreign", BLOBS, "--model", "{dwac}", "--measure", "neg_prob"],
     None, "unrecognized arguments: --measure neg_prob"),
    (["ood", "--data", BLOBS, "--foreign", BLOBS, "--model", "{dwac}"], '{"measure": "neg_prob"}',
     "{config}: unknown config keys ['measure']"),
], ids=["seed-flag-blobs", "seed-flag-csv", "seed-config", "truncated-config", "empty-k-list",
        "empty-epsilon-grid", "empty-epsilons-config", "batch-size-0", "patience-0",
        "sigma-negative", "learning-rate-0", "dropout-1", "dropout-1-config", "hidden-0",
        "ood-h-dim-0", "dwac-batch-size-1", "k-0", "k-list-0", "fractions-sum",
        "fractions-sum-config", "held-class-negative", "held-class-negative-config",
        "measure-conformal", "measure-conformal-config", "measure-holdout",
        "measure-holdout-config", "measure-foreign", "measure-foreign-config"])
def test_a_bad_setting_is_refused_by_name_before_any_data_is_read(
        argv, config, refusal, trained_dir, tmp_path, capsys, monkeypatch):
    data, schema = write_csv_data(tmp_path)
    paths = {"csv": data, "schema": schema, "config": str(tmp_path / "cfg.json"),
             "dwac": str(trained_dir / "model_dwac_trial0.json"),
             "missing": str(tmp_path / "missing.csv")}
    if config is not None:
        Path(paths["config"]).write_text(config)
        argv = argv + ["--config", paths["config"]]
    monkeypatch.setattr(cli, "_load_raw", lambda *a, **k: pytest.fail("read data"))
    capsys.readouterr()
    out = tmp_path / "x"
    assert run([a.format(**paths) for a in argv] + ["--out", str(out)]) == 2
    assert assert_one_error_line(capsys) == "error: " + refusal.format(**paths)
    assert not out.exists()


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["train", "-h"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: dwac-kit train") and err == ""


@pytest.mark.parametrize("argv, refusal", [
    (["train", "--data", "blobs:n=4,c=2,d=2,sep=5"],
     "blobs:n=4,c=2,d=2,sep=5: 4 data rows leave the calibration split empty"),
    (["train", "--data", "blobs:n=40,c=2,d=2,sep=5", "--fractions", "0.96,0.02,0.02"],
     "blobs:n=40,c=2,d=2,sep=5: 40 data rows leave the calibration split empty"),
    (["train", "--data", "{csv}", "--schema", "{schema}", "--test-data", "{header_only}"],
     "{header_only}: 0 data rows leave the test split empty"),
    # zero fractions are refused before the first two are renormalized for --test-data
    (["train", "--data", "{csv}", "--schema", "{schema}", "--test-data", "{csv}",
      "--fractions", "0,0,1"], "fractions must each be > 0, got [0.0, 0.0, 1.0]"),
    (["ood", "--data", "blobs:n=6,c=3,d=2,sep=5", "--held-class", "0"],
     "blobs:n=6,c=3,d=2,sep=5: 4 data rows outside class 0 leave the calibration split empty"),
], ids=["four-blob-rows", "thin-calibration", "header-only-test", "zero-fractions",
        "holdout"])
def test_a_split_with_an_empty_part_is_refused_before_training(argv, refusal, tmp_path, capsys,
                                                              monkeypatch):
    data, schema = write_csv_data(tmp_path)
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(Path(data).read_text().splitlines()[0] + "\n")
    paths = {"csv": data, "schema": schema, "header_only": str(header_only)}
    monkeypatch.setattr(cli, "train_many", lambda jobs: pytest.fail("trained"))
    capsys.readouterr()
    out = tmp_path / "x"
    assert run([a.format(**paths) for a in argv] + ["--out", str(out)]) == 2
    assert assert_one_error_line(capsys) == "error: " + refusal.format(**paths)
    assert not out.exists()


def test_schema_without_columns_is_an_error(tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"label_values": ["a", "b"]}))
    data = tmp_path / "data.csv"
    data.write_text("x,y\n1.0,a\n2.0,b\n")
    capsys.readouterr()
    assert run(["train", "--data", str(data), "--schema", str(schema),
                "--out", str(tmp_path / "x")]) == 2
    assert_one_error_line(capsys)


SCHEMA_3 = {
    "columns": [{"name": "size", "role": "continuous"}, {"name": "color", "role": "categorical"},
                {"name": "species", "role": "label"}],
    "label_values": ["a", "b", "c"],
}
SCHEMA_ROLES = st.sampled_from(["continuous", "categorical", "label", "drop", "id", ""])
SCHEMA_NAMES = st.sampled_from(["size", "color", "species", "weight", ""])
SCHEMA_JUNK = st.sampled_from([None, True, 0, 2.5, "", "size", [], ["a"], {}, {"name": "size"}])


def _schema_nodes(node, parent=None, key=None):
    """``(parent, key, node)`` for ``node`` and for every value inside it."""
    yield parent, key, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for k, value in list(items):
        yield from _schema_nodes(value, node, k)


@st.composite
def schema_docs(draw):
    """``write_csv_data``'s schema with up to three edits: an object's role or
    name changed (to a bad role or a repeated name), an item of a list
    repeated (a column or a label), or a key or item dropped or swapped for a
    value of another JSON type."""
    doc = copy.deepcopy(SCHEMA_3)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["role", "name", "repeat", "drop", "swap"]))
        targets = [(parent, key, node) for parent, key, node in _schema_nodes(doc)
                   if kind not in ("role", "name") or parent is not None and isinstance(node, dict)
                   if kind != "repeat" or isinstance(node, list) and node]
        if not targets:
            continue
        parent, key, node = draw(st.sampled_from(targets))
        if kind in ("role", "name"):
            node[kind] = draw(SCHEMA_ROLES if kind == "role" else SCHEMA_NAMES)
        elif kind == "repeat":
            node.append(copy.deepcopy(draw(st.sampled_from(node))))
        elif parent is None:
            doc = copy.deepcopy(draw(SCHEMA_JUNK))
        elif kind == "drop":
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(SCHEMA_JUNK))
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=schema_docs())
def test_a_generated_schema_trains_or_is_one_error_line(doc, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("schema")
    data, schema = write_csv_data(tmp)
    Path(schema).write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run(["train", "--data", data, "--schema", schema, "--max-epochs", "1",
                  "--out", str(tmp / "out")])
    lines = err.getvalue().splitlines()
    assert rc == 0 or (rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")), (
        doc, rc, lines)


SCHEMA_2 = {"columns": [{"name": "y", "role": "label"}, {"name": "a", "role": "continuous"}],
            "label_values": ["p", "q"]}


@pytest.mark.parametrize("head, edit, message", [
    # the blobs model has 3 inputs, 3 classes and a 2-wide embedding
    ("dwac", {"embedded.num_classes": 10_000_000_000_000}, "embedded.num_classes is not"),
    ("dwac", {"num_classes": 10_000_000_000_000, "embedded.num_classes": 10_000_000_000_000},
     "schema labels 3"),
    ("dwac", {"schema": SCHEMA_2}, "schema labels 2"),
    ("softmax", {"num_classes": 2}, "softmax outputs 3"),
])
def test_artifact_class_counts_are_checked_before_use(trained_dir, tmp_path, capsys,
                                                      head, edit, message):
    # a class count no training run could give would size every kernel
    # block's class sums, and a large one ended in a MemoryError traceback
    doc = json.loads((trained_dir / f"model_{head}_trial0.json").read_text())
    for key, value in edit.items():
        *parents, leaf = key.split(".")
        target = doc
        for parent in parents:
            target = target[parent]
        target[leaf] = value
    model = tmp_path / "edited.json"
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["predict", "--data", BLOBS, "--model", str(model),
                "--out", str(tmp_path / "p")]) == 2
    line = assert_one_error_line(capsys)
    assert str(model) in line and message in line, line


def test_model_file_that_is_not_an_object(tmp_path, capsys):
    model = tmp_path / "list.json"
    model.write_text("[1, 2]")
    capsys.readouterr()
    assert run(["predict", "--data", BLOBS, "--model", str(model),
                "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and str(model) in err


def test_empty_data_names_its_file(tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "columns": [{"name": "x", "role": "continuous"}, {"name": "y", "role": "label"}],
        "label_values": ["a", "b"],
    }))
    data = tmp_path / "header_only.csv"
    data.write_text("x,y\n")
    capsys.readouterr()
    assert run(["train", "--data", str(data), "--schema", str(schema),
                "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and str(data) in err and "0 data rows" in err
    train = tmp_path / "train.csv"
    train.write_text("x,y\n" + "".join(f"{i},{'ab'[i % 2]}\n" for i in range(20)))
    assert run(["train", "--data", str(train), "--test-data", str(data),
                "--schema", str(schema), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and str(data) in err and "0 data rows" in err


def test_a_repeated_csv_column_is_one_error_line_naming_it(tmp_path, capsys):
    data, schema = write_csv_data(tmp_path)
    lines = Path(data).read_text().splitlines()
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("\n".join([lines[0] + ",size",
                                   *(f"{line},{i}" for i, line in enumerate(lines[1:])), ""]))
    expected = f"error: {repeated}: columns repeated in header: ['size']"
    capsys.readouterr()
    assert run(["train", "--data", str(repeated), "--schema", schema,
                "--out", str(tmp_path / "t"), *FAST]) == 2
    assert assert_one_error_line(capsys) == expected
    assert not (tmp_path / "t").exists()  # the first output written makes it
    assert run(["train", "--data", data, "--schema", schema, "--head", "dwac",
                "--out", str(tmp_path / "m"), *FAST]) == 0
    capsys.readouterr()
    assert run(["predict", "--data", str(repeated), "--model",
                str(tmp_path / "m" / "model_dwac_trial0.json"),
                "--out", str(tmp_path / "p")]) == 2
    assert assert_one_error_line(capsys) == expected
    assert not (tmp_path / "p").exists()


def test_a_refused_run_leaves_no_out_directory(tmp_path, capsys, monkeypatch):
    # the directory is made by the first output written, so a run refused
    # on its data leaves nothing behind
    data, schema = write_csv_data(tmp_path)
    lines = Path(data).read_text().splitlines()
    renamed = tmp_path / "renamed.csv"
    renamed.write_text("\n".join(["length,color,species", *lines[1:], ""]))
    model = tmp_path / "m" / "model_dwac_trial0.json"
    assert run(["train", "--data", data, "--schema", schema, "--head", "dwac",
                "--out", str(model.parent), *FAST]) == 0
    predict = ["predict", "--data", str(renamed), "--model", str(model)]
    capsys.readouterr()
    assert run(predict + ["--out", str(tmp_path / "p")]) == 2
    assert_one_error_line(capsys)
    assert not (tmp_path / "p").exists()
    # an --out that names a file, or a path through one, is refused before
    # any data is read
    train = ["train", "--data", data, "--schema", schema, *FAST]
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for reader in ("read_csv_rows", "read_csv_tables"):
        monkeypatch.setattr(cli, reader, lambda *a, **k: pytest.fail("read data"))
    for argv in (train, predict):
        for out in (blocker, blocker / "sub" / "dir"):
            capsys.readouterr()
            assert run(argv + ["--out", str(out)]) == 2
            assert assert_one_error_line(capsys) == (
                f"error: --out {out}: {blocker} is not a directory")


def test_test_data_must_match_the_kind_of_data(tmp_path, capsys):
    data, schema = write_csv_data(tmp_path)
    for train_data, test_data in ((BLOBS, data), (data, BLOBS)):
        capsys.readouterr()
        assert run(["train", "--data", train_data, "--test-data", test_data,
                    "--schema", schema, "--out", str(tmp_path / "x"), *FAST]) == 2
        assert_one_error_line(capsys)


def test_test_data_without_labels_is_refused_before_training(tmp_path, capsys, monkeypatch):
    data, schema = write_csv_data(tmp_path)
    unlabeled = tmp_path / "nolabel.csv"
    unlabeled.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                 for line in Path(data).read_text().splitlines()))
    monkeypatch.setattr(cli, "train_many", lambda jobs: pytest.fail("trained"))
    capsys.readouterr()
    assert run(["train", "--data", data, "--test-data", str(unlabeled), "--schema", schema,
                "--out", str(tmp_path / "x"), *FAST]) == 2
    assert assert_one_error_line(capsys) == (
        f"error: {unlabeled}: test data must include the label column 'species'")


def test_bad_blob_specs(tmp_path, capsys):
    # one error line names the spec, and the key whose value it cannot use
    out = tmp_path / "x"
    for spec, named in (("blobs:q=3", "unknown keys ['q']"), ("blobs:nope", "'nope'"),
                        ("blobs:n=2,c=3", "n=2, c=3"), ("blobs:n=abc", "n='abc'"),
                        ("blobs:n=1e3", "n='1e3'"), ("blobs:n=20,c=2,d=1,seed=x", "seed='x'"),
                        ("blobs:sep=nan", "separation"), ("blobs:sep=inf", "separation"),
                        ("blobs:n=40,c=2,d=2,sep=1e300", "separation 1e+300 is too large"),
                        ("blobs:n=99999999999999999999", "n x d = 99999999999999999999 x 8"),
                        ("blobs:n=40,n=50", "repeated key 'n'")):
        capsys.readouterr()
        assert run(["train", "--data", spec, "--out", str(out)]) == 2
        line = assert_one_error_line(capsys)
        assert line.startswith(f"error: bad blob spec {spec!r}: ") and named in line, line
    assert not out.exists()


def test_a_csv_column_too_large_for_its_moments_is_refused_by_name(tmp_path, capsys):
    # each size times 1e200: the squared spread overflows float64
    data, schema = write_csv_data(tmp_path)
    header, *rows = Path(data).read_text().splitlines()
    Path(data).write_text("\n".join([header, *(row.replace(",", "e200,", 1) for row in rows)]))
    capsys.readouterr()
    assert run(["train", "--data", data, "--schema", schema, "--out", str(tmp_path / "x")]) == 2
    assert assert_one_error_line(capsys) == (
        f"error: {data}: column 'size': no finite mean and spread "
        "(a value is not finite, or too large)")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e300"])
def test_a_scoring_cell_that_cannot_be_encoded_is_refused_by_name(tmp_path, capsys, value):
    # scoring data is encoded with the artifact's stats and never fitted, so
    # encoding itself refuses the cell, naming the file, its line and column
    data, schema = write_csv_data(tmp_path)
    model = tmp_path / "m" / "model_dwac_trial0.json"
    assert run(["train", "--data", data, "--schema", schema, "--head", "dwac",
                "--out", str(model.parent), *FAST]) == 0
    header, *rows = Path(data).read_text().splitlines()
    query = tmp_path / "query.csv"
    bad = value + rows[3][rows[3].index(","):]
    query.write_text("\n".join([header, *rows[:3], bad, *rows[4:8]]) + "\n")
    expected = (f"error: {query}: row 5, column 'size': {float(value)!r} is not finite, "
                "or too large once z-scored")
    for argv in (["predict", "--data", str(query)], ["conformal", "--data", str(query)],
                 ["explain", "--data", str(query)],
                 ["ood", "--data", data, "--foreign", str(query)]):
        out = tmp_path / argv[0]
        capsys.readouterr()
        assert run([*argv, "--model", str(model), "--out", str(out)]) == 2
        assert assert_one_error_line(capsys) == expected
        assert not out.exists()


# Values of each blob key: accepted sizes stay small, and the int64-overflowing
# ones are refused before anything is allocated (np.repeat of counts whose sum
# overflows int64 crashes the process). Parts that no spec may hold (a bare word, an unknown
# key, a value of no key's type) or that may repeat a key ride along.
# Specs of the second kind would train but for a huge finite separation: they
# train up to the one at which n x sep^2 overflows float64, and are refused as a
# bad spec beyond it.
HUGE = st.integers(2 ** 63, 2 ** 70)
BLOB_VALUES = {
    "n": st.integers(-2, 300) | st.integers(12, 300) | HUGE,
    "c": st.integers(-1, 6) | st.integers(1, 6) | HUGE,
    "d": st.integers(-1, 12) | st.integers(5, 12) | HUGE,
    "sep": st.floats() | st.integers(-2, 20) | st.floats(1.0, 20.0),
    "seed": st.integers(-2, 2 ** 70),
}
TRAINING_BLOB_VALUES = {"n": st.integers(12, 300), "c": st.integers(1, 6),
                        "d": st.integers(5, 12), "seed": st.integers(0, 2 ** 70)}
BAD_BLOB_PARTS = ["", "nope", "q=1", "=2", "n=1e3", "c=", "d=1.5", "sep=x", "seed=x", "n=7"]


@settings(max_examples=100, deadline=None)
@given(values=st.fixed_dictionaries({}, optional={k: v.map(str) for k, v in BLOB_VALUES.items()})
       | st.fixed_dictionaries({"sep": st.floats(1e150, 1e308).map(str)},
                               optional={k: v.map(str) for k, v in TRAINING_BLOB_VALUES.items()}),
       extra=st.lists(st.sampled_from(BAD_BLOB_PARTS), max_size=1), order=st.randoms())
def test_a_generated_blob_spec_trains_or_is_one_error_line(values, extra, order,
                                                             tmp_path_factory):
    parts = [f"{key}={value}" for key, value in values.items()] + extra
    order.shuffle(parts)
    spec = "blobs:" + ",".join(parts)
    out = tmp_path_factory.mktemp("blobs") / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run(["train", "--data", spec, "--max-epochs", "1", "--out", str(out)])
    lines = err.getvalue().splitlines()
    # refused as a bad spec, or as data with too few rows to split
    assert rc == 0 or (rc == 2 and len(lines) == 1 and (
        lines[0].startswith(f"error: bad blob spec {spec!r}: ")
        or lines[0].startswith(f"error: {spec}: ") and lines[0].endswith(" split empty"))), (
        spec, rc, lines)


# ---------------------------------------------------------------------------
# CSV data: split, then encode each row once
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, name, sizes):
    """Record len() of every result of ``dwac_kit.data.<name>`` in ``sizes``,
    wherever a dwac_kit module calls it from."""
    from dwac_kit import cli, data, evaluate

    original = getattr(data, name)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        sizes.append(len(result[0] if isinstance(result, tuple) else result))
        return result

    for module in (cli, data, evaluate):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)


def test_csv_rows_are_read_once_and_encoded_once_per_trial(tmp_path, monkeypatch):
    data, schema = write_csv_data(tmp_path)
    reads, encoded = [], []
    _count_calls(monkeypatch, "read_csv_rows", reads)
    _count_calls(monkeypatch, "encode_rows", encoded)
    out = tmp_path / "train"
    assert run(["train", "--data", data, "--schema", schema, "--head", "both",
                "--trials", "2", "--out", str(out), *FAST]) == 0
    assert reads == [150]
    # three splits per trial, every row in one of them, for both heads
    assert len(encoded) == 2 * 3 and sum(encoded) == 2 * 150

    # scoring reads the file once, 64 rows at a time, and encodes each chunk
    # once for both models
    tables = []
    read_tables = cli.read_csv_tables
    monkeypatch.setattr(cli, "read_csv_tables", lambda *args: map(
        lambda table: tables.append(len(table)) or table, read_tables(*args)))
    monkeypatch.setattr(cli, "_chunk_rows", lambda artifacts: 64)
    reads.clear(), encoded.clear()
    assert run(["conformal", "--data", data,
                "--model", str(out / "model_dwac_trial0.json"),
                "--model", str(out / "model_softmax_trial0.json"),
                "--out", str(tmp_path / "conf")]) == 0
    assert reads == [] and tables == [64, 64, 22] and encoded == [64, 64, 22]
    # two trials' models (of two heads, as one head's would share output
    # names): their stats differ, the file does not
    tables.clear(), encoded.clear()
    assert run(["conformal", "--data", data,
                "--model", str(out / "model_dwac_trial0.json"),
                "--model", str(out / "model_softmax_trial1.json"),
                "--out", str(tmp_path / "conf2")]) == 0
    assert tables == [64, 64, 22] and encoded == [64, 64, 64, 64, 22, 22]


@pytest.mark.parametrize("fixed_test", [False, True])
def test_train_lets_its_tables_go_before_the_last_trial_trains(tmp_path, monkeypatch,
                                                                fixed_test):
    # earlier trials split the tables again; the last one's encoded splits
    # are all that training and scoring read, so no table sits beside them
    data, schema = write_csv_data(tmp_path)
    tables, alive = [], []
    read, train_many = cli.read_csv_rows, cli.train_many

    def recorded_read(*args, **kwargs):
        table, has_labels = read(*args, **kwargs)
        tables.append(weakref.ref(table))
        return table, has_labels

    def recorded_train_many(jobs):
        alive.append([ref() is not None for ref in tables])
        return train_many(jobs)

    monkeypatch.setattr(cli, "read_csv_rows", recorded_read)
    monkeypatch.setattr(cli, "train_many", recorded_train_many)
    argv = ["train", "--data", data, "--schema", schema, "--trials", "2",
            "--out", str(tmp_path / "out"), *FAST]
    if fixed_test:
        argv += ["--test-data", data]
    assert run(argv) == 0
    tables_read = 2 if fixed_test else 1
    assert alive == [[True] * tables_read, [False] * tables_read]


@pytest.mark.parametrize("command", ["conformal", "ood"])
def test_scoring_lets_its_tables_go_before_any_artifact_scores(tmp_path, monkeypatch, command):
    # each chunk's table goes once every artifact's encoding of it is made,
    # before the first one scores, so no table read sits beside a kernel sum
    data, schema = write_csv_data(tmp_path)
    out = tmp_path / "train"
    assert run(["train", "--data", data, "--schema", schema, "--out", str(out), *FAST]) == 0
    tables, alive = [], []
    read = cli.read_csv_tables

    def recorded_read(*args):
        return map(lambda data: tables.append(weakref.ref(data.table)) or data, read(*args))

    def recorded(scorer):
        def call(*args, **kwargs):
            alive.append([ref() is not None for ref in tables])
            return scorer(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "read_csv_tables", recorded_read)
    monkeypatch.setattr(cli, "_chunk_rows", lambda artifacts: 64)
    monkeypatch.setattr(cli, "predict", recorded(cli.predict))
    monkeypatch.setattr(cli, "credibility", recorded(cli.credibility))
    argv = [command, "--data", data, "--model", str(out / "model_dwac_trial0.json"),
            "--model", str(out / "model_softmax_trial0.json"), "--out", str(tmp_path / "o")]
    if command == "ood":
        argv += ["--foreign", data]
    assert run(argv) == 0
    sources = 2 if command == "ood" else 1  # ood reads --data and --foreign
    assert len(tables) == 3 * sources  # 150 rows, 64 at a time
    # the tables read by the time of each scoring call, one call per chunk and
    # artifact: ood reads the first chunk of --data and of --foreign before
    # it scores either
    reads = [2, 3, 4, 4, 5, 6] if command == "ood" else [1, 2, 3]
    assert alive == [[False] * n for n in reads for _ in range(2)]


def test_ood_holdout_splits_and_encodes_once_for_both_heads(tmp_path, monkeypatch):
    data, schema = write_csv_data(tmp_path)
    encoded = []
    _count_calls(monkeypatch, "encode_rows", encoded)
    assert run(["ood", "--data", data, "--schema", schema, "--held-class", "2",
                "--head", "both", "--out", str(tmp_path / "ood"), *FAST]) == 0
    # proper, calibration, test and held-out rows, once each
    assert len(encoded) == 4 and sum(encoded) == 150


def test_cell_errors_name_the_file_and_its_line_through_the_split(tmp_path, capsys):
    data, schema = write_csv_data(tmp_path)
    with open(data) as f:
        lines = f.read().splitlines()
    lines[31] = "oops,red,a"  # file line 32
    lines.insert(10, "")  # a blank line: the bad cell is now on line 33
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    for argv in (["train"], ["ood", "--held-class", "2"]):
        capsys.readouterr()
        assert run([*argv, "--data", str(bad), "--schema", schema,
                    "--out", str(tmp_path / "x"), *FAST]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}: row 33, column 'size': cannot parse 'oops' as a number"]


def test_a_test_split_too_small_to_score_is_logged(tmp_path, caplog):
    with caplog.at_level("INFO", logger="dwac_kit"):
        assert run(["train", "--data", "blobs:n=5,c=2,d=2,sep=3",
                    "--out", str(tmp_path / "tiny"), *FAST]) == 0
    def warnings():
        return [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]

    assert warnings() == ["trial 0: the test split has 1 rows, fewer than the 2 classes; "
                          "its accuracy and calibration error say little",
                          "trial 0: the calibration error is NaN: the test split's 1 rows x 2 "
                          "classes make 2 pairs, fewer than two bins of 100"]
    caplog.clear()
    with caplog.at_level("INFO", logger="dwac_kit"):
        assert run(["train", "--data", BLOBS, "--out", str(tmp_path / "small"), *FAST]) == 0
    assert warnings() == ["trial 0: the calibration error is NaN: the test split's 40 rows x 3 "
                          "classes make 120 pairs, fewer than two bins of 100"]
    caplog.clear()
    # 120 test rows x 3 classes: 360 pairs make three bins, and a defined error
    with caplog.at_level("INFO", logger="dwac_kit"):
        assert run(["train", "--data", "blobs:n=600,c=3", "--out", str(tmp_path / "big"),
                    *FAST]) == 0
    assert warnings() == []
    _, rows = read_table(tmp_path / "big" / "summary.csv")
    assert all(np.isfinite(float(r[3])) for r in rows[1:])  # calibration_mae_mean


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 4.29 GiB for an array with shape (24000, 24002) and data type "
     "float64", "error: Unable to allocate 4.29 GiB for an array with shape (24000, 24002) "
     "and data type float64"),
    ("", "error: out of memory"),
], ids=["numpy", "bare"])
def test_an_allocation_too_large_for_the_host_is_one_error_line(tmp_path, capsys,
                                                                monkeypatch, message, line):
    # numpy's MemoryError names the shape it could not allocate; a bare one is empty
    def too_large(*args, **kwargs):
        raise MemoryError(message) if message else MemoryError()

    monkeypatch.setattr(evaluate, "encode_rows", too_large)
    assert run(["train", "--data", BLOBS, "--out", str(tmp_path / "t"), *FAST]) == 2
    assert assert_one_error_line(capsys) == line
    assert not (tmp_path / "t").exists()


def test_verbose_logs_one_debug_line_per_epoch(tmp_path, caplog, monkeypatch):
    use_cpus(monkeypatch, 1)  # both heads train in this process
    argv = ["train", "--data", BLOBS, "--head", "both", "--max-epochs", "2", "--patience", "2"]

    def epoch_lines():
        return [r.getMessage().split()[:2] for r in caplog.records
                if r.levelname == "DEBUG" and " epoch=" in r.getMessage()]

    assert run([*argv, "-v", "--out", str(tmp_path / "v")]) == 0
    assert epoch_lines() == [[f"head={head}", f"epoch={epoch}"]
                             for head in ("softmax", "dwac") for epoch in (1, 2)]
    caplog.clear()
    # a second run in the same process takes its own level, not the first run's
    assert run([*argv, "--out", str(tmp_path / "q")]) == 0
    assert epoch_lines() == []
    for path in (tmp_path / "v").iterdir():  # the outputs do not depend on -v
        assert path.read_bytes() == (tmp_path / "q" / path.name).read_bytes()


def test_verbose_logs_of_a_trained_child_follow_the_callers_in_job_order(
        tmp_path, caplog, monkeypatch):
    argv = ["train", "-v", "--data", BLOBS, "--head", "both", "--max-epochs", "2",
            "--patience", "2"]
    lines = []
    for n in (1, 2):  # on 2 CPUs softmax trains in a forked child, dwac in this process
        use_cpus(monkeypatch, n)
        caplog.clear()
        with caplog.at_level("DEBUG", logger="dwac_kit"):
            assert run([*argv, "--out", str(tmp_path / f"v{n}")]) == 0
        lines.append([r.getMessage() for r in caplog.records
                      if r.levelname == "DEBUG" and " epoch=" in r.getMessage()])
    assert [line.split()[:2] for line in lines[1]] == [
        [f"head={head}", f"epoch={epoch}"] for head in ("softmax", "dwac") for epoch in (1, 2)]
    assert lines[1] == lines[0]


def test_verbose_stderr_is_the_same_on_every_run(tmp_path):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    errs = [subprocess.run(
        [sys.executable, "-m", "dwac_kit.cli", "train", "-v", "--data",
         "blobs:n=300,c=3,d=4,sep=8", "--head", "both", "--max-epochs", "3",
         "--out", str(tmp_path / str(i))], env=env, capture_output=True, text=True,
        check=True).stderr for i in range(2)]
    assert errs[0] == errs[1] and errs[0].count("DEBUG head=") == 6


def test_a_column_with_a_value_per_row_trains_and_predicts(tmp_path):
    # its proper split's 2,400 values make a 2,402-wide first layer, but the
    # encoded rows hold one code each, and unseen ids select the unknown row
    data, schema = write_unique_id_csv(tmp_path, 4000)
    out = tmp_path / "ids"
    assert run(["train", "--data", data, "--schema", schema, "--head", "dwac",
                "--max-epochs", "2", "--out", str(out)]) == 0
    model = out / "model_dwac_trial0.json"
    assert json.loads(model.read_text())["spec"]["layer_sizes"][0] == 2402
    assert run(["predict", "--data", data, "--model", str(model),
                "--out", str(tmp_path / "p")]) == 0
    assert len(_records(tmp_path / "p" / "predictions.json", "predictions")) == 4000


def test_ood_holdout_on_csv(tmp_path):
    data, schema = write_csv_data(tmp_path)
    out = tmp_path / "ood"
    assert run(["ood", "--data", data, "--schema", schema, "--held-class", "2",
                "--head", "dwac", "--out", str(out), *FAST]) == 0
    doc = json.loads((out / "ood_summary.json").read_text())
    assert set(doc["combinations"]) == {"dwac/neg_prob", "dwac/neg_weight_sum"}
    for stats in doc["combinations"].values():
        assert stats["out_of_domain_n"] == 50
        assert stats["in_domain_n"] == 100 - int(100 * 0.6) - int(100 * 0.2)
