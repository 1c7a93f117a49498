"""Acceptance gate: ten deterministic checks of the package's headline claims.

Every test prints one ``[criterion NN] PASS/FAIL`` line (visible with -s, or
in the failure report) and then asserts. All protocols are seeded, so a green
suite stays green. The two Adult Income checks run only when the dataset is
supplied via DWAC_KIT_ADULT_CSV (optionally DWAC_KIT_ADULT_TEST_CSV); every
other criterion is self-contained.
"""

from __future__ import annotations

import os
from collections import namedtuple

import numpy as np
import pytest

from dwac_kit import (
    Dataset,
    MlpSpec,
    Schema,
    TrainConfig,
    calibrate,
    calibration_mae,
    conformal_predict,
    coverage_report,
    accuracy,
    dwac_batch_loss,
    dwac_predict,
    explain_with_agreement,
    forward,
    load_model,
    make_blobs,
    make_rng,
    pairwise_sq_distances,
    predict,
    save_model,
    softmax_batch_loss,
    train,
)
from dwac_kit.cli import main as cli_main
from dwac_kit.conformal import NEG_PROB, NEG_WEIGHT_SUM, p_values
from dwac_kit.data import blob_data
from dwac_kit.evaluate import ood_cross_dataset, trial_splits
from dwac_kit.heads import EmbeddedTrainingSet
from dwac_kit.linalg import shuffle_split
from dwac_kit.network import DWAC, SOFTMAX, Inputs, backward, init_model
from helpers import (
    calibrate_oracle,
    class_weights,
    decode_lines,
    dwac_predict_oracle,
    load_csv,
    loo_loss_oracle,
    p_value_oracle,
    pairwise_sq_oracle,
    subset,
)

SEEDS = (0, 1, 2, 3, 4)
EPSILONS = (0.05, 0.1, 0.2)
COMBOS = ((DWAC, NEG_PROB), (DWAC, NEG_WEIGHT_SUM), (SOFTMAX, NEG_PROB))

ProtocolRun = namedtuple("ProtocolRun", "result proper calib test calib_preds test_preds")


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def protocol_run(head: str, seed: int, separation: float) -> ProtocolRun:
    """The shared blob protocol: 4 classes in 8 dims, 2000/500/2000 split,
    feature moments from the proper split, generous training budget."""
    blobs = make_blobs(4500, 4, 8, separation, make_rng(seed, 3))
    proper, calib, test = trial_splits(blob_data(blobs), seed, (4 / 9, 1 / 9, 4 / 9))
    config = TrainConfig(head=head, seed=seed, max_epochs=300, patience=50)
    result = train(proper, calib, config)
    cp = predict(result, calib.x)
    tp = predict(result, test.x)
    return ProtocolRun(result, proper, calib, test, cp, tp)


@pytest.fixture(scope="session")
def separated():
    return {(head, seed): protocol_run(head, seed, 10.0)
            for head in (DWAC, SOFTMAX) for seed in SEEDS}


@pytest.fixture(scope="session")
def overlapping():
    # separation of 2 noise standard deviations: heavy class overlap
    return {(head, seed): protocol_run(head, seed, 2.0)
            for head in (DWAC, SOFTMAX) for seed in SEEDS}


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match finite differences
# ---------------------------------------------------------------------------

def _conditioned_tiny_model(head, sizes, batch, seed, make_x=None):
    """A tiny model plus batch whose pre-activations stay clear of the ReLU
    kink, where central differences straddle the corner but the analytic
    subgradient is one-sided. ``make_x(rng, batch)`` draws the batch; by
    default it is continuous."""
    for attempt in range(20):
        rng = make_rng(seed, 90 + attempt)
        model = init_model(MlpSpec(layer_sizes=sizes, dropout_prob=0.0), head, rng)
        for b in model.biases:
            b += 0.05 * rng.standard_normal(b.shape)
        x = make_x(rng, batch) if make_x else rng.standard_normal((batch, sizes[0]))
        _, cache = forward(model, x, mode="train")
        if all(np.min(np.abs(p)) > 1e-3 for p in cache["pre"]):
            return model, x, rng
    raise AssertionError("could not condition a kink-free tiny model")


def _fd_grads(model, x, loss_of_h, step=1e-6):
    grads = []
    for p in model.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            up = loss_of_h(forward(model, x)[0])
            p[idx] = orig - step
            down = loss_of_h(forward(model, x)[0])
            p[idx] = orig
            g[idx] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def _gradient_error(model, x, labels):
    """The largest gap between the analytic and the central-difference
    gradient of the model's batch loss on ``x``, relative to the largest
    numeric entry."""
    c = model.spec.output_dim
    if model.head == DWAC:
        def loss_and_grad(h):
            return dwac_batch_loss(h, labels, c)
    else:
        def loss_and_grad(h):
            return softmax_batch_loss(h, labels)
    h, cache = forward(model, x, mode="train")
    analytic = backward(model, cache, loss_and_grad(h)[1])
    numeric = _fd_grads(model, x, lambda h: loss_and_grad(h)[0])
    a = np.concatenate([g.ravel() for g in analytic])
    n = np.concatenate([g.ravel() for g in numeric])
    # denominator floored at the resolution of central differences
    # with step 1e-6; below that both sides agree the loss is flat
    return np.abs(a - n).max() / max(np.abs(n).max(), 1e-6)


def test_criterion_01_gradient_correctness():
    shapes = ((2, 3, 2), (3, 4, 3), (4, 3, 2))
    batches = (2, 3, 8)
    worst = 0.0
    for i in range(20):
        sizes = shapes[i % len(shapes)]
        batch = batches[i % len(batches)]
        for head in (DWAC, SOFTMAX):
            model, x, rng = _conditioned_tiny_model(head, sizes, batch, seed=i)
            assert sum(p.size for p in model.parameters()) <= 50
            labels = rng.integers(0, sizes[-1], size=batch)
            worst = max(worst, _gradient_error(model, x, labels))
    report(1, "gradient correctness vs central differences", worst < 1e-4,
           f"worst relative error {worst:.3e} over 20 models x 2 losses")


def _coded_batch(rng, batch):
    """Inputs of ``batch`` rows for a 7-row first layer: continuous columns
    feed rows 0 and 4, one categorical column owns rows 1-3 and another rows
    5-6. Eight rows over those few values make rows of a batch share a slot."""
    slots = np.stack([rng.integers(1, 4, batch), rng.integers(5, 7, batch)], axis=1)
    return Inputs(rng.standard_normal((batch, 2)), slots.astype(np.int32), [0, 4], 7)


def test_criterion_01_gradient_correctness_with_categorical_inputs():
    # the same check through the first layer's slot sum and scatter
    worst = 0.0
    for i in range(10):
        for head in (DWAC, SOFTMAX):
            model, x, rng = _conditioned_tiny_model(head, (7, 3, 2), 8, i, _coded_batch)
            assert sum(p.size for p in model.parameters()) <= 50
            assert all(len(set(column)) < 8 for column in x.slots.T.tolist())
            worst = max(worst, _gradient_error(model, x, rng.integers(0, 2, size=8)))
    assert worst < 1e-4, worst


# ---------------------------------------------------------------------------
# criterion 2: vectorized kernels match brute-force loops
# ---------------------------------------------------------------------------

def test_criterion_02_oracle_equivalence():
    worst = 0.0
    for case in range(50):
        rng = make_rng(case, 91)
        q, t, d, c = rng.integers(2, 9, size=4)
        a = rng.standard_normal((q, d)) * 3.0
        b = rng.standard_normal((t, d)) * 3.0
        labels = rng.integers(0, c, size=t)

        worst = max(worst, np.abs(
            pairwise_sq_distances(a, b) - pairwise_sq_oracle(a, b)).max())

        ref = EmbeddedTrainingSet(h=b, labels=labels, num_classes=int(c))
        preds = dwac_predict(a, ref)
        worst = max(worst, np.abs(
            preds.probs - dwac_predict_oracle(a, b, labels, int(c), 0.5)).max())

        if t >= 2:
            loss, _ = dwac_batch_loss(b, labels, int(c))
            worst = max(worst, abs(loss - loo_loss_oracle(b, labels, 0.5)))

        score_rows = rng.standard_normal((t, c))
        calib = calibrate_oracle(score_rows, labels)
        got = calibrate(
            # calibrate() takes Predictions; feed the raw rows through the
            # negated-probability path by rebuilding an equivalent object
            _fake_predictions(-score_rows), labels, NEG_PROB)
        worst = max(worst, np.abs(got - calib).max())

        dup = np.sort(rng.integers(0, 5, size=12) / 4.0)
        queries = rng.integers(0, 5, size=(3, c)) / 4.0
        got_p = p_values(dup, queries)
        ref_p = np.array([[p_value_oracle(dup, s) for s in row] for row in queries])
        worst = max(worst, np.abs(got_p - ref_p).max())
    report(2, "brute-force oracle equivalence", worst < 1e-8,
           f"max abs diff {worst:.3e} over 50 cases x 5 operations")


def _fake_predictions(probs):
    from dwac_kit.heads import Predictions
    probs = np.asarray(probs, dtype=np.float64)
    return Predictions(probs=probs, predicted=np.argmax(probs, axis=1).astype(np.int64),
                       weight_sums=None)


# ---------------------------------------------------------------------------
# criterion 3: conformal coverage tracks 1 - epsilon
# ---------------------------------------------------------------------------

def test_criterion_03_conformal_validity(separated):
    failures = []
    margins = []
    for head, measure in COMBOS:
        for eps in EPSILONS:
            per_seed = []
            for seed in SEEDS:
                run = separated[head, seed]
                scores = calibrate(run.calib_preds, run.calib.y, measure)
                cs = conformal_predict(run.test_preds, scores, measure)
                row = coverage_report(cs, run.test.y, (eps,))[0]
                per_seed.append(row["coverage"])
            mean_cov = float(np.mean(per_seed))
            target = 1.0 - eps - 0.03
            margins.append(mean_cov - target)
            if mean_cov < target:
                failures.append(f"{head}/{measure}@{eps}: {mean_cov:.4f} < {target:.2f}")
    report(3, "conformal coverage >= 1 - eps - 0.03 (5-seed mean)", not failures,
           failures[0] if failures else f"min margin {min(margins):+.4f}")


# ---------------------------------------------------------------------------
# criterion 4: averaging head matches softmax accuracy
# ---------------------------------------------------------------------------

def test_criterion_04_head_parity(separated, overlapping):
    details = []
    ok = True
    for name, runs in (("separated", separated), ("overlapping", overlapping)):
        gaps = []
        for seed in SEEDS:
            d = accuracy(runs[DWAC, seed].test_preds, runs[DWAC, seed].test.y)
            s = accuracy(runs[SOFTMAX, seed].test_preds, runs[SOFTMAX, seed].test.y)
            gaps.append(abs(d - s))
        mean_gap = float(np.mean(gaps))
        details.append(f"{name} mean |gap| {mean_gap:.4f}")
        ok = ok and mean_gap <= 0.02
    report(4, "dwac/softmax accuracy parity within 0.02", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criteria 5 and 6b: Adult Income (conditional on external data)
# ---------------------------------------------------------------------------

ADULT_ENV = "DWAC_KIT_ADULT_CSV"
ADULT_TEST_ENV = "DWAC_KIT_ADULT_TEST_CSV"
_adult_missing = ADULT_ENV not in os.environ


@pytest.fixture(scope="session")
def adult_runs():
    schema = Schema.from_file(
        os.path.join(os.path.dirname(__file__), "..", "schemas", "adult_income.json"))
    train_ds = load_csv(os.environ[ADULT_ENV], schema)
    fixed_test = None
    if ADULT_TEST_ENV in os.environ:
        fixed_test = load_csv(os.environ[ADULT_TEST_ENV], schema, stats=train_ds.stats)

    runs = {}
    for head in (DWAC, SOFTMAX):
        for seed in SEEDS:
            if fixed_test is not None:
                parts = shuffle_split(len(train_ds), (0.75, 0.25), make_rng(seed, 2))
                proper, calib = (subset(train_ds, p) for p in parts)
                test = fixed_test
            else:
                parts = shuffle_split(len(train_ds), (0.6, 0.2, 0.2), make_rng(seed, 2))
                proper, calib, test = (subset(train_ds, p) for p in parts)
            config = TrainConfig(head=head, seed=seed, max_epochs=50, patience=10)
            result = train(proper, calib, config)
            tp = predict(result, test.x)
            runs[head, seed] = ProtocolRun(result, proper, calib, test, None, tp)
    return runs


@pytest.mark.skipif(_adult_missing, reason=f"set {ADULT_ENV} to run the Adult check")
def test_criterion_05_adult_income_reproduction(adult_runs):
    details = []
    ok = True
    for head in (DWAC, SOFTMAX):
        accs = [accuracy(adult_runs[head, s].test_preds, adult_runs[head, s].test.y)
                for s in SEEDS]
        maes = [calibration_mae(adult_runs[head, s].test_preds.probs,
                                adult_runs[head, s].test.y) for s in SEEDS]
        acc, mae = float(np.mean(accs)), float(np.mean(maes))
        details.append(f"{head}: acc {acc:.4f} mae {mae:.4f}")
        ok = ok and abs(acc - 0.85) <= 0.01 and mae <= 0.03
    report(5, "Adult Income accuracy 0.85 +/- 0.01, calibration MAE <= 0.03",
           ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 6: explanations agree with the full predictor
# ---------------------------------------------------------------------------

def test_criterion_06_explanation_fidelity(separated):
    run = separated[DWAC, 0]
    t = len(run.proper)
    table = dict(explain_with_agreement(run.test.x, run.result, k=1, k_list=(1, t))[1])
    exact_at_t = table[t] == 1.0

    # independent check of the k=t identity: rebuild the class masses from a
    # full (untruncated) explanation and compare against the predictor
    sample = run.test.x[:100]
    preds = predict(run.result, sample)
    rebuilt = [int(np.argmax(class_weights(e, run.proper.num_classes)))
               for e in decode_lines(explain_with_agreement(sample, run.result, k=t,
                                                            k_list=())[0])]
    exact_at_t = exact_at_t and np.array_equal(rebuilt, preds.predicted)

    at_one = []
    for seed in SEEDS:
        r = separated[DWAC, seed]
        at_one.append(dict(explain_with_agreement(r.test.x, r.result, k=1, k_list=(1,))[1])[1])
    ok = exact_at_t and min(at_one) >= 0.95
    report(6, "explanation agreement: exact at k=t, >= 0.95 at k=1", ok,
           f"k=t {table[t]!r} (rebuilt argmax matches), k=1 min {min(at_one):.4f}")


@pytest.mark.skipif(_adult_missing, reason=f"set {ADULT_ENV} to run the Adult check")
def test_criterion_06b_adult_agreement(adult_runs):
    run = adult_runs[DWAC, 0]
    frac = dict(explain_with_agreement(run.test.x, run.result, k=1, k_list=(10,))[1])[10]
    report(6, "Adult agreement at k=10 >= 0.90", frac >= 0.90, f"k=10 {frac:.4f}")


# ---------------------------------------------------------------------------
# criterion 7: weight-sum credibility exposes out-of-domain data
# ---------------------------------------------------------------------------

def _distant_blobs(n: int, seed: int, shift: float = 30.0) -> Dataset:
    """Four blobs where the fourth sits far off the simplex spanned by the
    other three, so holding it out yields genuinely distant OOD data."""
    ds = make_blobs(n, 4, 8, 10.0, make_rng(seed, 3))
    x = ds.x.cont.copy()
    x[ds.y == 3] -= shift / np.sqrt(ds.dim)
    return Dataset(x=x, y=ds.y, num_classes=4)


def test_criterion_07_ood_direction():
    details = []
    ok = True
    for seed in SEEDS:
        blobs = _distant_blobs(2500, seed)
        dwac_cfg = TrainConfig(head=DWAC, seed=seed, max_epochs=60, patience=10)
        soft_cfg = TrainConfig(head=SOFTMAX, seed=seed, max_epochs=60, patience=10)
        splits = trial_splits(blob_data(blobs), seed, (0.6, 0.2, 0.2), held_class=3)
        dwac_res, soft_res = (train(*splits[:2], cfg) for cfg in (dwac_cfg, soft_cfg))
        dwac_rep = ood_cross_dataset(dwac_res, *splits[2:])
        soft_rep = ood_cross_dataset(soft_res, *splits[2:])
        ws = float(np.mean(dwac_rep[NEG_WEIGHT_SUM][1]))
        np_same = float(np.mean(dwac_rep[NEG_PROB][1]))
        np_soft = float(np.mean(soft_rep[NEG_PROB][1]))
        seed_ok = ws < 0.2 and ws < np_same and ws < np_soft
        ok = ok and seed_ok
        details.append(f"s{seed}: ws {ws:.3f} np {np_same:.3f} soft {np_soft:.3f}")
    report(7, "held-out class: weight-sum credibility < 0.2 and below neg_prob",
           ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 8: in-domain credibility is uniform
# ---------------------------------------------------------------------------

def test_criterion_08_credibility_uniformity():
    # Early stopping selects the best epoch on the calibration split, which
    # would make calibration scores slightly optimistic relative to test
    # scores. Exchangeability, which the uniformity claim rests on, needs
    # conformal calibration data untouched by model selection, so this
    # protocol carves a separate development split for the trainer.
    blobs = make_blobs(5500, 4, 8, 5.0, make_rng(0, 3))
    fractions = (2000 / 5500, 500 / 5500, 1000 / 5500, 2000 / 5500)
    proper, dev, calib, test = trial_splits(blob_data(blobs), 0, fractions)
    assert (len(proper), len(dev), len(calib), len(test)) == (2000, 500, 1000, 2000)

    deciles = np.arange(0.1, 1.0, 0.1)
    details = []
    ok = True
    for head in (DWAC, SOFTMAX):
        config = TrainConfig(head=head, seed=0, max_epochs=300, patience=50)
        result = train(proper, dev, config)
        cp = predict(result, calib.x)
        tp = predict(result, test.x)
        measures = (NEG_PROB, NEG_WEIGHT_SUM) if head == DWAC else (NEG_PROB,)
        for measure in measures:
            scores = calibrate(cp, calib.y, measure)
            cred = conformal_predict(tp, scores, measure).credibility()
            cdf = np.array([np.mean(cred <= q) for q in deciles])
            dev_max = float(np.abs(cdf - deciles).max())
            details.append(f"{head}/{measure} {dev_max:.3f}")
            ok = ok and dev_max < 0.05
    report(8, "credibility CDF within 0.05 of uniform at deciles (n=2000)",
           ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 9: decisive prefixes survive adversarial relabeling
# ---------------------------------------------------------------------------

def test_criterion_09_decisive_prefix_soundness(separated):
    queries = flips = decisive = 0
    for seed in SEEDS:
        run = separated[DWAC, seed]
        explanations, _ = explain_with_agreement(run.test.x[:40], run.result,
                                                 k=len(run.proper), k_list=())
        for e in decode_lines(explanations):
            queries += 1
            j = e["decisive_prefix"]
            if j == 0:
                continue  # no certificate claimed, nothing to attack
            decisive += 1
            masses = np.zeros(run.proper.num_classes)
            for entry in e["entries"][:j]:
                masses[entry["label"]] += entry["weight"]
            tail = sum(entry["weight"] for entry in e["entries"][j:])
            for k in range(run.proper.num_classes):
                hostile = masses.copy()
                hostile[k] += tail
                if int(np.argmax(hostile)) != e["predicted_label"]:
                    flips += 1
    ok = queries == 200 and flips == 0 and decisive >= 150
    report(9, "adversarial relabeling beyond decisive prefix never flips",
           ok, f"{decisive}/{queries} decisive, {flips} flips")


# ---------------------------------------------------------------------------
# criterion 10: determinism and artifact round-trip
# ---------------------------------------------------------------------------

def test_criterion_10_determinism_round_trip(tmp_path):
    spec = "blobs:n=300,c=3,d=3,sep=8,seed=0"
    fast = ["--max-epochs", "25", "--batch-size", "64"]
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["train", "--data", spec, "--out", str(run_a), *fast]) == 0
    assert cli_main(["train", "--data", spec, "--out", str(run_b), *fast]) == 0
    names = sorted(p.name for p in run_a.iterdir())
    identical = names == sorted(p.name for p in run_b.iterdir()) and all(
        (run_a / n).read_bytes() == (run_b / n).read_bytes() for n in names)

    artifact = load_model(str(run_a / "model_dwac_trial0.json"))
    resaved = tmp_path / "resaved.json"
    save_model(artifact, str(resaved))
    reloaded = load_model(str(resaved))
    x = make_blobs(64, 3, 3, 8.0, make_rng(7, 3)).x
    first = predict(artifact, x)
    second = predict(reloaded, x)
    bitwise = (np.array_equal(first.probs, second.probs)
               and np.array_equal(first.weight_sums, second.weight_sums)
               and resaved.read_bytes() == (run_a / "model_dwac_trial0.json").read_bytes())

    report(10, "byte-identical reruns and bit-identical round-trip predictions",
           identical and bitwise,
           f"{len(names)} files compared, round-trip exact={bitwise}")
