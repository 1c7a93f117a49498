from __future__ import annotations

import sys

import numpy as np
import pytest

from dwac_kit import explain as explain_module
from dwac_kit import heads
from dwac_kit.explain import explain_with_agreement
from dwac_kit.heads import EmbeddedTrainingSet, Predictor, kernel_weights
from dwac_kit.linalg import make_rng
from dwac_kit.network import DWAC, SOFTMAX, EmbeddingModel, MlpSpec
from dwac_kit.trainer import predict
from helpers import (
    CPU_COUNTS,
    agreement_oracle,
    class_weights,
    decode_lines,
    explain,
    explain_rows_oracle,
    kernel_matrix,
    total_weights,
    use_cpus,
)


def identity_model(d: int) -> EmbeddingModel:
    """Single linear layer with identity weights: embedding == input."""
    return EmbeddingModel(
        spec=MlpSpec(layer_sizes=(d, d)),
        weights=[np.eye(d)],
        biases=[np.zeros(d)],
        head=DWAC,
    )


def identity_head(train: EmbeddedTrainingSet) -> Predictor:
    """A dwac head of the identity model at sigma 0.5 over ``train``."""
    return Predictor(identity_model(train.h.shape[1]), 0.5, train, {})


def train_set_with_weights(weights, labels, num_classes):
    """Place training points so a query at the origin sees exactly the given
    kernel weights: distance sqrt(-ln w) along separate axes."""
    t = len(weights)
    h = np.zeros((t, t))
    for i, w in enumerate(weights):
        h[i, i] = np.sqrt(-np.log(w))
    return EmbeddedTrainingSet(h=h, labels=np.array(labels, dtype=np.int64),
                               num_classes=num_classes), np.zeros(t)


def test_entries_sorted_with_weight_values():
    train, query = train_set_with_weights([0.9, 0.5, 0.1], [0, 0, 1], 2)
    exp = explain(query, identity_model(3), train)
    weights = [e["weight"] for e in exp["entries"]]
    assert weights == sorted(weights, reverse=True)
    # relative to the nearest instance's, which weighs exactly 1.0
    assert weights[0] == 1.0 and np.allclose(weights, [1.0, 0.5 / 0.9, 0.1 / 0.9])
    assert [e["index"] for e in exp["entries"]] == [0, 1, 2]
    assert abs(total_weights(query[None, :], identity_model(3), train)[0] - 1.5 / 0.9) < 1e-12


def test_tie_broken_by_ascending_index():
    # two identical training points: equal weights, index order must win;
    # the nearest point, at d^2 = 0.5, weighs 1.0 and the pair exp(-0.5)
    h = np.array([[1.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
    train = EmbeddedTrainingSet(h=h, labels=np.array([0, 1, 0]), num_classes=2)
    exp = explain(np.zeros(2), identity_model(2), train)
    tied = [e["index"] for e in exp["entries"] if abs(e["weight"] - np.exp(-0.5)) < 1e-12]
    assert tied == [0, 2]


def test_decisive_prefix_certifies_immediately_when_margin_large():
    # first entry alone outweighs everything else: 0.9 > 0.5 + 0.1
    train, query = train_set_with_weights([0.9, 0.5, 0.1], [0, 0, 1], 2)
    exp = explain(query, identity_model(3), train)
    assert exp["decisive_prefix"] == 1
    assert exp["predicted_label"] == 0


def test_decisive_prefix_waits_for_full_list():
    # 0.5 - 0 <= 0.75; (0.5 - 0.45) <= 0.3; only the full list certifies
    train, query = train_set_with_weights([0.5, 0.45, 0.3], [0, 1, 0], 2)
    exp = explain(query, identity_model(3), train)
    assert exp["decisive_prefix"] == 3


def test_decisive_prefix_single_instance():
    train, query = train_set_with_weights([0.8], [0], 2)
    exp = explain(query, identity_model(1), train)
    assert exp["decisive_prefix"] == 1


def test_decisive_prefix_zero_when_truncation_hides_too_much():
    # top-1 of an even three-way split cannot certify anything
    train, query = train_set_with_weights([0.5, 0.5, 0.5], [0, 1, 0], 2)
    exp = explain(query, identity_model(3), train, k=1)
    assert exp["decisive_prefix"] == 0
    assert len(exp["entries"]) == 1


def test_adversarial_relabeling_never_flips_certified_predictions(dwac_run):
    result, _, _, test = dwac_run
    train = result.embedded
    x = test.x[:50]
    explanations, _ = explain_with_agreement(x, result, k=len(train), k_list=())
    certified = 0
    for exp, total in zip(decode_lines(explanations), total_weights(x, result.model, train)):
        j = exp["decisive_prefix"]
        if j == 0:
            continue
        certified += 1
        prefix = np.zeros(train.num_classes)
        for e in exp["entries"][:j]:
            prefix[e["label"]] += e["weight"]
        remaining = total - np.cumsum([e["weight"] for e in exp["entries"]])[j - 1]
        for k in range(train.num_classes):
            if k == exp["predicted_label"]:
                continue
            hostile = prefix.copy()
            hostile[k] += remaining  # worst case: entire tail votes for k
            assert np.argmax(hostile) == exp["predicted_label"]
    assert certified > 0


def test_complete_explanation_reconstructs_probabilities(dwac_run):
    result, _, _, test = dwac_run
    train = result.embedded
    x = test.x[:20]
    preds = predict(result, x)
    explanations, _ = explain_with_agreement(x, result, k=len(train), k_list=())
    for i, (exp, total) in enumerate(zip(decode_lines(explanations),
                                         total_weights(x, result.model, train))):
        masses = class_weights(exp, train.num_classes)
        assert abs(masses.sum() - total) < 1e-9
        if total > 0:
            assert np.max(np.abs(masses / masses.sum() - preds.probs[i])) < 1e-12
        assert exp["predicted_label"] == preds.predicted[i]


def test_top_k_is_prefix_of_full_ranking(dwac_run):
    result, _, _, test = dwac_run
    train = result.embedded
    full = explain(test.x[:1], result.model, train)
    top = explain(test.x[:1], result.model, train, k=7)
    assert len(top["entries"]) == 7
    assert top["entries"] == full["entries"][:7]


def test_explanations_across_row_blocks_keep_global_query_ids():
    # t = 20,000 gives blocks of 5 or 6 rows, so 250 queries span 42 of them
    rng = make_rng(22)
    train = EmbeddedTrainingSet(h=rng.standard_normal((20_000, 2)),
                                labels=rng.integers(0, 2, size=20_000), num_classes=2)
    x = rng.standard_normal((250, 2))
    explanations = decode_lines(explain_with_agreement(x, identity_head(train), k=3,
                                                       k_list=())[0])
    assert [e["query_id"] for e in explanations] == list(range(250))
    for i in (0, 103, 104, 249):
        # the same query explained alone, in a block of its own
        alone = explain(x[i], identity_model(2), train, k=3)
        entries = explanations[i]["entries"]
        assert [e["index"] for e in entries] == [e["index"] for e in alone["entries"]]
        assert np.allclose(np.cumsum([e["weight"] for e in entries]),
                           np.cumsum([e["weight"] for e in alone["entries"]]),
                           rtol=1e-12, atol=0.0)


def test_query_equal_to_training_point_ranks_first(dwac_run):
    result, proper, _, _ = dwac_run
    train = result.embedded
    exp = explain(proper.x[5:6], result.model, train, k=3)
    assert exp["entries"][0]["index"] == 5
    assert abs(exp["entries"][0]["weight"] - 1.0) < 1e-12


def test_far_query_lists_its_nearest_row_first_with_weight_one():
    # every unshifted weight of these queries underflows to 0.0
    rng = make_rng(37)
    h = rng.standard_normal((300, 3))
    train = EmbeddedTrainingSet(h=h, labels=rng.integers(0, 3, size=300), num_classes=3)
    x = rng.standard_normal((8, 3)) * 500.0
    assert np.all(kernel_weights(x, h) == 0.0)
    explanations, _ = explain_with_agreement(x, identity_head(train), k=5, k_list=())
    nearest = np.argmin(((x[:, None, :] - h[None, :, :]) ** 2).sum(axis=2), axis=1)
    for exp, j in zip(decode_lines(explanations), nearest.tolist()):
        assert exp["entries"][0]["index"] == j and exp["entries"][0]["weight"] == 1.0
        assert exp["predicted_label"] == train.labels[j] and exp["decisive_prefix"] == 1


def test_explain_validation(dwac_run):
    result, *_ = dwac_run
    train = result.embedded
    d = result.model.spec.input_dim
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        explain(np.zeros(d), result.model, train, k=0)
    empty = EmbeddedTrainingSet(h=np.zeros((0, train.h.shape[1])),
                                labels=np.zeros(0, dtype=np.int64), num_classes=2)
    with pytest.raises(ValueError):
        explain(np.zeros(d), result.model, empty)
    softmax_model = EmbeddingModel(
        spec=result.model.spec, weights=result.model.weights,
        biases=result.model.biases, head=SOFTMAX,
    )
    with pytest.raises(ValueError):
        explain(np.zeros(d), softmax_model, train)


def test_agreement_exact_at_full_size(dwac_run):
    result, _, _, test = dwac_run
    t = len(result.embedded)
    _, table = explain_with_agreement(test.x, result, k=1, k_list=(t, t + 50))
    assert table == [(t, 1.0), (t + 50, 1.0)]


def test_agreement_values_bounded(dwac_run):
    result, _, _, test = dwac_run
    _, table = explain_with_agreement(test.x, result, k=1, k_list=(1, 5, 10))
    for k, frac in table:
        assert 0.0 <= frac <= 1.0
    with pytest.raises(ValueError):
        explain_with_agreement(test.x, result, k=1, k_list=(0,))


def test_agreement_matches_full_ranking_oracle_with_tied_weights():
    # Points on a small integer grid, each position held several times under
    # different labels: many weights tie exactly, also across the k boundary.
    rng = make_rng(21)
    t, c = 90, 3
    h = rng.integers(-2, 3, size=(t, 2)).astype(np.float64)
    train = EmbeddedTrainingSet(h=h, labels=rng.integers(0, c, size=t), num_classes=c)
    queries = rng.integers(-3, 4, size=(40, 2)).astype(np.float64)
    weights = kernel_weights(queries, h)
    for k_list in ((1, 4, 7, 12), (1, 20, t - 1, t, t + 50)):
        expected = agreement_oracle(weights, train.labels, c, k_list)
        _, table = explain_with_agreement(queries, identity_head(train), k=1, k_list=k_list)
        assert table == expected
    assert 0.0 < dict(expected)[1] < 1.0


def test_restricted_argmax_matches_manual_check():
    # hand-checkable: nearest neighbor disagrees with the full vote
    train, query = train_set_with_weights([0.6, 0.55, 0.5], [1, 0, 0], 2)
    _, table = explain_with_agreement(query[None, :], identity_head(train), k=1, k_list=(1, 3))
    table = dict(table)
    assert table[1] == 0.0  # top instance says class 1, full vote says 0
    assert table[3] == 1.0


def test_explanations_and_agreement_do_not_depend_on_the_block_size(monkeypatch):
    # Grid points held several times under different labels, so many weights
    # tie exactly; the 0.37 spacing makes the products round. 2**10 and 2**12
    # give one-row blocks at t = 3,003, 2**40 a single block; t is no multiple
    # of 8, so BLAS would meet a partial tile of columns.
    rng = make_rng(23)
    t, c = 3_003, 3
    h = 0.37 * rng.integers(-3, 4, size=(t, 2))
    train = EmbeddedTrainingSet(h=h, labels=rng.integers(0, c, size=t), num_classes=c)
    x = 0.37 * rng.integers(-4, 5, size=(60, 2))
    runs = []
    for entries in (1 << 10, 1 << 12, 1 << 13, 1 << 15, 1 << 40):
        monkeypatch.setattr(heads, "BLOCK_ENTRIES", entries)
        explanations, table = explain_with_agreement(
            x, identity_head(train), k=25, k_list=(1, 4, 30, 200, t))
        totals = heads.kernel_blocks(x, train, None)[0].sum(axis=1).tolist()
        runs.append((explanations, table, totals))
    assert all(run == runs[0] for run in runs[1:])
    # entries are each row's heaviest weights by weight, then training index
    weights = np.empty((60, t))
    weights[:, train.order] = kernel_matrix(x, train)
    absolute = kernel_weights(x, h)
    assert np.allclose(weights, absolute / absolute.max(axis=1, keepdims=True),
                       rtol=1e-12, atol=0.0)
    for i, doc in enumerate(decode_lines(runs[0][0])):
        ranked = sorted(range(t), key=lambda j: (-weights[i, j], j))[:25]
        assert [e["index"] for e in doc["entries"]] == ranked
        assert [e["weight"] for e in doc["entries"]] == list(weights[i, ranked])
    assert runs[0][1] == agreement_oracle(weights, train.labels, c, (1, 4, 30, 200, t))


def test_explanations_and_agreement_do_not_depend_on_the_thread_count(monkeypatch):
    # tied grid weights as above; 7-row blocks give 9 blocks for 60 queries, and
    # k_list holds k values at and beyond t
    rng = make_rng(29)
    t, c = 1_001, 3
    h = 0.37 * rng.integers(-3, 4, size=(t, 2))
    train = EmbeddedTrainingSet(h=h, labels=rng.integers(0, c, size=t), num_classes=c)
    x = 0.37 * rng.integers(-4, 5, size=(60, 2))
    monkeypatch.setattr(heads, "BLOCK_ENTRIES", 7 * t)
    runs = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave inside visit, where they share lists
    try:
        for n in CPU_COUNTS:
            use_cpus(monkeypatch, n)
            for k in (t, 3):
                explanations, table = explain_with_agreement(
                    x, identity_head(train), k=k, k_list=(1, 4, 30, t, t + 5))
                totals = heads.kernel_blocks(x, train, None)[0].sum(axis=1).tolist()
                runs.append((k, table, explanations, totals))
    finally:
        sys.setswitchinterval(switch)
    first = decode_lines(runs[0][2])
    assert [e["query_id"] for e in first] == list(range(60))
    assert len(first[0]["entries"]) == t
    for i, run in enumerate(runs[2:]):
        assert run == runs[i % 2]


def _grid_ties():
    # 49 distinct grid points, each held about 60 times under mixed labels: the
    # pivots of k = 25 and of the agreement depth 200 fall inside runs of ties
    rng = make_rng(31)
    h = 0.37 * rng.integers(-3, 4, size=(3_003, 2))
    train = EmbeddedTrainingSet(h=h, labels=rng.integers(0, 3, size=3_003), num_classes=3)
    return train, 0.37 * rng.integers(-4, 5, size=(40, 2)), 25, (1, 4, 30, 200)


def _mostly_zero():
    # points along [0, 60]; queries 140 to 170 beyond either end keep fewer
    # than 100 weights, relative to their nearest point's, above the
    # underflow to 0.0, so the depth-100 pivot is 0.0 and nearly every
    # weight ties there
    rng = make_rng(32)
    h = np.column_stack([np.linspace(0.0, 60.0, 2_000), 0.1 * rng.standard_normal(2_000)])
    train = EmbeddedTrainingSet(h=h, labels=rng.integers(0, 3, size=2_000), num_classes=3)
    side = rng.uniform(140.0, 170.0, size=40)
    x = np.column_stack([np.where(np.arange(40) % 2, -side, 60.0 + side), np.zeros(40)])
    return train, x, 10, (1, 5, 100)


def _random_train(seed, t, c):
    rng = make_rng(seed)
    h = 0.5 * rng.integers(-4, 5, size=(t, 2)) + 0.01 * rng.standard_normal((t, 2))
    train = EmbeddedTrainingSet(h=h, labels=rng.integers(0, c, size=t), num_classes=c)
    return train, rng.standard_normal((40, 2))


RANKING_CASES = {
    "ties at the pivot": _grid_ties,
    "weights mostly 0.0": _mostly_zero,
    "k at t": lambda: (*_random_train(33, 300, 3), 300, (1, 5, 299, 300, 301)),
    "k at or above t": lambda: (*_random_train(34, 200, 3), 250, (1, 3)),
    "k_list at or above t": lambda: (*_random_train(35, 500, 4), 5, (1, 10, 499, 500, 600)),
    "one class": lambda: (*_random_train(36, 400, 1), 10, (1, 5)),
}


@pytest.mark.parametrize("cpus", (1, 2, 3))
@pytest.mark.parametrize("case", RANKING_CASES)
def test_block_ranking_equals_the_per_row_oracle(monkeypatch, case, cpus):
    # 4-row blocks: ten blocks for 40 queries, so every thread ranks several
    train, x, k, k_list = RANKING_CASES[case]()
    monkeypatch.setattr(heads, "BLOCK_ENTRIES", 4 * len(train))
    use_cpus(monkeypatch, cpus)
    explanations, table = explain_with_agreement(x, identity_head(train), k=k,
                                                 k_list=k_list)
    docs, expected = explain_rows_oracle(kernel_matrix(x, train),
                                         heads.kernel_blocks(x, train, None)[0], train, k, k_list)
    assert decode_lines(explanations) == docs
    assert table == expected


@pytest.mark.parametrize("case", RANKING_CASES)
def test_pivots_of_a_few_rows_at_a_time_equal_the_per_row_oracle(monkeypatch, case):
    # 3-row groups of 4-row blocks: a block's pivots come from a 3-row and a
    # 1-row partition
    train, x, k, k_list = RANKING_CASES[case]()
    monkeypatch.setattr(heads, "BLOCK_ENTRIES", 4 * len(train))
    monkeypatch.setattr(explain_module, "PIVOT_ENTRIES", 3 * len(train))
    explanations, table = explain_with_agreement(x, identity_head(train), k=k,
                                                 k_list=k_list)
    docs, expected = explain_rows_oracle(kernel_matrix(x, train),
                                         heads.kernel_blocks(x, train, None)[0], train, k, k_list)
    assert decode_lines(explanations) == docs
    assert table == expected


def test_ranking_cases_reach_what_they_name():
    train, x, k, _ = _grid_ties()
    w = np.sort(kernel_matrix(x, train), axis=1)[:, ::-1]
    assert np.all(w[:, k - 1] == w[:, k]) and np.count_nonzero(w[:, 199] == w[:, 200]) > 30
    train, x, _, _ = _mostly_zero()
    w = kernel_matrix(x, train)
    nonzero = np.count_nonzero(w, axis=1)
    assert np.all(w.max(axis=1) == 1.0) and 10 < nonzero.min() and nonzero.max() < 100
