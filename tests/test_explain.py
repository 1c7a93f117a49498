from __future__ import annotations

import sys

import numpy as np
import pytest

from dwac_kit import heads
from dwac_kit.explain import agreement_at_k, explain_many, explain_with_agreement
from dwac_kit.data import Dataset
from dwac_kit.heads import EmbeddedTrainingSet, kernel_weights
from dwac_kit.linalg import make_rng
from dwac_kit.network import DWAC, SOFTMAX, EmbeddingModel, MlpSpec
from dwac_kit.trainer import predict
from helpers import (
    CPU_COUNTS,
    agreement_oracle,
    class_weights,
    explain,
    kernel_matrix,
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
    weights = [e.weight for e in exp.entries]
    assert weights == sorted(weights, reverse=True)
    assert np.allclose(weights, [0.9, 0.5, 0.1])
    assert [e.index for e in exp.entries] == [0, 1, 2]
    assert np.allclose(exp.cumulative_weight, np.cumsum(weights))
    assert abs(exp.total_weight - 1.5) < 1e-12


def test_tie_broken_by_ascending_index():
    # two identical training points: equal weights, index order must win
    h = np.array([[1.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
    train = EmbeddedTrainingSet(h=h, labels=np.array([0, 1, 0]), num_classes=2)
    exp = explain(np.zeros(2), identity_model(2), train)
    tied = [e.index for e in exp.entries if abs(e.weight - np.exp(-1.0)) < 1e-12]
    assert tied == [0, 2]


def test_decisive_prefix_certifies_immediately_when_margin_large():
    # first entry alone outweighs everything else: 0.9 > 0.5 + 0.1
    train, query = train_set_with_weights([0.9, 0.5, 0.1], [0, 0, 1], 2)
    exp = explain(query, identity_model(3), train)
    assert exp.decisive_prefix == 1
    assert exp.predicted_label == 0


def test_decisive_prefix_waits_for_full_list():
    # 0.5 - 0 <= 0.75; (0.5 - 0.45) <= 0.3; only the full list certifies
    train, query = train_set_with_weights([0.5, 0.45, 0.3], [0, 1, 0], 2)
    exp = explain(query, identity_model(3), train)
    assert exp.decisive_prefix == 3


def test_decisive_prefix_single_instance():
    train, query = train_set_with_weights([0.8], [0], 2)
    exp = explain(query, identity_model(1), train)
    assert exp.decisive_prefix == 1


def test_decisive_prefix_zero_when_truncation_hides_too_much():
    # top-1 of an even three-way split cannot certify anything
    train, query = train_set_with_weights([0.5, 0.5, 0.5], [0, 1, 0], 2)
    exp = explain(query, identity_model(3), train, k=1)
    assert exp.decisive_prefix == 0
    assert len(exp.entries) == 1


def test_adversarial_relabeling_never_flips_certified_predictions(dwac_run):
    result, _, _, test = dwac_run
    train = result.embedded
    explanations = explain_many(test.x[:50], result.model, train)
    certified = 0
    for exp in explanations:
        j = exp.decisive_prefix
        if j == 0:
            continue
        certified += 1
        prefix = np.zeros(train.num_classes)
        for e in exp.entries[:j]:
            prefix[e.label] += e.weight
        remaining = exp.total_weight - exp.cumulative_weight[j - 1]
        for k in range(train.num_classes):
            if k == exp.predicted_label:
                continue
            hostile = prefix.copy()
            hostile[k] += remaining  # worst case: entire tail votes for k
            assert np.argmax(hostile) == exp.predicted_label
    assert certified > 0


def test_complete_explanation_reconstructs_probabilities(dwac_run):
    result, _, _, test = dwac_run
    train = result.embedded
    preds = predict(result.model, test.x[:20], train=train)
    for i, exp in enumerate(explain_many(test.x[:20], result.model, train)):
        masses = class_weights(exp, train.num_classes)
        assert abs(masses.sum() - exp.total_weight) < 1e-9
        if exp.total_weight > 0:
            assert np.max(np.abs(masses / masses.sum() - preds.probs[i])) < 1e-12
        assert exp.predicted_label == preds.predicted[i]


def test_top_k_is_prefix_of_full_ranking(dwac_run):
    result, _, _, test = dwac_run
    train = result.embedded
    full = explain(test.x[0], result.model, train)
    top = explain(test.x[0], result.model, train, k=7)
    assert len(top.entries) == 7
    assert [e.index for e in top.entries] == [e.index for e in full.entries[:7]]
    assert top.total_weight == full.total_weight


def test_explanations_across_row_blocks_keep_global_query_ids():
    # t = 20,000 gives blocks of 5 or 6 rows, so 250 queries span 42 of them
    rng = make_rng(22)
    train = EmbeddedTrainingSet(h=rng.standard_normal((20_000, 2)),
                                labels=rng.integers(0, 2, size=20_000), num_classes=2)
    x = rng.standard_normal((250, 2))
    explanations = explain_many(x, identity_model(2), train, k=3)
    assert [e.query_id for e in explanations] == list(range(250))
    for i in (0, 103, 104, 249):
        # the same query explained alone, in a block of its own
        alone = explain(x[i], identity_model(2), train, k=3)
        assert [e.index for e in explanations[i].entries] == [e.index for e in alone.entries]
        assert np.allclose(explanations[i].cumulative_weight, alone.cumulative_weight,
                           rtol=1e-12, atol=0.0)


def test_query_equal_to_training_point_ranks_first(dwac_run):
    result, proper, _, _ = dwac_run
    train = result.embedded
    exp = explain(proper.x[5], result.model, train, k=3)
    assert exp.entries[0].index == 5
    assert abs(exp.entries[0].weight - 1.0) < 1e-12


def test_explain_validation(dwac_run):
    result, *_ = dwac_run
    train = result.embedded
    d = result.model.spec.input_dim
    with pytest.raises(ValueError):
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
    table = agreement_at_k(result.model, result.embedded, test, (t, t + 50))
    assert table == [(t, 1.0), (t + 50, 1.0)]


def test_agreement_values_bounded(dwac_run):
    result, _, _, test = dwac_run
    table = agreement_at_k(result.model, result.embedded, test, (1, 5, 10))
    for k, frac in table:
        assert 0.0 <= frac <= 1.0
    with pytest.raises(ValueError):
        agreement_at_k(result.model, result.embedded, test, (0,))


def test_agreement_matches_full_ranking_oracle_with_tied_weights():
    # Points on a small integer grid, each position held several times under
    # different labels: many weights tie exactly, also across the k boundary.
    rng = make_rng(21)
    t, c = 90, 3
    h = rng.integers(-2, 3, size=(t, 2)).astype(np.float64)
    train = EmbeddedTrainingSet(h=h, labels=rng.integers(0, c, size=t), num_classes=c)
    queries = rng.integers(-3, 4, size=(40, 2)).astype(np.float64)
    test = Dataset(x=queries, y=None, num_classes=c, feature_names=("a", "b"))
    weights = kernel_weights(queries, h)
    for k_list in ((1, 4, 7, 12), (1, 20, t - 1, t, t + 50)):
        expected = agreement_oracle(weights, train.labels, c, k_list)
        assert agreement_at_k(identity_model(2), train, test, k_list) == expected
    assert 0.0 < dict(expected)[1] < 1.0


def test_restricted_argmax_matches_manual_check():
    # hand-checkable: nearest neighbor disagrees with the full vote
    train, query = train_set_with_weights([0.6, 0.55, 0.5], [1, 0, 0], 2)
    model = identity_model(3)
    ds = Dataset(x=query[None, :], y=None, num_classes=2,
                 feature_names=("a", "b", "c"))
    table = dict(agreement_at_k(model, train, ds, (1, 3)))
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
            x, identity_model(2), train, k=25, k_list=(1, 4, 30, 200, t))
        runs.append(([(e.to_json_dict(), e.total_weight) for e in explanations], table))
    assert all(run == runs[0] for run in runs[1:])
    # entries are each row's heaviest weights by weight, then training index
    weights = np.empty((60, t))
    weights[:, train.order] = kernel_matrix(x, train)
    assert np.allclose(weights, kernel_weights(x, h), rtol=1e-12, atol=0.0)
    for i, (doc, _) in enumerate(runs[0][0]):
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
            for k in (None, 3):
                explanations, table = explain_with_agreement(
                    x, identity_model(2), train, k=k, k_list=(1, 4, 30, t, t + 5))
                runs.append((k, table, [(e.to_json_dict(), e.total_weight,
                                         e.cumulative_weight.tolist()) for e in explanations]))
    finally:
        sys.setswitchinterval(switch)
    assert [e["query_id"] for e, _, _ in runs[0][2]] == list(range(60))
    assert len(runs[0][2][0][0]["entries"]) == t
    for i, run in enumerate(runs[2:]):
        assert run == runs[i % 2]
