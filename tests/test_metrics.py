import numpy as np
import pytest

from meganet.metrics import binary_metrics, evaluate_scores, pr_auc


def test_all_negative_predictions():
    m = binary_metrics(np.zeros(4, dtype=bool), np.array([0, 1, 1, 0]))
    assert m["f1"] == 0.0
    assert m["recall"] == 0.0


def test_perfect_predictions():
    labels = np.array([0, 1, 0, 1])
    m = binary_metrics(labels.astype(bool), labels)
    assert m["f1"] == 1.0
    scores = np.where(labels == 1, 5.0, -5.0)
    assert pr_auc(scores, labels) == pytest.approx(1.0)


def test_known_confusion_counts():
    pred = np.array([1, 1, 0, 0, 1], dtype=bool)
    labels = np.array([1, 0, 1, 0, 1])
    m = binary_metrics(pred, labels)
    assert (m["tp"], m["fp"], m["fn"]) == (2, 1, 1)
    assert m["precision"] == pytest.approx(2 / 3)
    assert m["recall"] == pytest.approx(2 / 3)
    assert m["f1"] == pytest.approx(2 / 3)


def test_pr_auc_no_positives():
    assert pr_auc(np.array([1.0, 2.0]), np.array([0, 0])) == 0.0


def test_pr_auc_random_scores_near_base_rate():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 20_000)
    scores = rng.normal(size=20_000)
    auc = pr_auc(scores, labels)
    assert abs(auc - labels.mean()) < 0.02


def test_evaluate_scores_thresholds_logits_at_zero():
    scores = np.array([-1.0, 0.5, 2.0, -0.1])
    labels = np.array([0, 1, 1, 0])
    out = evaluate_scores(scores, labels)
    assert out["f1"] == 1.0
    assert "pr_auc" in out


def test_pr_auc_tied_scores_form_one_threshold():
    """Items with equal scores are one threshold, whatever their order."""
    assert pr_auc(np.zeros(4), [1, 0, 0, 0]) == pytest.approx(0.25)
    assert pr_auc(np.zeros(4), [0, 0, 0, 1]) == pytest.approx(0.25)
    assert pr_auc([1, 1, 0, 0], [1, 0, 1, 0]) == pytest.approx(0.5)
    assert pr_auc([1, 1, 0, 0], [0, 1, 0, 1]) == pytest.approx(0.5)


def test_pr_auc_invariant_under_permutations_within_ties():
    # a few distinct float32 logits, as a saturated model gives
    rng = np.random.default_rng(0)
    scores = rng.choice(np.float32([-3.5, 0.25, 7.0]), 300)
    labels = rng.random(300) < 0.2
    want = pr_auc(scores, labels)
    for _ in range(10):
        perm = rng.permutation(300)
        assert pr_auc(scores[perm], labels[perm]) == want
