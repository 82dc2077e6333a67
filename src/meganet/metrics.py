"""Minority-class classification metrics."""

from __future__ import annotations

import numpy as np


def binary_metrics(pred, labels) -> dict:
    """Precision/recall/F1 for the positive (minority) class."""
    pred = np.asarray(pred).astype(bool)
    labels = np.asarray(labels).astype(bool)
    tp = int(np.sum(pred & labels))
    fp = int(np.sum(pred & ~labels))
    fn = int(np.sum(~pred & labels))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return {"f1": f1, "precision": precision, "recall": recall,
            "tp": tp, "fp": fp, "fn": fn}


def pr_auc(scores, labels) -> float:
    """Area under the precision-recall curve, trapezoidal over thresholds.

    Each distinct score is one threshold: items with equal scores are
    taken together, so their order does not change the area.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    positives = int(labels.sum())
    if positives == 0:
        return 0.0
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # the last item of each run of equal scores
    last = np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1],
                                    True))
    tp = np.cumsum(labels[order])[last]
    precision = tp / (last + 1)
    recall = tp / positives
    # start the curve at recall 0 with the first observed precision
    recall = np.concatenate([[0.0], recall])
    precision = np.concatenate([[precision[0]], precision])
    return float(np.trapezoid(precision, recall))


def evaluate_scores(scores, labels) -> dict:
    """Threshold logits at 0 and report the full metric set."""
    pred = np.asarray(scores) > 0.0
    out = binary_metrics(pred, labels)
    out["pr_auc"] = pr_auc(scores, labels)
    return out
