"""Classification quality measures and the area under the ROC curve.

The abnormal class is the positive class throughout. Ratio metrics
with a zero denominator are reported as None (undefined) rather than
silently collapsing to 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricReport:
    """Scalar quality measures; None marks a zero-denominator metric."""

    accuracy: float | None
    sensitivity: float | None
    specificity: float | None
    precision: float | None
    recall: float | None
    f_measure: float | None
    g_mean: float | None
    auc: float | None = None

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def confusion(predictions) -> ConfusionCounts:
    """Tally (predicted_abnormal, truly_abnormal) pairs into counts."""
    preds = list(predictions)
    if not preds:
        raise ValueError("cannot build a confusion matrix from zero predictions")
    tp = fp = tn = fn = 0
    for label, truth in preds:
        if label and truth:
            tp += 1
        elif label and not truth:
            fp += 1
        elif not label and truth:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def _ratio(num, den):
    return num / den if den > 0 else None


def f_measure(precision: float, recall: float) -> float | None:
    """Harmonic mean of precision and recall."""
    if precision is None or recall is None or precision + recall == 0:
        return None
    return 2.0 * recall * precision / (recall + precision)


def g_mean(sensitivity: float, specificity: float) -> float | None:
    """Geometric mean of the per-class recognition rates."""
    if sensitivity is None or specificity is None:
        return None
    return math.sqrt(sensitivity * specificity)


def compute_metrics(c: ConfusionCounts) -> MetricReport:
    """Accuracy, sensitivity/recall, specificity, precision, F and g-mean."""
    if c.total == 0:
        raise ValueError("all confusion counts are zero")
    se = _ratio(c.tp, c.tp + c.fn)
    sp = _ratio(c.tn, c.tn + c.fp)
    pr = _ratio(c.tp, c.tp + c.fp)
    return MetricReport(
        accuracy=_ratio(c.tp + c.tn, c.total),
        sensitivity=se,
        specificity=sp,
        precision=pr,
        recall=se,
        f_measure=f_measure(pr, se),
        g_mean=g_mean(se, sp),
    )


def roc_auc(scored) -> float:
    """Trapezoidal area under the ROC curve of (score, truth) pairs, where
    a score >= the threshold is positive. The sorted pairs are swept once,
    highest score first, adding one trapezoid per distinct score from
    (0, 0) to (1, 1), so tied scores form one step (Fawcett, 2006)."""
    pairs = sorted(((float(s), bool(t)) for s, t in scored), reverse=True)
    if not pairs or not all(math.isfinite(s) for s, _ in pairs):
        raise ValueError("a ROC curve needs at least one prediction, each with a finite score")
    n_pos = sum(1 for _, t in pairs if t)
    n_neg = len(pairs) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs at least one positive and one negative truth")
    area = fpr = tpr = 0.0
    tp = fp = 0
    for i, (score, truth) in enumerate(pairs):
        tp += truth
        fp += not truth
        if i + 1 < len(pairs) and pairs[i + 1][0] == score:
            continue    # the threshold takes every pair with this score
        x, y = fp / n_neg, tp / n_pos
        area += (x - fpr) * (tpr + y) / 2.0
        fpr, tpr = x, y
    return area


def dice(a, b) -> float:
    """Overlap score 2|A∩B| / (|A|+|B|); 1.0 when both masks are empty."""
    am = np.asarray(a, dtype=bool)
    bm = np.asarray(b, dtype=bool)
    if am.shape != bm.shape:
        raise ValueError("mask dimensions differ")
    denom = int(am.sum()) + int(bm.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((am & bm).sum()) / denom
