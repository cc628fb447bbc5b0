import math

import numpy as np
import pytest

from mammocad.metrics import (
    ConfusionCounts,
    compute_metrics,
    confusion,
    dice,
    roc_auc,
)


def test_confusion_all_correct_positives():
    c = confusion([(True, True)] * 5)
    assert (c.tp, c.fp, c.tn, c.fn) == (5, 0, 0, 0)


def test_confusion_empty_rejected():
    with pytest.raises(ValueError):
        confusion([])


def test_confusion_matches_tally_oracle():
    rng = np.random.default_rng(5)
    preds = [(bool(p), bool(t)) for p, t in rng.integers(0, 2, size=(200, 2))]
    c = confusion(preds)
    assert c.tp == sum(1 for p, t in preds if p and t)
    assert c.fp == sum(1 for p, t in preds if p and not t)
    assert c.fn == sum(1 for p, t in preds if not p and t)
    assert c.tn == sum(1 for p, t in preds if not p and not t)


def test_reported_f_measure_value():
    # precision 0.9288, recall 0.7786 combine to 0.8471
    f = 2 * 0.7786 * 0.9288 / (0.7786 + 0.9288)
    assert abs(f - 0.8471) < 1e-4


def test_reported_g_mean_value():
    assert abs(math.sqrt(0.7786 * 0.7876) - 0.78) < 5e-3


def test_symmetric_counts_give_half():
    r = compute_metrics(ConfusionCounts(tp=4, fn=4, tn=6, fp=6))
    assert r.sensitivity == 0.5
    assert r.specificity == 0.5


def test_zero_denominator_reported_as_undefined():
    r = compute_metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=5))
    assert r.precision is None
    assert r.sensitivity == 0.0
    assert r.f_measure is None


def test_all_zero_counts_rejected():
    with pytest.raises(ValueError):
        compute_metrics(ConfusionCounts(0, 0, 0, 0))


def test_recall_equals_sensitivity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        tp, fp, tn, fn = rng.integers(0, 40, size=4)
        if tp + fp + tn + fn == 0:
            continue
        r = compute_metrics(ConfusionCounts(int(tp), int(fp), int(tn), int(fn)))
        assert r.recall == r.sensitivity


def test_f_measure_between_precision_and_recall():
    rng = np.random.default_rng(13)
    for _ in range(200):
        tp, fp, tn, fn = (int(x) for x in rng.integers(0, 30, size=4))
        if tp + fp + tn + fn == 0:
            continue
        r = compute_metrics(ConfusionCounts(tp, fp, tn, fn))
        if r.f_measure is not None:
            assert min(r.precision, r.recall) - 1e-12 <= r.f_measure
            assert r.f_measure <= max(r.precision, r.recall) + 1e-12


def test_report_serializes_to_json():
    r = compute_metrics(ConfusionCounts(tp=1, fp=0, tn=1, fn=0))
    text = r.to_json()
    assert '"accuracy": 1.0' in text
    assert '"auc": null' in text


def test_roc_perfect_separation():
    scored = [(0.9, True), (0.8, True), (0.2, False), (0.1, False)]
    assert roc_auc(scored) == 1.0


def test_roc_constant_scores():
    # one threshold takes both pairs: a single diagonal step
    assert roc_auc([(0.5, True), (0.5, False)]) == 0.5


def test_roc_reversed_scores_auc_zero():
    scored = [(0.1, True), (0.2, True), (0.8, False), (0.9, False)]
    assert roc_auc(scored) == 0.0


def test_roc_single_class_rejected():
    with pytest.raises(ValueError):
        roc_auc([(0.3, True), (0.7, True)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_roc_rejects_a_non_finite_score(bad):
    with pytest.raises(ValueError, match="each with a finite score"):
        roc_auc([(0.3, True), (bad, False), (0.7, False)])


def test_roc_monotone_and_matches_brute_force():
    # every threshold's (fpr, tpr) counted afresh, highest threshold first,
    # and the trapezoids added in that order: the sweep must give the
    # same float, not only a close one
    rng = np.random.default_rng(21)
    for i in range(40):
        scores = rng.random(30)
        if i % 2:
            scores = np.round(scores, 1)  # rounding forces ties
        truths = rng.random(30) < 0.4
        if truths.all() or not truths.any():
            continue
        n_pos, n_neg = truths.sum(), (~truths).sum()
        points = [(0.0, 0.0)]
        for thr in np.unique(scores)[::-1]:
            points.append((((scores >= thr) & ~truths).sum() / n_neg,
                           ((scores >= thr) & truths).sum() / n_pos))
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert xs == sorted(xs) and ys == sorted(ys) and points[-1] == (1.0, 1.0)
        area = 0.0
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            area += (x1 - x0) * (y0 + y1) / 2.0
        assert roc_auc(zip(scores, truths)) == area


def test_auc_equals_mann_whitney():
    rng = np.random.default_rng(33)
    for _ in range(20):
        scores = np.round(rng.random(40), 2)  # rounding forces ties
        truths = rng.random(40) < 0.5
        if truths.all() or not truths.any():
            continue
        a = roc_auc(zip(scores, truths))
        pos = scores[truths]
        neg = scores[~truths]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        assert abs(a - wins / (len(pos) * len(neg))) < 1e-9


def test_dice_extremes():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    assert dice(a, b) == 1.0
    a[1, 1] = True
    assert dice(a, b) == 0.0
    b[1, 1] = True
    assert dice(a, b) == 1.0
