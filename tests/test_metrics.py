import math

import numpy as np
import pytest

from mammocad.metrics import (
    ConfusionCounts,
    auc,
    compute_metrics,
    confusion,
    dice,
    roc_auc,
    roc_curve,
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
    curve = roc_curve(scored)
    assert (0.0, 1.0) in curve
    assert auc(curve) == 1.0


def test_roc_constant_scores():
    curve = roc_curve([(0.5, True), (0.5, False)])
    assert curve == [(0.0, 0.0), (1.0, 1.0)]
    assert auc(curve) == 0.5


def test_roc_reversed_scores_auc_zero():
    scored = [(0.1, True), (0.2, True), (0.8, False), (0.9, False)]
    assert roc_auc(scored) == 0.0


def test_roc_single_class_rejected():
    with pytest.raises(ValueError):
        roc_curve([(0.3, True), (0.7, True)])


def test_roc_ends_at_one_one_from_its_lowest_threshold():
    # the (1, 1) point is the lowest score's, not an appended sentinel
    rng = np.random.default_rng(22)
    for _ in range(20):
        scores = np.round(rng.random(25), 1)  # rounding forces ties
        truths = np.arange(25) % 3 == 0
        curve = roc_curve(zip(scores, truths))
        assert len(curve) == 1 + len(np.unique(scores))
        assert curve[-1] == (1.0, 1.0) and curve.count((1.0, 1.0)) == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_roc_rejects_a_non_finite_score(bad):
    with pytest.raises(ValueError, match="each with a finite score"):
        roc_curve([(0.3, True), (bad, False), (0.7, False)])


def test_roc_monotone_and_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(20):
        scores = rng.random(30)
        truths = rng.random(30) < 0.4
        if truths.all() or not truths.any():
            continue
        curve = roc_curve(zip(scores, truths))
        xs = [p[0] for p in curve]
        ys = [p[1] for p in curve]
        assert xs == sorted(xs) and ys == sorted(ys)
        n_pos, n_neg = truths.sum(), (~truths).sum()
        for thr in np.unique(scores):
            fpr = ((scores >= thr) & ~truths).sum() / n_neg
            tpr = ((scores >= thr) & truths).sum() / n_pos
            assert (fpr, tpr) in curve


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
