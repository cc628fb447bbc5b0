"""The output checks accept right answers and reject wrong ones."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402


def _smooth():
    w = np.array([0.7, -1.3, 2.1, 0.05])
    return w, lambda: float((w ** 3).sum() + np.sin(w).sum()), 3 * w ** 2 + np.cos(w)


def test_finite_differences_accept_the_true_gradient():
    w, loss, exact = _smooth()
    assert checks.gradient_problems(loss, {"w": (w, exact)}) == []


def test_finite_differences_reject_a_wrong_gradient():
    w, loss, exact = _smooth()
    off = exact.copy()
    off[2] *= 1.001                         # w[2] has the largest gradient
    assert checks.gradient_problems(loss, {"w": (w, off)})
    assert checks.gradient_problems(loss, {"w": (w, -exact)})
    assert checks.gradient_problems(loss, {"w": (w, 3 * w ** 2)})   # cos term dropped


def test_finite_differences_skip_kinks():
    # |w| has a kink at 0; the weight sitting on it has the largest
    # gradient but is skipped, and the next one decides
    w = np.array([0.0, 0.4, -0.2])
    slopes = np.array([5.0, 3.0, 1.0])

    def loss():
        return float((slopes * np.abs(w)).sum() + (w ** 2).sum())

    exact = slopes * np.sign(w) + 2 * w
    exact[0] = slopes[0]                    # one-sided value at the kink
    assert checks.gradient_problems(loss, {"w": (w, exact)}) == []
    wrong = exact.copy()
    wrong[1] *= 1.01
    assert checks.gradient_problems(loss, {"w": (w, wrong)})
    kinked = {"w": (w[:1], exact[:1])}
    assert "no smooth weight" in checks.gradient_problems(loss, kinked)[0]


def test_finite_differences_restore_the_weights():
    w, loss, exact = _smooth()
    before = w.copy()
    checks.gradient_problems(loss, {"w": (w, np.zeros_like(w))})
    np.testing.assert_array_equal(w, before)


def test_overlap_and_psnr():
    a = np.zeros((10, 10), dtype=bool)
    a[2:6, 2:6] = True
    b = np.zeros_like(a)
    b[2:6, 2:5] = True
    assert checks.dice(a, b) == 2 * 12 / (16 + 12)
    assert checks.overlap_problems("lesion", a, a) == ([], 1.0)
    assert checks.overlap_problems("lesion", a, ~a)[0]
    ref = np.full((4, 4), 0.5)
    assert abs(checks.psnr_db(ref + 0.1, ref) - 20.0) < 1e-9


def test_tag_check_counts_surviving_pixels():
    image = np.zeros((8, 8))
    tag = np.zeros((8, 8), dtype=bool)
    tag[1:3, 5:7] = True
    assert checks.tag_problems(image, tag) == []
    image[1, 5] = 0.9
    assert checks.tag_problems(image, tag)
