import numpy as np
import pytest

from mammocad.enhance import (
    DegenerateInputError,
    EnhanceConfig,
    median_filter,
    normalize,
    otsu_level,
    otsu_threshold,
    remove_artifacts,
    remove_pectoral,
)
from mammocad.metrics import dice


def brute_force_median(img, window):
    before = window // 2
    after = window - 1 - before
    padded = np.pad(img, ((before, after), (before, after)), mode="edge")
    out = np.empty_like(img)
    for r in range(img.shape[0]):
        for c in range(img.shape[1]):
            values = np.sort(padded[r:r + window, c:c + window].ravel())
            n = len(values)
            if n % 2:
                out[r, c] = values[n // 2]
            else:
                out[r, c] = (values[n // 2 - 1] + values[n // 2]) / 2.0
    return out


def test_median_constant_unchanged():
    img = np.full((9, 9), 0.4)
    np.testing.assert_array_equal(median_filter(img, 5), img)


def test_median_removes_impulse():
    img = np.full((7, 7), 0.2)
    img[3, 3] = 1.0
    out = median_filter(img, 3)
    assert out[3, 3] == 0.2


def test_median_even_window_matches_brute_force():
    rng = np.random.default_rng(17)
    img = rng.random((16, 16))
    np.testing.assert_array_equal(median_filter(img, 10), brute_force_median(img, 10))


def test_median_odd_window_matches_brute_force():
    rng = np.random.default_rng(18)
    img = rng.random((11, 13))
    np.testing.assert_array_equal(median_filter(img, 3), brute_force_median(img, 3))


@pytest.mark.parametrize("window", [2.5, 10.0, True, False, 0, -3, "10", None])
def test_median_window_must_be_a_positive_integer(window):
    with pytest.raises(ValueError, match="must be an integer of at least 1 pixel"):
        median_filter(np.zeros((4, 4)), window)
    with pytest.raises(ValueError, match="^enhance.median_window must be an integer"):
        EnhanceConfig(median_window=window)


def test_median_takes_a_numpy_integer_window():
    img = np.random.default_rng(19).random((6, 7))
    np.testing.assert_array_equal(median_filter(img, np.int64(4)), median_filter(img, 4))
    assert EnhanceConfig(median_window=np.int64(4)).median_window == 4


def test_normalize_endpoints_exact():
    rng = np.random.default_rng(15)
    for _ in range(20):
        img = rng.random((9, 9))
        out = normalize(img, 60, 210)
        assert out.min() == 60 / 255
        assert out.max() == 210 / 255


def test_normalize_midpoint():
    img = np.array([[0.2, 0.5, 0.8]])
    out = normalize(img, 60, 210)
    assert abs(out[0, 1] - 135 / 255) < 1e-12


def test_normalize_constant_rejected():
    with pytest.raises(DegenerateInputError):
        normalize(np.full((3, 3), 0.5), 60, 210)


@pytest.mark.parametrize("spread", [1e-16, 1e-9, 0.49 / 255])
def test_normalize_rejects_a_spread_under_half_a_gray_level(spread):
    img = np.full((4, 4), 7 / 255)
    img[1, 2] += spread
    with pytest.raises(DegenerateInputError, match="half an 8-bit gray level"):
        normalize(img, 60, 210)


def test_normalize_stretches_half_a_gray_level():
    img = np.array([[7 / 255, 7.5 / 255]])
    out = normalize(img, 60, 210)
    assert out[0, 0] == 60 / 255 and out[0, 1] == 210 / 255


def brute_force_otsu(hist):
    total = hist.sum()
    best_t, best_var = 0, -1.0
    for t in range(256):
        w0 = hist[:t + 1].sum()
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            var = 0.0
        else:
            mu0 = (hist[:t + 1] * np.arange(t + 1)).sum() / w0
            mu1 = (hist[t + 1:] * np.arange(t + 1, 256)).sum() / w1
            var = w0 * w1 * (mu0 - mu1) ** 2
        if var > best_var:
            best_var, best_t = var, t
    return best_t


def test_otsu_bi_valued_image():
    img = np.array([[0.2] * 6 + [0.8] * 4] * 3)
    t, mask = otsu_threshold(img)
    assert 51 <= t < 204
    assert mask.sum() == 12  # the bright population
    np.testing.assert_array_equal(mask, img > 0.5)


def test_otsu_constant_image():
    t, mask = otsu_threshold(np.full((4, 4), 0.25))
    assert t == 64  # round(0.25 * 255)
    assert not mask.any()


def test_otsu_matches_exhaustive_search():
    rng = np.random.default_rng(29)
    for _ in range(60):
        hist = rng.integers(0, 50, size=256).astype(float)
        if hist.sum() == 0 or np.count_nonzero(hist) < 2:
            continue
        assert otsu_level(hist) == brute_force_otsu(hist)


def test_remove_artifacts_drops_small_tag():
    img = np.zeros((30, 30))
    img[5:25, 2:18] = 0.6        # breast, 320 px
    img[2:5, 25:28] = 0.9        # tag, 9 px
    out = remove_artifacts(img)
    assert out[2:5, 25:28].sum() == 0.0
    np.testing.assert_array_equal(out[5:25, 2:18], img[5:25, 2:18])


def test_remove_artifacts_all_dark_noop():
    img = np.zeros((8, 8))
    np.testing.assert_array_equal(remove_artifacts(img), img)


def test_remove_artifacts_single_blob_kept():
    img = np.zeros((12, 12))
    img[3:9, 3:9] = 0.7
    out = remove_artifacts(img)
    np.testing.assert_array_equal(out, img)


def pectoral_phantom(h=96, w=96, flip=False):
    """Mid-gray breast with a bright top-left pectoral triangle."""
    img = np.zeros((h, w))
    img[:, : int(0.75 * w)] = 0.5
    triangle = np.zeros((h, w), dtype=bool)
    for r in range(int(0.45 * h)):
        extent = int(0.45 * w) - r
        if extent > 0:
            triangle[r, :extent] = True
    img[triangle] = 0.9
    if flip:
        return img[:, ::-1], triangle[:, ::-1]
    return img, triangle


def test_remove_pectoral_triangle_phantom():
    img, triangle = pectoral_phantom()
    out, removed = remove_pectoral(img)
    assert dice(removed, triangle) >= 0.9
    assert out[triangle].sum() / triangle.sum() < 0.05
    # breast body untouched
    assert out[60, 20] == 0.5


def test_remove_pectoral_mirrored_orientation():
    img, triangle = pectoral_phantom(flip=True)
    out, removed = remove_pectoral(img)
    assert dice(removed, triangle) >= 0.9
    assert out[60, 75] == 0.5


def test_remove_pectoral_uniform_breast_failsafe():
    img = np.zeros((64, 64))
    img[:, :48] = 0.5  # uniform: region grows everywhere, hits the area cap
    out, removed = remove_pectoral(img)
    assert not removed.any()
    np.testing.assert_array_equal(out, img)


def test_remove_pectoral_all_zero_noop():
    img = np.zeros((16, 16))
    out, removed = remove_pectoral(img)
    assert not removed.any()
    np.testing.assert_array_equal(out, img)


def test_remove_pectoral_respects_area_cap():
    rng = np.random.default_rng(41)
    for _ in range(10):
        img = np.clip(rng.random((32, 32)), 0.01, 1.0)
        cfg = EnhanceConfig(pectoral_area_cap=0.3)
        _, removed = remove_pectoral(img, cfg)
        breast = (img > 0).sum()
        assert removed.sum() < 0.3 * breast


@pytest.mark.parametrize("field, value, message", [
    ("pectoral_area_cap", 0.0, "enhance.pectoral_area_cap must be positive, got 0.0"),
    ("pectoral_area_cap", -1.0, "enhance.pectoral_area_cap must be positive"),
    ("pectoral_area_cap", float("nan"), "enhance.pectoral_area_cap must be finite"),
    ("pectoral_tolerance", 0.0, "enhance.pectoral_tolerance must be positive, got 0.0"),
    ("pectoral_tolerance", -5.0, "enhance.pectoral_tolerance must be positive, got -5.0"),
    ("pectoral_tolerance", float("nan"), "enhance.pectoral_tolerance must be finite"),
])
def test_pectoral_settings_that_remove_nothing_are_refused(field, value, message):
    with pytest.raises(ValueError, match=message):
        EnhanceConfig(**{field: value})


def test_pectoral_settings_at_their_bounds_are_accepted():
    assert EnhanceConfig(pectoral_area_cap=1e-9, pectoral_tolerance=1e-9).pectoral_tolerance == 1e-9


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_median_refuses_an_empty_film(shape):
    # numpy's pad used to say "can't extend empty axis" for 0x5, and a
    # 0x0 film divided by its zero width
    with pytest.raises(ValueError, match="empty film") as raised:
        median_filter(np.zeros(shape), 3)
    assert str(shape) in str(raised.value)
