import numpy as np
import pytest

from mammocad.cnn.augment import build_augmented_set
from mammocad.core import resize_bilinear

from augment_params import augment_with_params


def test_augment_deterministic_per_seed():
    rng_img = np.random.default_rng(0)
    items = [(rng_img.random((48, 70)), i % 2) for i in range(3)]
    a = build_augmented_set(items, np.random.default_rng(42), 32)
    b = build_augmented_set(items, np.random.default_rng(42), 32)
    assert [(im.tobytes(), lab) for im, lab in a] == [(im.tobytes(), lab) for im, lab in b]
    c = build_augmented_set(items, np.random.default_rng(43), 32)
    assert not np.array_equal(a[0][0], c[0][0])


def test_augment_output_size():
    rng = np.random.default_rng(1)
    items = [(rng.random((80, 50)), 0), (rng.random((50, 80)), 1)]
    out = build_augmented_set(items, rng, 32)
    assert all(im.shape == (32, 32) for im, _ in out)


def test_neutral_params_reduce_to_resize_and_center_crop():
    rng = np.random.default_rng(2)
    img = rng.random((40, 60))
    target = 24
    resized = resize_bilinear(img, round(60 * 24 / 40), 24)
    r = (resized.shape[0] - target) // 2
    c = (resized.shape[1] - target) // 2
    expected = resized[r:r + target, c:c + target]
    out = augment_with_params(img, angle_deg=0.0, mirror=False, scale=1.0,
                              crop_rc=(r, c), shift_rc=(0, 0),
                              target_size=target, fill=0.0)
    np.testing.assert_allclose(out, expected)


def test_rotation_fills_corners_with_given_value():
    img = np.ones((33, 33))
    out = augment_with_params(img, angle_deg=45.0, mirror=False, scale=1.0,
                              crop_rc=(0, 0), shift_rc=(0, 0),
                              target_size=33, fill=0.25)
    assert abs(out[0, 0] - 0.25) < 1e-9   # corner comes from the fill
    assert abs(out[16, 16] - 1.0) < 1e-9  # centre untouched


def test_mirror_parameter():
    img = np.tile(np.linspace(0, 1, 16), (16, 1))
    out = augment_with_params(img, 0.0, True, 1.0, (0, 0), (0, 0), 16, 0.0)
    np.testing.assert_allclose(out, img[:, ::-1], atol=1e-12)


@pytest.mark.parametrize("shift_rc", [(4, -4), (-4, 4)])
def test_shift_at_limit_keeps_target_size(shift_rc):
    img = np.random.default_rng(6).random((20, 20))
    out = augment_with_params(img, 0.0, False, 1.0, (0, 0), shift_rc, 16, 0.0)
    assert out.shape == (16, 16)


def test_build_set_sixteen_fold():
    rng = np.random.default_rng(3)
    items = [(rng.random((40, 40)), i % 2) for i in range(5)]
    out = build_augmented_set(items, np.random.default_rng(0), 32)
    assert len(out) == 16 * len(items)
    assert all(im.shape == (32, 32) for im, _ in out)


def test_every_variant_owns_a_buffer_of_the_target_size():
    # a view into the shift's padded buffer would keep (target + 8)^2 pixels alive
    rng = np.random.default_rng(7)
    items = [(rng.random((40, 56)), 0), (rng.random((56, 40)), 1)]
    target = 24
    out = build_augmented_set(items, np.random.default_rng(2), target)
    assert len(out) == 32
    assert all(im.base is None and im.nbytes == target * target * 8 for im, _ in out)


def test_build_set_inherits_labels():
    rng = np.random.default_rng(4)
    items = [(rng.random((36, 36)), 0), (rng.random((36, 36)), 1)]
    out = build_augmented_set(items, np.random.default_rng(1), 24)
    assert [lab for _, lab in out] == [0] * 16 + [1] * 16


def test_build_set_seeds_differ_content_not_count():
    rng = np.random.default_rng(5)
    items = [(rng.random((36, 36)), 1)]
    a = build_augmented_set(items, np.random.default_rng(10), 24)
    b = build_augmented_set(items, np.random.default_rng(11), 24)
    assert len(a) == len(b) == 16
    assert any(not np.array_equal(x[0], y[0]) for x, y in zip(a, b))
