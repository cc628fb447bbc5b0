"""Crop-restricted augmentation against full-frame oracles.

The oracles below are the whole-film implementations: resize the
rotated, mirrored film to its scaled shape, resize its shorter side to
the target, then crop and shift. The library renders only the cropped
pixels; its output must be byte-identical to these.
"""

import numpy as np
import pytest
from scipy import ndimage

from mammocad.cnn.augment import (
    SHIFT_LIMIT,
    augment_with_params,
    build_augmented_set,
)
from mammocad.core import resize_bilinear


def oracle_resize_bilinear(img, out_w, out_h):
    in_h, in_w = img.shape

    def axis_coords(n_in, n_out):
        if n_out == 1:
            return np.array([(n_in - 1) / 2.0])
        return np.linspace(0.0, n_in - 1, n_out)

    rows = axis_coords(in_h, out_h)
    cols = axis_coords(in_w, out_w)
    r0 = np.minimum(np.floor(rows).astype(int), in_h - 1)
    c0 = np.minimum(np.floor(cols).astype(int), in_w - 1)
    r1 = np.minimum(r0 + 1, in_h - 1)
    c1 = np.minimum(c0 + 1, in_w - 1)
    fr = (rows - r0)[:, None]
    fc = (cols - c0)[None, :]
    top = img[np.ix_(r0, c0)] * (1 - fc) + img[np.ix_(r0, c1)] * fc
    bot = img[np.ix_(r1, c0)] * (1 - fc) + img[np.ix_(r1, c1)] * fc
    return top * (1 - fr) + bot * fr


def oracle_rotate(image, angle_deg, fill):
    if angle_deg == 0.0:
        return image
    return np.clip(ndimage.rotate(image, angle_deg, reshape=False, order=1,
                                  mode="constant", cval=fill, prefilter=False), 0.0, 1.0)


def oracle_scaled_shape(shape, scale):
    return tuple(max(1, round(n * scale)) for n in shape)


def oracle_shorter_side_shape(shape, target):
    h, w = shape
    if h <= w:
        return target, max(target, round(w * target / h))
    return max(target, round(h * target / w)), target


def oracle_augment(image, angle_deg, mirror, scale, crop_rc, shift_rc, target_size, fill):
    img = oracle_rotate(np.asarray(image, dtype=np.float64), angle_deg, fill)
    if mirror:
        img = img[:, ::-1]
    if scale != 1.0:
        h, w = oracle_scaled_shape(img.shape, scale)
        img = oracle_resize_bilinear(img, w, h)
    h, w = oracle_shorter_side_shape(img.shape, target_size)
    img = oracle_resize_bilinear(img, w, h)
    r, c = crop_rc
    img = img[r:r + target_size, c:c + target_size]
    padded = np.pad(img, SHIFT_LIMIT, mode="edge")
    r0 = SHIFT_LIMIT + shift_rc[0]
    c0 = SHIFT_LIMIT + shift_rc[1]
    return padded[r0:r0 + target_size, c0:c0 + target_size]


def oracle_build_set(items, rng, target_size):
    fill = float(np.mean([np.mean(im) for im, _ in items]))
    out = []
    for image, label in items:
        for _ in range(4):
            rotated = oracle_rotate(image, float(rng.uniform(0.0, 360.0)), fill)
            for _ in range(4):
                mirror = rng.random() < 0.5
                scale = rng.uniform(0.9, 1.1)
                h, w = oracle_shorter_side_shape(oracle_scaled_shape(rotated.shape, scale),
                                                 target_size)
                crop_rc = (int(rng.integers(0, h - target_size + 1)),
                           int(rng.integers(0, w - target_size + 1)))
                shift_rc = (int(rng.integers(-SHIFT_LIMIT, SHIFT_LIMIT + 1)),
                            int(rng.integers(-SHIFT_LIMIT, SHIFT_LIMIT + 1)))
                out.append((oracle_augment(rotated, 0.0, mirror, scale, crop_rc, shift_rc,
                                           target_size, fill), label))
    return out


FILMS = {"square": (41, 41), "portrait": (53, 37), "landscape": (37, 53)}


def _scales(shape):
    # 1.0, the ends of the draw range, and either side of the scale at
    # which round() of the first side flips from h - 1 to h
    flip = (shape[0] - 0.5) / shape[0]
    return (1.0, 0.9, 1.0999, flip - 1e-9, flip + 1e-9)


@pytest.mark.parametrize("target", [16, 24, 64])
@pytest.mark.parametrize("film", sorted(FILMS))
def test_augment_matches_full_frame_oracle(film, target):
    shape = FILMS[film]
    img = np.random.default_rng(sum(shape) + target).random(shape)
    cases = 0
    for scale in _scales(shape):
        h, w = oracle_shorter_side_shape(oracle_scaled_shape(shape, scale), target)
        for angle in (0.0, 17.5):
            for mirror in (False, True):
                for crop in ((0, 0), (h - target, w - target)):
                    for shift in ((0, 0), (-SHIFT_LIMIT, SHIFT_LIMIT),
                                  (SHIFT_LIMIT, -SHIFT_LIMIT)):
                        args = (img, angle, mirror, scale, crop, shift, target, 0.4)
                        got = augment_with_params(*args)
                        want = oracle_augment(*args)
                        assert got.shape == (target, target)
                        assert got.tobytes() == want.tobytes(), args[1:]
                        cases += 1
    assert cases == 5 * 2 * 2 * 2 * 3


def test_flip_scales_straddle_a_rounding_flip():
    for shape in FILMS.values():
        below, above = _scales(shape)[3:]
        assert oracle_scaled_shape(shape, below)[0] == shape[0] - 1
        assert oracle_scaled_shape(shape, above)[0] == shape[0]


def test_build_set_matches_full_frame_oracle():
    rng = np.random.default_rng(7)
    items = [(rng.random((48, 70)), 0), (rng.random((70, 48)), 1), (rng.random((61, 45)), 1)]
    got = build_augmented_set(items, np.random.default_rng(11), 32)
    want = oracle_build_set(items, np.random.default_rng(11), 32)
    assert [(im.tobytes(), lab) for im, lab in got] == [(im.tobytes(), lab) for im, lab in want]


@pytest.mark.parametrize("in_shape, out_hw", [((7, 11), (7, 11)), ((7, 11), (1, 1)),
                                              ((40, 60), (24, 36)), ((5, 3), (13, 9)),
                                              ((1, 9), (4, 1))])
def test_resize_matches_oracle(in_shape, out_hw):
    img = np.random.default_rng(3).random(in_shape)
    got = resize_bilinear(img, out_hw[1], out_hw[0])
    assert got.tobytes() == oracle_resize_bilinear(img, out_hw[1], out_hw[0]).tobytes()
