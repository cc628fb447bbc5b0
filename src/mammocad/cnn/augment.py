"""Training-set augmentation.

Each variant runs through: random rotation (corners filled with the
training-set mean intensity), random horizontal mirror, random scale
in [0.9, 1.1], resize of the shorter side to the target, random crop
and a random shift of up to 4 pixels with replicate fill. The set
builder emits 4 rotations x 4 crops = 16 variants per source image.

Both resizes are evaluated only at the pixels the crop keeps, with the
sample tables of `core.resize_bilinear`, so a variant costs a gather of
at most (2 x target)^2 pixels rather than two whole-film resizes, and
its bytes are those of resizing the whole film and then cropping.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from ..core import as_gray, bilinear_gather, bilinear_samples

SHIFT_LIMIT = 4
SCALE_RANGE = (0.9, 1.1)


def _rotate(image, angle_deg, fill):
    if angle_deg == 0.0:
        return image
    return np.clip(ndimage.rotate(image, angle_deg, reshape=False, order=1,
                                  mode="constant", cval=fill, prefilter=False), 0.0, 1.0)


def _scaled_shape(shape, scale):
    return tuple(max(1, round(n * scale)) for n in shape)


def _shorter_side_shape(shape, target):
    h, w = shape
    if h <= w:
        return target, max(target, round(w * target / h))
    return max(target, round(h * target / w)), target


def _shift(image, dr, dc):
    padded = np.pad(image, SHIFT_LIMIT, mode="edge")
    h, w = image.shape
    r0 = SHIFT_LIMIT + dr
    c0 = SHIFT_LIMIT + dc
    return padded[r0:r0 + h, c0:c0 + w]


def _crop_axis(n_scaled, n_out, start, size):
    """Where the crop's `size` positions on one axis read the scaled film.

    Returns the scaled-film indices read, in increasing order, and the
    shorter-side sample table of the crop re-indexed into them.
    """
    lo, hi, frac = (t[start:start + size] for t in bilinear_samples(n_scaled, n_out))
    used, inverse = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    return used, (inverse[:size], inverse[size:], frac)


def augment_with_params(image, angle_deg, mirror, scale, crop_rc, shift_rc,
                        target_size, fill):
    """Deterministic augmentation with every random draw pinned."""
    r, c = crop_rc
    if r < 0 or c < 0:
        raise ValueError(f"crop origin must be non-negative, got {tuple(crop_rc)}")
    if any(abs(d) > SHIFT_LIMIT for d in shift_rc):
        raise ValueError(f"shift {tuple(shift_rc)} exceeds {SHIFT_LIMIT} pixels")
    img = _rotate(as_gray(image), angle_deg, fill)
    if mirror:
        img = img[:, ::-1]
    in_h, in_w = img.shape
    sh, sw = _scaled_shape(img.shape, scale)
    h, w = _shorter_side_shape((sh, sw), target_size)
    if r + target_size > h or c + target_size > w:
        raise ValueError("crop window falls outside the resized image")
    rows, crop_rows = _crop_axis(sh, h, r, target_size)
    cols, crop_cols = _crop_axis(sw, w, c, target_size)
    film = bilinear_gather(img, tuple(t[rows] for t in bilinear_samples(in_h, sh)),
                           tuple(t[cols] for t in bilinear_samples(in_w, sw)))
    return _shift(bilinear_gather(film, crop_rows, crop_cols), *shift_rc)


def _draw_params(shape, rng, target_size):
    """(mirror, scale, crop_rc, shift_rc) for one variant of a film."""
    mirror = rng.random() < 0.5
    scale = rng.uniform(*SCALE_RANGE)
    # crop bounds depend on the scaled-and-resized dims
    h, w = _shorter_side_shape(_scaled_shape(shape, scale), target_size)
    crop_rc = (int(rng.integers(0, h - target_size + 1)),
               int(rng.integers(0, w - target_size + 1)))
    shift_rc = (int(rng.integers(-SHIFT_LIMIT, SHIFT_LIMIT + 1)),
                int(rng.integers(-SHIFT_LIMIT, SHIFT_LIMIT + 1)))
    return mirror, scale, crop_rc, shift_rc


def build_augmented_set(items, rng, target_size):
    """Expand (image, label) pairs 16-fold: 4 rotations x 4 crop variants.

    Rotation corners are filled with the mean intensity of the whole
    training set; labels are inherited.
    """
    items = list(items)
    if not items:
        raise ValueError("cannot augment an empty training set")
    fill = float(np.mean([np.mean(im) for im, _ in items]))
    out = []
    for image, label in items:
        img = as_gray(image)
        for _ in range(4):
            rotated = _rotate(img, float(rng.uniform(0.0, 360.0)), fill)
            for _ in range(4):
                params = _draw_params(rotated.shape, rng, target_size)
                out.append((augment_with_params(rotated, 0.0, *params, target_size, fill),
                            label))
    return out
