"""Training-set augmentation.

Each variant runs through: random rotation (corners filled with the
training-set mean intensity), random horizontal mirror, random scale
in [0.9, 1.1], resize of the shorter side to the target, random crop
and a random shift of up to 4 pixels with replicate fill. The set
builder emits 4 rotations x 4 crops = 16 variants per source image.

Nothing is rendered whole. Both resizes are evaluated only at the pixels
the crop keeps, with the sample tables of `core.resize_bilinear`, so a
variant gathers at most (2 x target)^2 pixels. The rotation is evaluated
only on the grid of film rows x film columns that those tables read,
taken over the four variants that share it. Each grid point's source
coordinate is formed in the order `ndimage.affine_transform` forms it
(offset, plus the row term, plus the column term), so the bytes are those
of rotating, mirroring and resizing the whole film and then cropping.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage, special

from ..core import as_gray, bilinear_gather, bilinear_samples

SHIFT_LIMIT = 4
SCALE_RANGE = (0.9, 1.1)


def _rotated_grid(image, angle_deg, fill, rows, cols):
    """`ndimage.rotate(image, angle_deg, reshape=False, order=1,
    mode="constant", cval=fill, prefilter=False)`, clipped to [0, 1],
    at the rows x cols grid of its output only."""
    c, s = special.cosdg(angle_deg), special.sindg(angle_deg)
    matrix = np.array([[c, s], [-s, c]])
    centre = (np.asarray(image.shape) - 1) / 2
    offset = centre - matrix @ centre
    # summed in affine_transform's order, offset + row term + column term:
    # another order rounds differently and moves pixels by a bit
    coords = np.stack([(offset[a] + rows * matrix[a, 0])[:, None] + cols * matrix[a, 1]
                       for a in (0, 1)])
    grid = ndimage.map_coordinates(image, coords, order=1, mode="constant", cval=fill,
                                   prefilter=False)
    return np.clip(grid, 0.0, 1.0, out=grid)


def _scaled_shape(shape, scale):
    return tuple(max(1, round(n * scale)) for n in shape)


def _shorter_side_shape(shape, target):
    h, w = shape
    if h <= w:
        return target, max(target, round(w * target / h))
    return max(target, round(h * target / w)), target


def _shift(image, dr, dc):
    """`image` moved by (dr, dc) with replicate fill, as a fresh array of
    its own size: output pixel (i, j) reads (i + dr, j + dc), clipped."""
    h, w = image.shape
    rows, cols = np.clip(np.arange(h) + dr, 0, h - 1), np.clip(np.arange(w) + dc, 0, w - 1)
    return image.take(rows, axis=0).take(cols, axis=1)


def _crop_axis(n_film, n_scaled, n_out, start, size):
    """Where the crop's `size` positions on one axis read the film.

    Returns the film's sample table for the scaled-film indices read, and
    the shorter-side sample table of the crop re-indexed into those.
    """
    lo, hi, frac = (t[start:start + size] for t in bilinear_samples(n_scaled, n_out))
    used, inverse = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    film = tuple(t[used] for t in bilinear_samples(n_film, n_scaled))
    return film, (inverse[:size], inverse[size:], frac)


def _tables(shape, mirror, scale, crop_rc, shift_rc, target_size):
    """One variant's film row and column tables (columns of the unmirrored
    film) and its crop's row and column tables into the scaled film."""
    r, c = crop_rc
    if r < 0 or c < 0:
        raise ValueError(f"crop origin must be non-negative, got {tuple(crop_rc)}")
    if any(abs(d) > SHIFT_LIMIT for d in shift_rc):
        raise ValueError(f"shift {tuple(shift_rc)} exceeds {SHIFT_LIMIT} pixels")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale}")
    in_h, in_w = shape
    sh, sw = _scaled_shape(shape, scale)
    h, w = _shorter_side_shape((sh, sw), target_size)
    if r + target_size > h or c + target_size > w:
        raise ValueError("crop window falls outside the resized image")
    film_rows, crop_rows = _crop_axis(in_h, sh, h, r, target_size)
    film_cols, crop_cols = _crop_axis(in_w, sw, w, c, target_size)
    if mirror:
        lo, hi, frac = film_cols
        film_cols = (in_w - 1 - lo, in_w - 1 - hi, frac)
    return film_rows, film_cols, crop_rows, crop_cols


def _reindex(used, table):
    lo, hi, frac = table
    return np.searchsorted(used, lo), np.searchsorted(used, hi), frac


def _render(image, angle_deg, fill, variants, target_size):
    """The variants (mirror, scale, crop_rc, shift_rc) of `image` rotated
    by `angle_deg`, rotating it once at the rows and columns they read."""
    if not (math.isfinite(angle_deg) and math.isfinite(fill)):
        raise ValueError(f"rotation angle and fill must be finite, got {angle_deg} and {fill}")
    if target_size < 1:
        raise ValueError(f"target size must be at least 1, got {target_size}")
    tables = [_tables(image.shape, *params, target_size) for params in variants]
    rows, cols = (np.unique(np.concatenate([t[axis][end] for t in tables for end in (0, 1)]))
                  for axis in (0, 1))
    grid = _rotated_grid(image, angle_deg, fill, rows, cols)
    out = []
    for (film_rows, film_cols, crop_rows, crop_cols), (*_, shift_rc) in zip(tables, variants):
        film = bilinear_gather(grid, _reindex(rows, film_rows), _reindex(cols, film_cols))
        out.append(_shift(bilinear_gather(film, crop_rows, crop_cols), *shift_rc))
    return out


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
    training set; labels are inherited. Each rotation is drawn, then its
    four variants, and the four are rendered together.
    """
    items = list(items)
    if not items:
        raise ValueError("cannot augment an empty training set")
    fill = float(np.mean([np.mean(im) for im, _ in items]))
    out = []
    for image, label in items:
        img = as_gray(image)
        for _ in range(4):
            angle = float(rng.uniform(0.0, 360.0))
            variants = [_draw_params(img.shape, rng, target_size) for _ in range(4)]
            out += [(variant, label)
                    for variant in _render(img, angle, fill, variants, target_size)]
    return out
