"""Seeded mammogram phantoms with exact truth masks.

The MIAS archive is not shipped with the repository, so every benchmark
input is drawn here. A film has, on a zero background:

- a breast: a half-ellipse standing on the chest-wall edge (fatty
  tissue at 0.30) with a concentric glandular core (0.50);
- a pectoral triangle in the top chest-wall corner (0.70);
- optionally a lesion disc inside the breast (0.90);
- a scan tag: a rectangle detached from the breast (0.95).

The chest wall is on the left or, mirrored, on the right. Shapes are
placed in fractions of the side length, so one seed gives the same
film at every size. Noise is added separately, and films go to disk as
binary 8-bit PGM, the format the program reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAT, GLAND, PECTORAL, LESION, TAG = 0.30, 0.50, 0.70, 0.90, 0.95


@dataclass(frozen=True)
class Phantom:
    clean: np.ndarray               # float64 in [0, 1]
    breast: np.ndarray              # bool, includes pectoral and lesion
    pectoral: np.ndarray
    lesion: np.ndarray              # all False on a normal film
    tag: np.ndarray
    lesion_circle: tuple[int, int, int] | None   # (row, col, radius), pixels


def make_phantom(size: int, seed: int, with_lesion: bool = True) -> Phantom:
    """Draw one film; the same (size, seed, with_lesion) gives the same film."""
    rng = np.random.default_rng(seed)
    # row and column coordinates of pixel centres, as fractions of the side
    r = ((np.arange(size) + 0.5) / size)[:, None]
    c = ((np.arange(size) + 0.5) / size)[None, :]

    centre_r = rng.uniform(0.45, 0.55)
    half_r = rng.uniform(0.62, 0.70)
    half_c = rng.uniform(0.60, 0.70)
    breast = ((r - centre_r) / half_r) ** 2 + (c / half_c) ** 2 <= 1.0
    gland = ((r - centre_r) / (0.8 * half_r)) ** 2 + (c / (0.75 * half_c)) ** 2 <= 1.0

    pect_h = rng.uniform(0.28, 0.34)
    pect_w = rng.uniform(0.20, 0.26)
    pectoral = (r < pect_h) & (c < pect_w * (1.0 - r / pect_h))

    tag = (r >= 0.06) & (r < 0.12) & (c >= 0.82) & (c < 0.92)

    lesion_radius = rng.uniform(0.05, 0.07)
    lesion_r = rng.uniform(0.55, 0.72)
    lesion_c = rng.uniform(0.14, 0.30)
    mirror = bool(rng.random() < 0.5)

    clean = np.where(breast, np.where(gland, GLAND, FAT), 0.0)
    clean[pectoral] = PECTORAL
    circle = None
    if with_lesion:
        # disc of whole pixels: centre on a pixel, radius in pixels
        row, col = int(lesion_r * size), int(lesion_c * size)
        radius = max(2, int(round(lesion_radius * size)))
        rows = np.arange(size)[:, None]
        cols = np.arange(size)[None, :]
        lesion = (rows - row) ** 2 + (cols - col) ** 2 <= radius ** 2
        clean[lesion] = LESION
        circle = (row, col, radius)
    else:
        lesion = np.zeros((size, size), dtype=bool)
    clean[tag] = TAG

    breast = breast | pectoral | lesion
    if mirror:
        clean, breast, pectoral, lesion, tag = (
            a[:, ::-1].copy() for a in (clean, breast, pectoral, lesion, tag))
        if circle is not None:
            circle = (circle[0], size - 1 - circle[1], circle[2])
    return Phantom(clean=clean, breast=breast, pectoral=pectoral,
                   lesion=lesion, tag=tag, lesion_circle=circle)


def add_noise(clean: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Additive Gaussian noise (sigma on the 8-bit scale), clipped and
    quantised to 8 bits, as a film read back from PGM would be."""
    rng = np.random.default_rng(seed)
    noisy = clean * 255.0 + rng.standard_normal(clean.shape) * sigma
    return np.rint(np.clip(noisy, 0.0, 255.0)) / 255.0


def encode_pgm(image: np.ndarray) -> bytes:
    """Binary 8-bit PGM of a [0, 1] image."""
    u8 = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = u8.shape
    return b"P5\n%d %d\n255\n" % (w, h) + u8.tobytes()
