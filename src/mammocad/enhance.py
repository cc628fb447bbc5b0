"""Post-denoise image improvement.

Median filtering, intensity normalization, Otsu thresholding,
radiopaque artifact/tag removal and pectoral-muscle removal. The
enhancement chain runs in that order and keeps images in [0, 1].
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import as_gray, largest_component, to_u8


class DegenerateInputError(ValueError):
    """Raised when an operation cannot work on a constant or flat image."""


# elements of median_filter's window buffer (8 MB of float64)
_MEDIAN_BUFFER = 1_000_000


def _check_window(window, what) -> int:
    # a bool is an int, and numpy's pad would reject a float width with
    # a TypeError of its own; both are refused here
    if isinstance(window, bool) or not isinstance(window, (int, np.integer)) or window < 1:
        raise ValueError(f"{what} must be an integer of at least 1 pixel, got {window!r}")
    return int(window)


@dataclass(frozen=True)
class EnhanceConfig:
    median_window: int = 10
    r1: int = 60                    # normalization bounds, 8-bit scale
    r2: int = 210
    pectoral_tolerance: float = 16.0  # gray levels
    pectoral_area_cap: float = 0.5    # fraction of breast pixels

    def __post_init__(self):
        if not 0 <= self.r1 < self.r2 <= 255:
            raise ValueError(f"need 0 <= r1 < r2 <= 255, got {self.r1}, {self.r2}")
        _check_window(self.median_window, "median window")


def median_filter(image, window: int) -> np.ndarray:
    """Windowed median with replicate borders.

    The output pixel sits at offset (window//2, window//2) inside its
    window, which makes even window sizes well defined; an even pixel
    count takes the mean of the two middle order statistics.

    Each window is copied once into a reused buffer, and one
    `partition` per chunk of rows puts the lower middle order statistic
    at index `lower`, with nothing smaller after it. So the minimum of
    the tail is the upper middle one, and (a + b) / 2 is the same double
    that numpy's median takes.
    """
    img = as_gray(image)
    window = _check_window(window, "window")
    before = window // 2
    after = window - 1 - before
    padded = np.pad(img, ((before, after), (before, after)), mode="edge")
    h, w = img.shape
    n = window * window
    lower = (n - 1) // 2
    out = np.empty_like(img)
    rows = max(1, min(h, _MEDIAN_BUFFER // (w * n)))
    buf = np.empty((rows, w, n))
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        chunk = buf[:r1 - r0]
        chunk.reshape(r1 - r0, w, window, window)[...] = sliding_window_view(
            padded[r0:r1 + window - 1], (window, window))
        chunk.partition(lower, axis=-1)
        middle = chunk[..., lower]
        if n % 2 == 0:
            middle = (middle + chunk[..., lower + 1:].min(axis=-1)) / 2.0
        out[r0:r1] = middle
    return out


def normalize(image, r1: int, r2: int) -> np.ndarray:
    """Affine rescale of the dynamic range onto [r1, r2] (8-bit scale).

    Dividing before scaling makes the endpoints exact: the darkest
    pixel lands on r1/255 and the brightest on r2/255 bit-for-bit.
    A spread under half an 8-bit gray level is refused as constant:
    stretching it would turn rounding noise (a flat film comes out of
    the denoiser with a spread near 1e-16) into structure.
    """
    img = as_gray(image)
    lo, hi = float(img.min()), float(img.max())
    if hi - lo < 0.5 / 255.0:
        raise DegenerateInputError(
            f"cannot normalize a flat image: its intensities span {hi - lo:.3g}, "
            "under half an 8-bit gray level")
    ratio = (img - lo) / (hi - lo)
    return (r1 + ratio * (r2 - r1)) / 255.0


def otsu_level(hist) -> int:
    """Threshold maximizing between-class variance on a 256-bin histogram.

    Ties resolve to the lowest threshold; a single-level histogram
    returns that level.
    """
    h = np.asarray(hist, dtype=np.float64)
    if h.shape != (256,):
        raise ValueError("expected a 256-bin histogram")
    total = h.sum()
    if total <= 0:
        raise ValueError("empty histogram")
    occupied = np.flatnonzero(h)
    if occupied.size == 1:
        return int(occupied[0])
    levels = np.arange(256, dtype=np.float64)
    w0 = np.cumsum(h)
    m0 = np.cumsum(h * levels)
    mean_total = m0[-1]
    w1 = total - w0
    mu0 = np.divide(m0, w0, out=np.zeros(256), where=w0 > 0)
    mu1 = np.divide(mean_total - m0, w1, out=np.zeros(256), where=w1 > 0)
    between = w0 * w1 * (mu0 - mu1) ** 2
    return int(np.argmax(between))  # argmax takes the first (lowest) maximum


def otsu_threshold(image) -> tuple[int, np.ndarray]:
    """Otsu threshold level and the mask of pixels above it."""
    levels = to_u8(as_gray(image))
    t = otsu_level(np.bincount(levels.ravel(), minlength=256).astype(np.float64))
    return t, levels > t


def remove_artifacts(image) -> np.ndarray:
    """Zero everything outside the largest Otsu-foreground component.

    Scan tags and radiopaque markers are small bright blobs detached
    from the breast; keeping only the biggest component removes them.
    """
    img = as_gray(image)
    _, mask = otsu_threshold(img)
    breast = largest_component(mask)
    out = img.copy()
    out[~breast] = 0.0
    return out


_NEIGHBOURS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def _grow_region(img, breast, seed, tol):
    """8-connected growth from seed, admitting pixels near the running mean."""
    h, w = img.shape
    region = np.zeros((h, w), dtype=bool)
    sr, sc = seed
    if not breast[sr, sc]:
        return region
    region[sr, sc] = True
    total = float(img[sr, sc])
    count = 1
    queue = deque([(sr, sc)])
    while queue:
        r, c = queue.popleft()
        for dr, dc in _NEIGHBOURS:
            nr, nc = r + dr, c + dc
            if not (0 <= nr < h and 0 <= nc < w):
                continue
            if region[nr, nc] or not breast[nr, nc]:
                continue
            if abs(img[nr, nc] - total / count) <= tol:
                region[nr, nc] = True
                total += float(img[nr, nc])
                count += 1
                queue.append((nr, nc))
    return region


def remove_pectoral(image, config: EnhanceConfig = EnhanceConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Remove the bright triangular pectoral muscle at the top corner.

    The image is mirrored so the chest wall sits at the left edge, a
    region is grown from a seed just inside the top-left corner, and
    the region is zeroed only if it touches both the top and left edges
    and stays under the area cap. Otherwise the input is returned
    unchanged with an empty mask (fail-safe), mirrored back either way.
    """
    img = as_gray(image)
    h, w = img.shape
    flipped = img[:, w // 2:].sum() > img[:, :w // 2].sum()
    work = img[:, ::-1] if flipped else img

    breast = work > 0.0
    removed = np.zeros((h, w), dtype=bool)
    breast_area = int(breast.sum())
    if breast_area > 0:
        seed = (int(0.02 * h), int(0.02 * w))
        region = _grow_region(work, breast, seed, config.pectoral_tolerance / 255.0)
        touches_top = bool(region[0, :].any())
        touches_left = bool(region[:, 0].any())
        small_enough = region.sum() < config.pectoral_area_cap * breast_area
        if region.any() and touches_top and touches_left and small_enough:
            removed = region
    out = work.copy()
    out[removed] = 0.0
    if flipped:
        out = out[:, ::-1]
        removed = removed[:, ::-1]
    return out, removed
