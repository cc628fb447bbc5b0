"""Level-set segmentation seeded by a fuzzy membership map.

The field phi is positive inside the contour. Evolution combines a
distance-regularization term (Laplacian minus curvature), an
edge-weighted curvature term, and a balloon term that expands the
fuzzy seed until the edge map stops it. Spatial discretization uses
central differences, a 5-point Laplacian and replicate borders.

`evolve` steps only a narrow band (Adalsteinsson and Sethian, JCP 1995;
Li et al., IEEE TIP 2010). Where phi is one value c with |c| > epsilon
over a pixel's stencil (the pixels within two 4-neighbour hops), every
term of the update is exactly 0: the Laplacian and the unit normal
vanish and the Dirac impulse is 0 outside [-epsilon, epsilon]. Such a
pixel keeps its bytes. So a pixel can move only next to a "moving" one,
which differs from one of its 4 neighbours or has |phi| <= epsilon
(a flat level inside the band still moves under the balloon force).
Each step runs the whole-field kernel `evolve_step` on the moving
pixels' bounding box widened by 2 px, plus 2 px more of stencil margin,
and writes back the inner box; nothing outside it changes, so the field
is byte for byte the whole-field one.

The edge map is taken only where the stepped windows read it, from a
crop of the film widened by the map's reach (`_edge_map`). It is kept
for a region that only grows: when a window leaves the region, the
region becomes their union widened by `_EDGE_SLACK` px and the map is
taken again. An evolution in which no pixel moves never takes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import ndimage

from .core import as_gray, as_mask

# keeps the unit normal grad(phi)/|grad(phi)| finite where phi is flat
GRAD_FLOOR = 1e-10
# a flat level above this overflows the Laplacian's sum of 4 values to
# inf - inf, so it counts as moving and the step reports the divergence
_FLAT_MAX = np.finfo(np.float64).max / 8
# the edge map's Gaussian stops at this many sigmas
_TRUNCATE = 3.0
# px added around the edge map's region when a step leaves it
_EDGE_SLACK = 32


class DivergenceError(FloatingPointError):
    """Raised when the evolution produces non-finite field values."""


@dataclass(frozen=True)
class LevelSetConfig:
    epsilon: float = 1.5            # width of the smoothed Dirac impulse
    b0: float = 0.5                 # membership binarization threshold
    tau: float = 5.0                # time step
    mu: float = 0.04                # distance-regularization weight
    lmda: float = 5.0               # edge-attraction weight
    nu: float = 1.5                 # balloon weight; positive expands
    iterations: int = 200
    smoothing_sigma: float = 1.5    # Gaussian width for the edge map
    early_stop_frac: float = 1e-4   # 0 disables early stopping
    early_stop_patience: int = 5

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if not 0.0 < self.b0 < 1.0:
            raise ValueError("binarization threshold must lie in (0, 1)")
        for name in ("epsilon", "tau", "smoothing_sigma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("iterations", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.tau * self.mu >= 0.25:
            raise ValueError(
                f"unstable step: tau*mu = {self.tau * self.mu:.3g} must stay below 0.25")


def binarize_membership(r_k, b0: float) -> np.ndarray:
    """Mask of pixels whose membership reaches the threshold."""
    if not 0.0 < b0 < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    return as_gray(r_k) >= b0


def init_phi(b_k, epsilon: float) -> np.ndarray:
    """Binary field +2*eps inside the mask, -2*eps outside."""
    mask = as_mask(b_k)
    return -4.0 * epsilon * (0.5 - mask.astype(np.float64))


def dirac(x, epsilon: float) -> np.ndarray:
    """Smoothed Dirac impulse: raised cosine on [-eps, eps], else 0."""
    if not math.isfinite(epsilon) or epsilon <= 0:
        raise ValueError(f"Dirac width must be positive and finite, got {epsilon}")
    arr = np.asarray(x, dtype=np.float64)
    band = np.abs(arr) <= epsilon
    out = np.zeros(arr.shape)
    out[band] = (1.0 / (2.0 * epsilon)) * (1.0 + np.cos(np.pi * arr[band] / epsilon))
    return out


def _d_row(f):
    """Central difference down the rows, replicate borders."""
    p = np.pad(f, ((1, 1), (0, 0)), mode="edge")
    return (p[2:] - p[:-2]) / 2.0


def _d_col(f):
    """Central difference along the columns, replicate borders."""
    p = np.pad(f, ((0, 0), (1, 1)), mode="edge")
    return (p[:, 2:] - p[:, :-2]) / 2.0


def _laplacian(f):
    p = np.pad(f, 1, mode="edge")
    return p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2] - 4.0 * f


def edge_indicator(image, sigma: float) -> np.ndarray:
    """g = 1 / (1 + |grad(G_sigma * I)|^2); 1 in flat areas, small on edges.

    Gradients are taken on the 8-bit intensity scale so that real
    tissue boundaries drive g far below 1; on the unit scale even a
    full-contrast edge would barely register.
    """
    if not math.isfinite(sigma) or sigma <= 0:
        raise ValueError(f"smoothing sigma must be positive and finite, got {sigma}")
    img = as_gray(image)
    if img.size == 0:
        raise ValueError(f"cannot take the edge map of an empty film of shape {img.shape}")
    smooth = ndimage.gaussian_filter(img * 255.0, sigma=sigma, mode="nearest",
                                     truncate=_TRUNCATE)
    return 1.0 / (1.0 + _d_row(smooth) ** 2 + _d_col(smooth) ** 2)


def evolve_step(phi, g, config: LevelSetConfig) -> np.ndarray:
    """One explicit evolution step of the field."""
    phi = np.asarray(phi, dtype=np.float64)
    if np.shape(g) != phi.shape:
        raise ValueError(f"edge map shape {np.shape(g)} does not match field shape {phi.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        gr, gc = _d_row(phi), _d_col(phi)
        mag = np.maximum(np.sqrt(gr ** 2 + gc ** 2), GRAD_FLOOR)
        nr, nc = gr / mag, gc / mag
        regularize = _laplacian(phi) - (_d_row(nr) + _d_col(nc))

        delta = dirac(phi, config.epsilon)
        edge_term = (config.lmda * delta * (_d_row(g * nr) + _d_col(g * nc))
                     + config.nu * g * delta)
        out = phi + config.tau * (config.mu * regularize + edge_term)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("level-set evolution diverged to non-finite values")
    return out


def extract_mask(phi) -> np.ndarray:
    """Interior of the contour: pixels where the field is positive."""
    arr = np.asarray(phi, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("field contains non-finite values")
    return arr > 0.0


def _widen(box, margin: int, shape) -> tuple[int, int, int, int]:
    r0, r1, c0, c1 = box
    return (max(r0 - margin, 0), min(r1 + margin, shape[0]),
            max(c0 - margin, 0), min(c1 + margin, shape[1]))


def _union(a, b) -> tuple[int, int, int, int]:
    return min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3])


def _edge_map(img, sigma: float, box):
    """`edge_indicator` over `box` only, from a crop widened by its reach.

    Each edge-map value reads the film within the Gaussian's radius (as
    scipy takes it) plus 1 px for the central difference, and a crop
    that meets the film border pads it as the whole film does, so the
    bytes are those of the whole-film map.
    """
    r0, r1, c0, c1 = box
    reach = int(_TRUNCATE * sigma + 0.5) + 1
    top, bottom, left, right = _widen(box, reach, img.shape)
    g = edge_indicator(img[top:bottom, left:right], sigma)
    return g[r0 - top:r1 - top, c0 - left:c1 - left]


def _moving_box(phi, box, epsilon: float):
    """Bounding box (r0, r1, c0, c1) of the moving pixels inside `box`, or None.

    A pixel moves when it differs from one of its 4 neighbours (none
    past the film border, as under replicate padding) or when its
    value is not a flat level that stays put: epsilon < |phi| <= _FLAT_MAX.
    """
    r0, r1, c0, c1 = box
    top, bottom, left, right = _widen(box, 1, phi.shape)
    f = phi[top:bottom, left:right]
    size = np.abs(f)
    moving = (size <= epsilon) | (size > _FLAT_MAX)
    down = f[1:] != f[:-1]
    moving[1:] |= down
    moving[:-1] |= down
    across = f[:, 1:] != f[:, :-1]
    moving[:, 1:] |= across
    moving[:, :-1] |= across
    moving = moving[r0 - top:r1 - top, c0 - left:c1 - left]
    rows = np.flatnonzero(moving.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(moving.any(axis=0))
    return r0 + rows[0], r0 + rows[-1] + 1, c0 + cols[0], c0 + cols[-1] + 1


def evolve(r_k, image, config: LevelSetConfig = LevelSetConfig()) -> tuple[np.ndarray, int]:
    """Run the full evolution from a membership map.

    Initializes the field from the binarized membership, iterates up to
    ``config.iterations`` steps, and stops early once the zero-level
    mask settles (changes below ``early_stop_frac`` of the pixels for
    ``early_stop_patience`` consecutive steps). A step in which no pixel
    can move still counts. Returns the final field and the number of
    steps taken.

    Only the band is stepped (see the module docstring): a pixel changes
    only within 1 px of a moving one, and every moving pixel lies within
    1 px of those found in the last stepped box, so each step covers
    their box widened by 2 px.
    """
    img = as_gray(image)
    seed = binarize_membership(r_k, config.b0)
    if seed.shape != img.shape:
        raise ValueError(f"membership map shape {seed.shape} does not match image shape {img.shape}")
    if img.size == 0:
        raise ValueError(f"cannot evolve on an empty film of shape {img.shape}")
    phi = init_phi(seed, config.epsilon)
    n_pixels = phi.size
    box = _moving_box(phi, (0, phi.shape[0], 0, phi.shape[1]), config.epsilon)
    g_box = (phi.shape[0], 0, phi.shape[1], 0)   # covers nothing yet
    calm_streak = 0
    steps = 0
    for steps in range(1, config.iterations + 1):
        changed = 0
        if box is not None:
            r0, r1, c0, c1 = inner = _widen(box, 2, phi.shape)
            top, bottom, left, right = outer = _widen(inner, 2, phi.shape)
            grown = _union(g_box, outer)
            if grown != g_box:
                g_box = _widen(grown, _EDGE_SLACK, phi.shape)
                g = _edge_map(img, config.smoothing_sigma, g_box)
            g_top, _, g_left, _ = g_box
            stepped = evolve_step(  # rejects a non-finite field
                phi[top:bottom, left:right],
                g[top - g_top:bottom - g_top, left - g_left:right - g_left], config)
            new = stepped[r0 - top:r1 - top, c0 - left:c1 - left]
            old = phi[r0:r1, c0:c1]
            changed = int(np.count_nonzero((new > 0.0) != (old > 0.0)))
            old[...] = new
            box = _moving_box(phi, inner, config.epsilon)
        if changed < config.early_stop_frac * n_pixels:
            calm_streak += 1
            if calm_streak >= config.early_stop_patience:
                break
        else:
            calm_streak = 0
    return phi, steps
