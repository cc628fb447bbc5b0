"""Level-set segmentation seeded by a fuzzy membership map.

The field phi is positive inside the contour. Evolution combines a
distance-regularization term (Laplacian minus curvature), an
edge-weighted curvature term, and a balloon term that expands the
fuzzy seed until the edge map stops it. Spatial discretization uses
central differences, a 5-point Laplacian and replicate borders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import as_gray, as_mask


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
    grad_floor: float = 1e-10
    early_stop_frac: float = 1e-4   # 0 disables early stopping
    early_stop_patience: int = 5

    def __post_init__(self):
        if not 0.0 < self.b0 < 1.0:
            raise ValueError("binarization threshold must lie in (0, 1)")
        # a zero grad_floor divides 0 by 0 where the initial field is flat
        for name in ("epsilon", "tau", "smoothing_sigma", "grad_floor"):
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
    if epsilon <= 0:
        raise ValueError("Dirac width must be positive")
    arr = np.asarray(x, dtype=np.float64)
    return np.where(np.abs(arr) <= epsilon,
                    (1.0 / (2.0 * epsilon)) * (1.0 + np.cos(np.pi * arr / epsilon)), 0.0)


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
    if sigma <= 0:
        raise ValueError("smoothing sigma must be positive")
    img = as_gray(image)
    smooth = ndimage.gaussian_filter(img * 255.0, sigma=sigma, mode="nearest",
                                     truncate=3.0)
    return 1.0 / (1.0 + _d_row(smooth) ** 2 + _d_col(smooth) ** 2)


def evolve_step(phi, g, config: LevelSetConfig) -> np.ndarray:
    """One explicit evolution step of the field."""
    phi = np.asarray(phi, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        gr, gc = _d_row(phi), _d_col(phi)
        mag = np.maximum(np.sqrt(gr ** 2 + gc ** 2), config.grad_floor)
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


def evolve(r_k, image, config: LevelSetConfig = LevelSetConfig(),
           on_iteration=None) -> tuple[np.ndarray, int]:
    """Run the full evolution from a membership map.

    Initializes the field from the binarized membership, iterates up to
    ``config.iterations`` steps, and stops early once the zero-level
    mask settles (changes below ``early_stop_frac`` of the pixels for
    ``early_stop_patience`` consecutive steps). Returns the final field
    and the number of steps taken.
    """
    img = as_gray(image)
    g = edge_indicator(img, config.smoothing_sigma)
    phi = init_phi(binarize_membership(r_k, config.b0), config.epsilon)
    n_pixels = phi.size
    mask = phi > 0.0
    calm_streak = 0
    steps = 0
    for steps in range(1, config.iterations + 1):
        new_phi = evolve_step(phi, g, config)  # rejects a non-finite field
        new_mask = new_phi > 0.0
        changed = int(np.count_nonzero(new_mask != mask))
        if on_iteration is not None:
            on_iteration(steps, int(new_mask.sum()), float(np.abs(new_phi - phi).mean()))
        phi, mask = new_phi, new_mask
        if changed < config.early_stop_frac * n_pixels:
            calm_streak += 1
            if calm_streak >= config.early_stop_patience:
                break
        else:
            calm_streak = 0
    return phi, steps
