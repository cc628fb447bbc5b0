"""Two-stage collaborative denoising (hard-threshold pass + Wiener pass).

Similar blocks are stacked into 3-D groups, transformed with a 2-D DCT
per slice and a 1-D Walsh-Hadamard transform across the stack, shrunk
in the transform domain, and aggregated back with per-group weights.
Block-match thresholds are quoted on the 8-bit squared-distance scale
and rescaled internally to the [0, 1] intensity domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dctn, idctn
from scipy.linalg import hadamard

from .core import as_gray


@dataclass(frozen=True)
class Bm3dProfile:
    k_hard: int = 8                 # block side, hard-threshold stage
    k_wie: int = 8                  # block side, Wiener stage
    n_hard: int = 16                # max group size (power of two)
    n_wie: int = 16
    lambda_3d: float = 2.7          # hard-threshold coefficient
    tau_hard: float = 400.0         # match thresholds, 8-bit squared scale
    tau_wie: float = 2500.0
    search_radius: int = 16
    step: int = 4                   # reference-block stride

    def __post_init__(self):
        if self.k_hard < 4 or self.k_wie < 4:
            raise ValueError("block side must be at least 4 pixels")
        for n in (self.n_hard, self.n_wie):
            if n < 1 or n & (n - 1):
                raise ValueError("max group size must be a power of two")
        if self.lambda_3d <= 0 or self.tau_hard <= 0 or self.tau_wie <= 0:
            raise ValueError("thresholds must be positive")
        if self.step < 1:
            raise ValueError("stride must be at least 1 pixel")


# tau pairs follow the noise level: heavy noise needs looser matching
HIGH_NOISE_SIGMA_CUTOFF = 40.0


def default_profile(sigma: float) -> Bm3dProfile:
    """Stage thresholds picked by the noise level (8-bit sigma)."""
    if sigma >= HIGH_NOISE_SIGMA_CUTOFF:
        return Bm3dProfile(tau_hard=5000.0, tau_wie=3500.0)
    return Bm3dProfile(tau_hard=400.0, tau_wie=2500.0)


@dataclass(frozen=True)
class BlockGroup:
    """Stack of matched blocks; the first slice is the reference."""

    coordinates: np.ndarray         # (G, 2) top-left (row, col)
    stack: np.ndarray               # (G, k, k)


def _reference_grid(extent: int, k: int, step: int) -> list[int]:
    """Stride-spaced anchors plus the far border so every pixel is covered."""
    anchors = list(range(0, extent - k + 1, step))
    if anchors[-1] != extent - k:
        anchors.append(extent - k)
    return anchors


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def block_match(image, ref: tuple[int, int], profile: Bm3dProfile,
                stage: str = "hard") -> BlockGroup:
    """Group the blocks nearest to the reference block.

    Candidates are all blocks whose top-left corner lies within the
    search radius; a candidate matches when its per-pixel mean squared
    difference stays below tau (rescaled from the 8-bit convention).
    The group is sorted by ascending distance with the reference first,
    truncated to the stage's maximum size, and padded with copies of
    the reference up to a power of two.
    """
    img = as_gray(image)
    if stage == "hard":
        k, n_max, tau = profile.k_hard, profile.n_hard, profile.tau_hard
    elif stage == "wiener":
        k, n_max, tau = profile.k_wie, profile.n_wie, profile.tau_wie
    else:
        raise ValueError(f"unknown stage {stage!r}")
    h, w = img.shape
    r, c = ref
    if not (0 <= r <= h - k and 0 <= c <= w - k):
        raise ValueError(f"reference block {ref} not fully inside the image")

    rad = profile.search_radius
    r0, r1 = max(0, r - rad), min(h - k, r + rad)
    c0, c1 = max(0, c - rad), min(w - k, c + rad)
    ref_block = img[r:r + k, c:c + k]
    windows = sliding_window_view(img[r0:r1 + k, c0:c1 + k], (k, k))
    dists = ((windows - ref_block) ** 2).sum(axis=(2, 3)) / (k * k)
    threshold = tau / (k * k * 255.0 * 255.0)

    rows, cols = np.nonzero(dists <= threshold)
    rows, cols = rows + r0, cols + c0
    d = dists[rows - r0, cols - c0]
    not_ref = (rows != r) | (cols != c)
    order = np.argsort(d[not_ref], kind="stable")
    coords = np.concatenate([
        np.array([[r, c]], dtype=np.int64),
        np.stack([rows[not_ref][order], cols[not_ref][order]], axis=1),
    ])
    coords = coords[:n_max]
    target = min(_next_pow2(len(coords)), n_max)
    if len(coords) < target:
        pad = np.repeat(coords[:1], target - len(coords), axis=0)
        coords = np.concatenate([coords, pad])
    else:
        coords = coords[:target]
    stack = np.stack([img[i:i + k, j:j + k] for i, j in coords])
    return BlockGroup(coordinates=coords, stack=stack)


def _forward_3d(stack: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT per slice, then Walsh-Hadamard across slices."""
    coeffs = dctn(stack, axes=(1, 2), norm="ortho")
    g = stack.shape[0]
    if g > 1:
        hmat = hadamard(g) / np.sqrt(g)
        coeffs = np.tensordot(hmat, coeffs, axes=(1, 0))
    return coeffs


def _inverse_3d(coeffs: np.ndarray) -> np.ndarray:
    g = coeffs.shape[0]
    if g > 1:
        hmat = hadamard(g) / np.sqrt(g)
        coeffs = np.tensordot(hmat, coeffs, axes=(1, 0))
    return idctn(coeffs, axes=(1, 2), norm="ortho")


def _collaborative_pass(match_on, image, profile: Bm3dProfile, stage: str,
                        shrink) -> np.ndarray:
    """Group, transform, shrink and aggregate over every reference block.

    Groups are matched on `match_on` and the same coordinates are cut
    from `image`. `shrink(matched_stack, image_stack)` returns the shrunk
    3-D coefficients and the group's aggregation weight.
    """
    k = profile.k_hard if stage == "hard" else profile.k_wie
    h, w = image.shape
    if h < k or w < k:
        raise ValueError("image smaller than one block")
    acc = np.zeros_like(image)
    weights = np.zeros_like(image)
    for r in _reference_grid(h, k, profile.step):
        for c in _reference_grid(w, k, profile.step):
            group = block_match(match_on, (r, c), profile, stage)
            if image is match_on:
                stack = group.stack
            else:
                stack = np.stack([image[i:i + k, j:j + k] for i, j in group.coordinates])
            coeffs, weight = shrink(group.stack, stack)
            estimate = _inverse_3d(coeffs)
            for (i, j), block in zip(group.coordinates, estimate):
                acc[i:i + k, j:j + k] += weight * block
                weights[i:i + k, j:j + k] += weight
    return np.clip(acc / weights, 0.0, 1.0)


def hard_stage(noisy, sigma: float, profile: Bm3dProfile | None = None) -> np.ndarray:
    """Hard-threshold pass; sigma is the noise std on the 8-bit scale."""
    if sigma <= 0:
        raise ValueError("noise sigma must be positive")
    img = as_gray(noisy)
    prof = profile if profile is not None else default_profile(sigma)
    threshold = prof.lambda_3d * sigma / 255.0

    def shrink(_, stack):
        coeffs = _forward_3d(stack)
        keep = np.abs(coeffs) >= threshold
        keep[0, 0, 0] = True    # never drop the group's DC component
        return np.where(keep, coeffs, 0.0), 1.0 / (1.0 + int(keep.sum()))

    return _collaborative_pass(img, img, prof, "hard", shrink)


def wiener_stage(noisy, basic, sigma: float,
                 profile: Bm3dProfile | None = None) -> np.ndarray:
    """Wiener pass: match on the basic estimate, shrink the noisy stack."""
    img = as_gray(noisy)
    base = as_gray(basic)
    if img.shape != base.shape:
        raise ValueError("basic estimate dimensions do not match the noisy image")
    if sigma <= 0:
        raise ValueError("noise sigma must be positive")
    prof = profile if profile is not None else default_profile(sigma)
    noise_var = (sigma / 255.0) ** 2

    def shrink(basic_stack, noisy_stack):
        basic_coeffs = _forward_3d(basic_stack)
        gain = basic_coeffs ** 2 / (basic_coeffs ** 2 + noise_var)
        return gain * _forward_3d(noisy_stack), 1.0 / (1.0 + float((gain ** 2).sum()))

    return _collaborative_pass(base, img, prof, "wiener", shrink)


def bm3d_denoise(noisy, sigma: float, profile: Bm3dProfile | None = None) -> np.ndarray:
    """Full two-stage denoise: Wiener pass guided by the hard pass."""
    prof = profile if profile is not None else default_profile(sigma)
    basic = hard_stage(noisy, sigma, prof)
    return wiener_stage(noisy, basic, sigma, prof)
