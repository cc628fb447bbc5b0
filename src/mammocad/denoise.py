"""Two-stage collaborative denoising (hard-threshold pass + Wiener pass).

Similar blocks are stacked into 3-D groups, transformed with a 2-D DCT
per slice and a 1-D Walsh-Hadamard transform across the stack, shrunk
in the transform domain, and aggregated back with per-group weights.
Block-match thresholds are quoted on the 8-bit squared-distance scale
and rescaled internally to the [0, 1] intensity domain.
"""

from __future__ import annotations

import functools
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
        if self.step > min(self.k_hard, self.k_wie):
            raise ValueError(
                f"step must be at most the block side min(k_hard, k_wie) = "
                f"{min(self.k_hard, self.k_wie)}, or some pixels get no estimate")
        if self.search_radius < 0:
            raise ValueError("search_radius must be at least 0 pixels")


# tau pairs follow the noise level: heavy noise needs looser matching
HIGH_NOISE_SIGMA_CUTOFF = 40.0


def default_profile(sigma: float) -> Bm3dProfile:
    """Stage thresholds picked by the noise level (8-bit sigma)."""
    if sigma >= HIGH_NOISE_SIGMA_CUTOFF:
        return Bm3dProfile(tau_hard=5000.0, tau_wie=3500.0)
    return Bm3dProfile()


@dataclass(frozen=True)
class BlockGroup:
    """Matched blocks; the first one is the reference."""

    coordinates: np.ndarray         # (G, 2) top-left (row, col)


def _reference_grid(extent: int, k: int, step: int) -> list[int]:
    """Stride-spaced anchors plus the far border so every pixel is covered."""
    anchors = list(range(0, extent - k + 1, step))
    if anchors[-1] != extent - k:
        anchors.append(extent - k)
    return anchors


def block_match(image, ref: tuple[int, int], profile: Bm3dProfile,
                stage: str) -> BlockGroup:
    """Group the blocks nearest to the reference block.

    Candidates are all blocks whose top-left corner lies within the
    search radius; a candidate matches when its per-pixel mean squared
    difference stays below tau (rescaled from the 8-bit convention).
    The group is sorted by ascending distance with the reference first,
    truncated to the stage's maximum size, and padded with copies of
    the reference up to a power of two. Only the search window is
    checked for non-finite intensities; the stages check the whole film.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape {img.shape}")
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
    windows = sliding_window_view(as_gray(img[r0:r1 + k, c0:c1 + k]), (k, k))
    dists = ((windows - ref_block) ** 2).sum(axis=(2, 3)) / (k * k)
    threshold = tau / (k * k * 255.0 * 255.0)

    dists[r - r0, c - c0] = -1.0    # the reference leads; ties keep row-major order
    rows, cols = np.nonzero(dists <= threshold)
    order = np.argsort(dists[rows, cols], kind="stable")[:n_max]
    pad = (1 << (len(order) - 1).bit_length()) - len(order)
    order = np.concatenate([order, np.repeat(order[:1], pad)])
    return BlockGroup(coordinates=np.stack([rows[order] + r0, cols[order] + c0], axis=1))


@functools.lru_cache(maxsize=None)
def _hadamard(g: int) -> np.ndarray:
    """Orthonormal Walsh-Hadamard matrix of order g, built once per size."""
    hmat = hadamard(g) / np.sqrt(g)
    hmat.setflags(write=False)
    return hmat


def _walsh(stacks: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform across the blocks of (B, G, k, k) groups."""
    b, g, k, _ = stacks.shape
    if g == 1:
        return stacks
    return (_hadamard(g) @ stacks.reshape(b, g, k * k)).reshape(b, g, k, k)


def _forward_3d(stacks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT per block, then Walsh-Hadamard across each group."""
    return _walsh(dctn(stacks, axes=(2, 3), norm="ortho"))


def _inverse_3d(coeffs: np.ndarray) -> np.ndarray:
    return idctn(_walsh(coeffs), axes=(2, 3), norm="ortho")


def _collaborative_pass(match_on, image, profile: Bm3dProfile, stage: str,
                        shrink) -> np.ndarray:
    """Group, transform, shrink and aggregate over every reference block.

    Groups are matched on `match_on`; both stacks are cut at the group
    coordinates by one gather from each input. One row of reference blocks is filtered at a time:
    its groups are stacked by size into (B, G, k, k) arrays, and
    `shrink(matched_stacks, image_stacks)` returns the shrunk 3-D
    coefficients and one aggregation weight per group. Blocks are
    aggregated in (reference, block) order, so every pixel sums its
    estimates in the same order as a one-group-at-a-time loop.
    """
    k = profile.k_hard if stage == "hard" else profile.k_wie
    h, w = image.shape
    if h < k or w < k:
        raise ValueError("image smaller than one block")
    acc = np.zeros(h * w)
    weights = np.zeros(h * w)
    matched_windows = sliding_window_view(match_on, (k, k))
    image_windows = sliding_window_view(image, (k, k))
    block_offsets = (np.arange(k)[:, None] * w + np.arange(k)).ravel()
    anchor_cols = _reference_grid(w, k, profile.step)
    for r in _reference_grid(h, k, profile.step):
        groups = [block_match(match_on, (r, c), profile, stage) for c in anchor_cols]
        sizes = np.array([len(group.coordinates) for group in groups])
        starts = np.cumsum(sizes) - sizes
        coords = np.concatenate([group.coordinates for group in groups])
        estimates = np.empty((len(coords), k, k))
        block_weights = np.empty(len(coords))
        for g in np.unique(sizes):
            refs = np.flatnonzero(sizes == g)
            slots = (starts[refs, None] + np.arange(g)).ravel()
            rows, cols = coords[slots, 0], coords[slots, 1]
            matched_g = matched_windows[rows, cols].reshape(-1, g, k, k)
            image_g = image_windows[rows, cols].reshape(-1, g, k, k)
            coeffs, weight = shrink(matched_g, image_g)
            estimates[slots] = _inverse_3d(coeffs).reshape(-1, k, k)
            block_weights[slots] = np.repeat(weight, g)
        pixels = ((coords[:, 0] * w + coords[:, 1])[:, None] + block_offsets).ravel()
        np.add.at(acc, pixels, (block_weights[:, None, None] * estimates).ravel())
        np.add.at(weights, pixels, np.repeat(block_weights, k * k))
    return np.clip(acc / weights, 0.0, 1.0).reshape(h, w)


def hard_stage(noisy, sigma: float, profile: Bm3dProfile) -> np.ndarray:
    """Hard-threshold pass; sigma is the noise std on the 8-bit scale."""
    if sigma <= 0:
        raise ValueError("noise sigma must be positive")
    img = as_gray(noisy)
    threshold = profile.lambda_3d * sigma / 255.0

    def shrink(_, stacks):
        coeffs = _forward_3d(stacks)
        keep = np.abs(coeffs) >= threshold
        keep[:, 0, 0, 0] = True     # never drop a group's DC component
        return np.where(keep, coeffs, 0.0), 1.0 / (1.0 + keep.sum(axis=(1, 2, 3)))

    return _collaborative_pass(img, img, profile, "hard", shrink)


def wiener_stage(noisy, basic, sigma: float, profile: Bm3dProfile) -> np.ndarray:
    """Wiener pass: match on the basic estimate, shrink the noisy stack."""
    img = as_gray(noisy)
    base = as_gray(basic)
    if img.shape != base.shape:
        raise ValueError("basic estimate dimensions do not match the noisy image")
    if sigma <= 0:
        raise ValueError("noise sigma must be positive")
    noise_var = (sigma / 255.0) ** 2

    def shrink(basic_stacks, noisy_stacks):
        basic_coeffs = _forward_3d(basic_stacks)
        gain = basic_coeffs ** 2 / (basic_coeffs ** 2 + noise_var)
        energy = (gain ** 2).reshape(len(gain), -1).sum(axis=1)
        return gain * _forward_3d(noisy_stacks), 1.0 / (1.0 + energy)

    return _collaborative_pass(base, img, profile, "wiener", shrink)


def bm3d_denoise(noisy, sigma: float, profile: Bm3dProfile) -> np.ndarray:
    """Full two-stage denoise: Wiener pass guided by the hard pass."""
    basic = hard_stage(noisy, sigma, profile)
    return wiener_stage(noisy, basic, sigma, profile)
