"""Two-stage collaborative denoising (hard-threshold pass + Wiener pass).

Similar blocks are stacked into 3-D groups, transformed with a 2-D DCT
per slice and a 1-D Walsh-Hadamard transform across the stack, shrunk
in the transform domain, and aggregated back with per-group weights.
Both stages use one fixed matching geometry, Lebrun's (IPOL 2012):
8 x 8 blocks, reference blocks every 4 pixels, candidates whose
top-left corner lies within 16 pixels, groups of at most 16 blocks.
The noise level sigma is the one input: it scales the hard threshold,
lambda_3D * sigma with lambda_3D = 2.7, and the Wiener noise, and it
picks the match thresholds tau of `match_tau`. A candidate block joins
a group when its per-pixel mean squared difference from the reference,
on [0, 1] intensities, is at most tau / (8^2 * 255^2). That divides by
the block area twice, so tau does not act on the 8-bit squared-distance
scale its values come from (ROADMAP item 2a).

Distances are computed a row of reference blocks at a time: the first
`block_match` call of a row fills a `RowDistances` with the distances
of every candidate of every reference on that row, and each call then
selects its own group. The sums keep the order in which numpy reduces
a (rows, columns, 8, 8) window stack over its last two axes: each
block row's 8 squared differences pairwise,
((0+1)+(2+3))+((4+5)+(6+7)), each 4-term half shared by the two
references 4 pixels apart that cover it, then the 8 block rows in
sequence. So the distances are bit for bit those of that reduction,
taken one reference at a time. The film is checked once, when it is
wrapped in its `RowDistances`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dctn, idctn

from .core import as_gray

BLOCK = 8                           # block side
STEP = 4                            # reference-block stride
SEARCH_RADIUS = 16                  # candidate corners within this many pixels
GROUP_MAX = 16                      # max group size, a power of two
LAMBDA_3D = 2.7                     # hard-threshold coefficient


def match_tau(sigma: float, stage: str) -> float:
    """Match threshold of the "hard" or "wiener" stage at noise sigma (8-bit scale).

    Heavy noise needs looser matching: 400 and 2500 below sigma 40,
    5000 and 3500 from sigma 40 up, on the 8-bit squared scale.
    """
    if stage == "hard":
        return 5000.0 if sigma >= 40.0 else 400.0
    if stage == "wiener":
        return 3500.0 if sigma >= 40.0 else 2500.0
    raise ValueError(f"unknown stage {stage!r}")


@dataclass(frozen=True)
class BlockGroup:
    """Matched blocks; the first one is the reference."""

    coordinates: np.ndarray         # (G, 2) top-left (row, col)


def _reference_grid(extent: int) -> list[int]:
    """Stride-spaced anchors plus the far border so every pixel is covered."""
    anchors = list(range(0, extent - BLOCK + 1, STEP))
    if anchors[-1] != extent - BLOCK:
        anchors.append(extent - BLOCK)
    return anchors


def _sequential_sum(terms: np.ndarray) -> np.ndarray:
    """Sum along the first axis, one term after another."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def _pairwise_8(terms: np.ndarray, n: int) -> np.ndarray:
    """Sums of 8 consecutive terms along the last axis, starting every 4.

    The last axis holds 4n + 4 terms. Each window is summed in numpy's
    pairwise order for a run of 8, ((0+1)+(2+3))+((4+5)+(6+7)), so the
    4-term half sums are formed once and each is shared by the two
    windows that overlap on it.
    """
    quads = terms.reshape(*terms.shape[:-1], n + 1, 4)
    halves = (quads[..., 0] + quads[..., 1]) + (quads[..., 2] + quads[..., 3])
    return halves[..., :-1] + halves[..., 1:]


def _runs(cols: list[int]) -> list[tuple[int, int, int]]:
    """Split ascending anchor columns into runs 4 pixels apart, as (index, column, count)."""
    starts = [a for a in range(len(cols)) if a == 0 or cols[a] != cols[a - 1] + STEP] + [len(cols)]
    return [(a, cols[a], b - a) for a, b in zip(starts, starts[1:])]


def _row_distances(film: np.ndarray, r: int, cols: list[int], rows: range) -> np.ndarray:
    """Candidate distances of the references at row r, as (len(cols), len(rows), 33).

    `cols` holds the references' ascending columns and `rows` the
    candidate rows. Entry [a, i, j] is the candidate at
    (rows[i], cols[a] + j - 16); entries off the film are zero-padded
    columns' distances. Each candidate row is subtracted at all 33
    column offsets at once, squared and summed in the module's stated
    order. On a film 8 pixels wide numpy reduces each window's 64 terms
    as one run, so there each column's 8 rows are summed in sequence
    first and the 8 columns pairwise.
    """
    k, rad = BLOCK, SEARCH_RADIUS
    w = film.shape[1]
    lo, hi = cols[0], cols[-1] + k
    band = np.zeros((len(rows) + k - 1, hi - lo + 2 * rad))
    x0, x1 = max(lo - rad, 0), min(hi + rad, w)
    band[:, x0 - lo + rad:x1 - lo + rad] = film[rows[0]:rows[-1] + k, x0:x1]
    candidates = sliding_window_view(band, hi - lo, axis=1)
    ref_rows = film[r:r + k, None, lo:hi]
    runs = _runs(cols)
    out = np.empty((len(rows), 2 * rad + 1, len(cols)))
    squares = np.empty((k, 2 * rad + 1, hi - lo))
    for i in range(len(rows)):
        np.subtract(candidates[i:i + k], ref_rows, out=squares)
        squares *= squares
        if w == k:
            out[i] = _pairwise_8(_sequential_sum(squares), 1)
            continue
        for a, first, n in runs:
            terms = squares[..., first - lo:first - lo + STEP * n + STEP]
            out[i, :, a:a + n] = _sequential_sum(_pairwise_8(terms, n))
    out /= k * k
    return out.transpose(2, 0, 1)


def _search_span(x: int, extent: int) -> tuple[int, int]:
    """First and last candidate corner within the search radius of x."""
    return max(0, x - SEARCH_RADIUS), min(extent - BLOCK, x + SEARCH_RADIUS)


class RowDistances:
    """The film a stage matches on, with the distances of one row of references.

    `block_match` takes it in place of the film. The film is checked
    once, here, for a 2-D shape and finite intensities. The first call
    for a reference row computes the candidate distances of every anchor
    in `cols` on that row in one vectorised pass; the later calls of the
    row, one per anchor, only select from them. One row is held at a
    time, so references taken row by row compute each row once.
    """

    def __init__(self, image, cols: list[int]):
        self.image = as_gray(image)
        self.cols = cols
        self._slot = {c: a for a, c in enumerate(cols)}
        self._row = self._dists = None

    def window(self, r: int, c: int) -> np.ndarray:
        """A copy of the distances of the candidates in the search window of (r, c)."""
        (r0, r1), (c0, c1) = _search_span(r, self.image.shape[0]), _search_span(c, self.image.shape[1])
        if r != self._row:
            self._row = r
            self._dists = _row_distances(self.image, r, self.cols, range(r0, r1 + 1))
        offset = c - SEARCH_RADIUS
        return self._dists[self._slot[c], :, c0 - offset:c1 - offset + 1].copy()


def block_match(image, ref: tuple[int, int], sigma: float, stage: str) -> BlockGroup:
    """Group the blocks nearest to the reference block.

    Candidates are all 8 x 8 blocks whose top-left corner lies within
    16 pixels of the reference's in both directions; a candidate
    matches when its per-pixel mean squared difference is at most
    tau / (8^2 * 255^2), with tau the stage's `match_tau` at sigma,
    which divides by the block area twice
    (ROADMAP item 2a). The group is sorted by ascending distance, ties
    in row-major order, with the reference first, truncated to 16
    blocks, and padded with copies of the reference up to a power of
    two. `image` is a film, wrapped and checked with sigma for this one
    reference, or a stage's `RowDistances`, which serves a whole row of
    references from one pass and whose film and sigma the stage checked
    once; the distances are summed in the module's stated order either
    way.
    """
    r, c = ref
    if isinstance(image, RowDistances):
        distances = image
    else:
        _check_sigma(sigma)
        distances = RowDistances(image, [c])
    tau = match_tau(sigma, stage)
    h, w = distances.image.shape
    k = BLOCK
    if not (0 <= r <= h - k and 0 <= c <= w - k):
        raise ValueError(f"reference block {ref} not fully inside the image")

    dists = distances.window(r, c)
    (r0, _), (c0, _), nc = _search_span(r, h), _search_span(c, w), dists.shape[1]
    dists = dists.ravel()
    threshold = tau / (k * k * 255.0 * 255.0)

    dists[(r - r0) * nc + c - c0] = -1.0    # the reference leads; ties keep row-major order
    found = np.flatnonzero(dists <= threshold)
    if len(found) > GROUP_MAX:
        # a stable sort's first GROUP_MAX entries are all within its GROUP_MAX-th value
        found = found[dists[found] <= np.partition(dists[found], GROUP_MAX - 1)[GROUP_MAX - 1]]
    order = found[np.argsort(dists[found], kind="stable")[:GROUP_MAX]]
    pad = (1 << (len(order) - 1).bit_length()) - len(order)
    order = np.concatenate([order, np.repeat(order[:1], pad)])
    return BlockGroup(coordinates=np.stack([order // nc + r0, order % nc + c0], axis=1))


@functools.lru_cache(maxsize=None)
def _hadamard(g: int) -> np.ndarray:
    """Orthonormal Walsh-Hadamard matrix of order g, a power of two, built once per size.

    Sylvester's doubling [[H, H], [H, -H]] from [[1]], in integers, then
    scaled by 1 / sqrt(g).
    """
    hmat = np.ones((1, 1), dtype=int)
    while len(hmat) < g:
        hmat = np.block([[hmat, hmat], [hmat, -hmat]])
    hmat = hmat / np.sqrt(g)
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


def _collaborative_pass(match_on, image, sigma: float, stage: str, shrink) -> np.ndarray:
    """Group, transform, shrink and aggregate over every reference block.

    Groups are matched on `match_on`; both stacks are cut at the group
    coordinates by one gather from each input. One row of reference blocks is filtered at a time:
    its groups are stacked by size into (B, G, 8, 8) arrays, and
    `shrink(matched_stacks, image_stacks)` returns the shrunk 3-D
    coefficients and one aggregation weight per group. Blocks are
    aggregated in (reference, block) order, so every pixel sums its
    estimates in the same order as a one-group-at-a-time loop.
    """
    k = BLOCK
    h, w = image.shape
    if h < k or w < k:
        raise ValueError("image smaller than one block")
    acc = np.zeros(h * w)
    weights = np.zeros(h * w)
    matched_windows = sliding_window_view(match_on, (k, k))
    image_windows = sliding_window_view(image, (k, k))
    block_offsets = (np.arange(k)[:, None] * w + np.arange(k)).ravel()
    anchor_cols = _reference_grid(w)
    row_distances = RowDistances(match_on, anchor_cols)
    for r in _reference_grid(h):
        groups = [block_match(row_distances, (r, c), sigma, stage) for c in anchor_cols]
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


def _check_sigma(sigma: float):
    if not 0 < sigma < math.inf:
        raise ValueError(f"noise sigma must be positive and finite, got {sigma}")


def hard_stage(noisy, sigma: float) -> np.ndarray:
    """Hard-threshold pass; sigma is the noise std on the 8-bit scale."""
    _check_sigma(sigma)
    img = as_gray(noisy)
    threshold = LAMBDA_3D * sigma / 255.0

    def shrink(_, stacks):
        coeffs = _forward_3d(stacks)
        keep = np.abs(coeffs) >= threshold
        keep[:, 0, 0, 0] = True     # never drop a group's DC component
        return np.where(keep, coeffs, 0.0), 1.0 / (1.0 + keep.sum(axis=(1, 2, 3)))

    return _collaborative_pass(img, img, sigma, "hard", shrink)


def wiener_stage(noisy, basic, sigma: float) -> np.ndarray:
    """Wiener pass: match on the basic estimate, shrink the noisy stack."""
    img = as_gray(noisy)
    base = as_gray(basic)
    if img.shape != base.shape:
        raise ValueError("basic estimate dimensions do not match the noisy image")
    _check_sigma(sigma)
    noise_var = (sigma / 255.0) ** 2

    def shrink(basic_stacks, noisy_stacks):
        basic_coeffs = _forward_3d(basic_stacks)
        gain = basic_coeffs ** 2 / (basic_coeffs ** 2 + noise_var)
        energy = (gain ** 2).reshape(len(gain), -1).sum(axis=1)
        return gain * _forward_3d(noisy_stacks), 1.0 / (1.0 + energy)

    return _collaborative_pass(base, img, sigma, "wiener", shrink)


def bm3d_denoise(noisy, sigma: float) -> np.ndarray:
    """Full two-stage denoise: Wiener pass guided by the hard pass."""
    return wiener_stage(noisy, hard_stage(noisy, sigma), sigma)
