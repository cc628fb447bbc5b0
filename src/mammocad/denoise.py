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

Matching is done a row of reference blocks at a time: the first
`block_match` call of a row computes the distances of every candidate
of every reference on that row and selects all the row's groups in one
vectorised pass, and each call returns its own group. The sums follow
one stated order on every film width: each block row's 8 squared
differences pairwise, ((0+1)+(2+3))+((4+5)+(6+7)), each 4-term half
shared by the two references 4 pixels apart that cover it, then the 8
block rows in sequence. That is the order in which numpy reduces a
(rows, columns, 8, 8) window stack over its last two axes, except on a
film 8 pixels wide, where numpy sums each window's 64 terms as one run.
Reference rows are 4 pixels apart, so the sum of a row's lower 4 block
rows is the first 3 additions of the next row's sums at the same
displacement; it is carried there, so a row forms only its lower 4
block rows, and the first row and a far-border row all 8. The stages
check the film and sigma once, on entry.
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
_PASS_TERMS = 1 << 16               # squared differences formed per matching pass
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


def _pairwise_8(terms: np.ndarray, n: int, out=None) -> np.ndarray:
    """Sums of 8 consecutive terms along the last axis, starting every 4.

    The last axis holds 4n + 4 terms. Each window is summed in numpy's
    pairwise order for a run of 8, ((0+1)+(2+3))+((4+5)+(6+7)), so the
    4-term half sums are formed once and each is shared by the two
    windows that overlap on it.
    """
    quads = terms.reshape(*terms.shape[:-1], n + 1, 4)
    halves = quads[..., 0] + quads[..., 1]
    halves += quads[..., 2] + quads[..., 3]
    return np.add(halves[..., :-1], halves[..., 1:], out=out)


def _runs(cols: list[int]) -> list[tuple[int, int, int]]:
    """Split ascending anchor columns into runs 4 pixels apart, as (index, column, count)."""
    starts = [a for a in range(len(cols)) if a == 0 or cols[a] != cols[a - 1] + STEP] + [len(cols)]
    return [(a, cols[a], b - a) for a, b in zip(starts, starts[1:])]


def _block_row_sums(film: np.ndarray, top: int, count: int, shifts: range, cols: list[int]):
    """Yield the per-anchor block-row sums of film rows top, ..., top + count - 1.

    Each is a new (len(shifts), 33, len(cols)) array: entry [i, j, a] sums
    the squared differences between the 8 pixels of the row under the
    block of anchor a, columns cols[a] to cols[a] + 7, and the pixels
    j - 16 columns to their right in the row shifts[i] below, which read
    zero off the film. The 8 terms are summed in numpy's pairwise
    order, each 4-term half shared by the two anchors 4 pixels apart
    that cover it. The squares are formed a few shifts at a time, so
    that one pass's stay in a core's cache.
    """
    k, rad = BLOCK, SEARCH_RADIUS
    w = film.shape[1]
    lo, hi = cols[0], cols[-1] + k
    x0, x1 = max(lo - rad, 0), min(hi + rad, w)
    band = np.zeros((count + len(shifts) - 1, hi - lo + 2 * rad))
    band[:, x0 - lo + rad:x1 - lo + rad] = film[top + shifts[0]:top + count + shifts[-1], x0:x1]
    candidates = sliding_window_view(band, hi - lo, axis=1)
    runs = _runs(cols)
    squares = np.empty((max(1, _PASS_TERMS // ((2 * rad + 1) * (hi - lo))), 2 * rad + 1, hi - lo))
    for p in range(count):
        sums = np.empty((len(shifts), 2 * rad + 1, len(cols)))
        for i in range(0, len(shifts), len(squares)):
            part = squares[:len(shifts) - i]
            np.subtract(candidates[p + i:p + i + len(part)], film[top + p, lo:hi], out=part)
            part *= part
            for a, first, n in runs:
                _pairwise_8(part[..., first - lo:first - lo + STEP * n + STEP], n,
                            out=sums[i:i + len(part), :, a:a + n])
        yield sums


def _search_span(x: int, extent: int) -> tuple[int, int]:
    """First and last candidate corner within the search radius of x."""
    return max(0, x - SEARCH_RADIUS), min(extent - BLOCK, x + SEARCH_RADIUS)


def _row_distances(film: np.ndarray, r: int, cols: list[int], carried):
    """Candidate distances of the references at row r, and the carry for row r + 4.

    `cols` holds the references' ascending columns. The distances are a
    new (len(cols), rows, 33) array: entry [a, i, j] is the candidate at
    the i-th row of r's search span and column cols[a] + j - 16, and is
    infinite when that column is off the film. A distance is its 8
    block-row sums added in sequence. Block rows 4 to 7 of row r are
    block rows 0 to 3 of row r + 4 at the same displacement, so their
    sum is returned as the carry: `carried`, the carry of row r - 4,
    is then the first 3 additions of every distance here, and only
    block rows 4 to 7 are formed. With `carried` None, as for the first
    row and a far-border row, all 8 are. The carry covers the
    displacements of row r + 4, up to 4 rows higher than r's. A film 8
    pixels wide takes this path too, with its one column of references.
    """
    k, rad = BLOCK, SEARCH_RADIUS
    h, w = film.shape
    r0, r1 = _search_span(r, h)
    shifts = range(r0 - r, r1 - r + 1)
    if carried is None:
        upper = _block_row_sums(film, r, STEP, shifts, cols)
        total = next(upper)
        for sums in upper:
            total += sums
    else:
        total = carried[:len(shifts)].copy()
    ahead = range(-min(rad, r + STEP), shifts.stop)
    skip = len(ahead) - len(shifts)
    lower = _block_row_sums(film, r + STEP, STEP, ahead, cols)
    carry = next(lower)
    total += carry[skip:]
    for sums in lower:
        total += sums[skip:]
        carry += sums
    dists = np.empty((len(cols), len(shifts), 2 * rad + 1))
    np.divide(total.transpose(2, 0, 1), k * k, out=dists)
    off = np.add.outer(cols, np.arange(-rad, rad + 1))
    np.copyto(dists, np.inf, where=((off < 0) | (off > w - k))[:, None, :])
    return dists, carry


def _select_groups(dists: np.ndarray, r: int, cols: list[int], r0: int,
                   threshold: float) -> list[BlockGroup]:
    """The groups of every reference on row r, from its `_row_distances`.

    `r0` is the first row of r's search span. For each reference, the
    candidates within `threshold`, the reference first, then by
    ascending distance with ties in row-major order, at most 16, padded
    with copies of the reference up to a power of two. Overwrites the
    references' own distances in `dists`.
    """
    rad = SEARCH_RADIUS
    span = dists.shape[2]
    dists[:, r - r0, rad] = -1.0        # the reference leads; ties keep row-major order
    d = dists.reshape(len(cols), -1)
    passed = d <= threshold
    crowded = np.flatnonzero(passed.sum(axis=1) > GROUP_MAX)
    if len(crowded):
        # a stable sort's first GROUP_MAX entries are those below its
        # GROUP_MAX-th value and, in row-major order, the first that tie with it
        within = np.where(passed[crowded], d[crowded], np.inf)
        cut = np.partition(within, GROUP_MAX - 1, axis=1)[:, GROUP_MAX - 1:GROUP_MAX]
        kept = within <= cut
        over = np.flatnonzero(kept.sum(axis=1) > GROUP_MAX)
        if len(over):
            tied = within[over] == cut[over]
            room = GROUP_MAX - (kept[over] & ~tied).sum(axis=1, keepdims=True)
            kept[over] &= ~tied | (np.cumsum(tied, axis=1) <= room)
        passed[crowded] = kept
    anchor, flat = np.divmod(np.flatnonzero(passed), d.shape[1])
    order = np.lexsort((d[anchor, flat], anchor))
    anchor, flat = anchor[order], flat[order]
    sizes = np.bincount(anchor, minlength=len(cols))
    padded = np.array([1 << (n - 1).bit_length() for n in range(GROUP_MAX + 1)])[sizes]
    starts = np.cumsum(padded) - padded
    anchors = np.array(cols)
    coords = np.empty((padded.sum(), 2), dtype=np.intp)
    coords[:, 0] = r
    coords[:, 1] = np.repeat(anchors, padded)
    slots = starts[anchor] + np.arange(len(anchor)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    coords[slots, 0] = flat // span + r0
    coords[slots, 1] = flat % span + anchors[anchor] - rad
    return [BlockGroup(coordinates=coords[start:start + g])
            for start, g in zip(starts.tolist(), padded.tolist())]


class RowDistances:
    """The film a stage matches on, with the groups of one row of references.

    `block_match` takes it, not the film, which its stage checked with
    `as_gray`. The first call for a reference row computes the candidate
    distances of every anchor in `cols` on that row in one vectorised
    pass and selects all their groups at once; the later calls of the
    row, one per anchor, return their group. The block-row sums that a
    row shares with the row 4 pixels below it are carried there, so a
    row taken right after the row 4 pixels above it forms only its own
    lower 4 block rows.
    """

    def __init__(self, image, cols: list[int]):
        self.image = image
        self.cols = cols
        self._slot = {c: a for a, c in enumerate(cols)}
        self._key = self._carry = self._groups = None

    def group(self, r: int, c: int, threshold: float) -> BlockGroup:
        """The group of the reference at (r, c) under `threshold`."""
        if (r, threshold) != self._key:
            carried = self._carry if self._key is not None and self._key[0] == r - STEP else None
            dists, self._carry = _row_distances(self.image, r, self.cols, carried)
            r0 = _search_span(r, self.image.shape[0])[0]
            self._groups = _select_groups(dists, r, self.cols, r0, threshold)
            self._key = (r, threshold)
        return self._groups[self._slot[c]]


def block_match(matcher, ref: tuple[int, int], sigma: float, stage: str) -> BlockGroup:
    """Group the blocks nearest to the reference block at `ref`.

    Candidates are all 8 x 8 blocks whose top-left corner lies within
    16 pixels of the reference's in both directions; a candidate
    matches when its per-pixel mean squared difference is at most
    tau / (8^2 * 255^2), with tau the stage's `match_tau` at sigma,
    which divides by the block area twice (ROADMAP item 2a). The group
    is sorted by ascending distance, ties in row-major order, with the
    reference first, truncated to 16 blocks, and padded with copies of
    the reference up to a power of two. `matcher` is the stage's
    `RowDistances`, and `ref` lies on one of its columns.
    """
    r, c = ref
    return matcher.group(r, c, match_tau(sigma, stage) / (BLOCK * BLOCK * 255.0 * 255.0))


@functools.lru_cache(maxsize=None)
def _hadamard(g: int) -> np.ndarray:
    """Unnormalised Walsh-Hadamard matrix of order g, a power of two, built once per size.

    Sylvester's doubling [[H, H], [H, -H]] from [[1]]: every entry is
    +1 or -1, held as float64 so the product with a stack runs in BLAS.
    """
    hmat = np.ones((1, 1))
    while len(hmat) < g:
        hmat = np.block([[hmat, hmat], [hmat, -hmat]])
    hmat.setflags(write=False)
    return hmat


def _walsh(stacks: np.ndarray) -> np.ndarray:
    """Orthonormal Walsh-Hadamard transform across the blocks of (B, G, k, k)
    groups: the product with the ±1 matrix, whose every product is exact, so
    BLAS kernels with and without FMA round it alike, then one division by √G."""
    b, g, k, _ = stacks.shape
    return (_hadamard(g) @ stacks.reshape(b, g, k * k)).reshape(b, g, k, k) / np.sqrt(g)


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
