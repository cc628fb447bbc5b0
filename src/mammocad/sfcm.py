"""Spatial fuzzy c-means clustering.

Memberships live in a C x N matrix whose columns sum to 1 (N pixels in
row-major order). Each iteration alternates the classic c-means update
with a spatial refinement that mixes every membership with the
membership mass of its neighbourhood, which suppresses isolated
misclassified pixels. Exponents p=1, q=0 recover plain fuzzy c-means.
`sfcm_run` checks the film and an explicit start once; its steps do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import as_gray, check_settings


class DegenerateClusterError(RuntimeError):
    """Raised when a cluster loses all of its membership mass."""


@dataclass(frozen=True)
class SfcmConfig:
    clusters: int = 4
    fuzziness: float = 2.0          # exponent on memberships in the objective
    p: float = 1.0                  # membership weight in the spatial mix
    q: float = 1.0                  # neighbourhood weight in the spatial mix
    window_radius: int = 2          # 5x5 neighbourhood
    tol: float = 1e-4               # convergence threshold on max |dmu|
    max_iter: int = 100

    def __post_init__(self):
        check_settings("sfcm", self, positive=("tol",), at_least_1=("clusters", "max_iter"),
                       non_negative=("window_radius", "p", "q"))
        if self.fuzziness <= 1.0:
            raise ValueError(f"sfcm.fuzziness must exceed 1, got {self.fuzziness}")


def _check_memberships(mu: np.ndarray):
    # fmin skips NaN, so a NaN entry cannot hide a negative one
    if mu.size and np.fmin.reduce(mu, axis=None) < 0:
        raise ValueError("memberships must be non-negative")
    # np.allclose(sums, 1, atol=1e-6) in one buffer: |s - 1| <= atol + rtol;
    # NaN and inf columns fail the comparison
    deviation = mu.sum(axis=0)
    deviation -= 1.0
    np.abs(deviation, out=deviation)
    if deviation.size and not deviation.max() <= 1e-6 + 1e-5:
        raise ValueError("membership columns must sum to 1")


def fcm_iterate(image, memberships, config: SfcmConfig) -> tuple[np.ndarray, np.ndarray]:
    """One c-means sweep: centers from memberships, then memberships back.

    Takes a 2-D float64 film of N pixels and a C x N column-stochastic
    float64 matrix, as `sfcm_run` checked them."""
    intensities = image.ravel()
    weights = memberships ** config.fuzziness
    mass = weights.sum(axis=1)
    if np.any(mass <= 0.0):
        dead = int(np.argmin(mass))
        raise DegenerateClusterError(f"cluster {dead} has no membership mass")
    centers = weights @ intensities / mass
    # the powered memberships are spent; their buffer takes the distances
    return _memberships(intensities, centers, config.fuzziness, weights), centers


def _memberships(intensities, centers, fuzziness, out) -> np.ndarray:
    """Memberships of every pixel at fixed centers, written into `out` (C x N).

    A pixel that coincides exactly with a center gets full membership
    in the lowest such cluster.
    """
    np.subtract(intensities[None, :], centers[:, None], out=out)
    np.square(out, out=out)
    # min() is NaN when any entry is, which also takes the exact-centre test
    exact = None if out.min() > 0.0 else out == 0.0
    # a distance of 0 powers to inf, so its column divides to NaN or 0;
    # those columns are overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        # in-place ** takes the same scalar-exponent paths as the binary form
        out **= -1.0 / (fuzziness - 1.0)
        out /= out.sum(axis=0)
    if exact is not None:
        singular = np.flatnonzero(exact.any(axis=0))
        out[:, singular] = 0.0
        out[np.argmax(exact[:, singular], axis=0), singular] = 1.0
    return out


def _box_mean_down(planes, size, out):
    """Running mean over `size` rows, replicate borders, for (C, h, w) planes.

    Byte-equal to scipy's ``uniform_filter1d(plane, size, axis=0,
    mode="nearest")`` on each plane: a sum started at 0.0, then plus
    (entering row - leaving row) per output row, each output the sum
    divided by size. scipy copies each axis-0 line out through a strided
    buffer, which dominates its time on large row-major planes; stepping
    whole rows of every plane at once reads memory in order instead.
    """
    c, h, w = planes.shape
    half = size // 2
    rows = np.clip(np.arange(-half, h + size - 1 - half), 0, h - 1)
    total = np.zeros((c, w))
    for j in rows[:size]:
        total += planes[:, j]
    np.divide(total, size, out=out[:, 0])
    step = np.empty_like(total)
    for i in range(1, h):
        np.subtract(planes[:, rows[i + size - 1]], planes[:, rows[i - 1]], out=step)
        total += step
        np.divide(total, size, out=out[:, i])


def spatial_refine(memberships, config: SfcmConfig, shape) -> np.ndarray:
    """Mix memberships with their windowed neighbourhood mass.

    h is the per-cluster sum of memberships over a (2r+1)^2 window with
    replicate borders; the refined membership is mu^p * h^q,
    renormalized per pixel. Takes a C x N column-stochastic float64
    matrix for a film of `shape`, as `sfcm_run` checked it.
    """
    size = 2 * config.window_radius + 1
    planes = memberships.reshape(-1, *shape)
    mixed = np.empty_like(memberships)
    window_sum = mixed.reshape(planes.shape)
    # the same arithmetic as ndimage.uniform_filter on each plane
    if size == 1:
        window_sum[...] = planes
    else:
        _box_mean_down(planes, size, window_sum)
        ndimage.uniform_filter1d(window_sum, size, axis=2, mode="nearest",
                                 output=window_sum)
    # two scalings, as (x * size) * size rounds; size**2 at once does not
    mixed *= size
    mixed *= size
    # the sliding accumulator can round an all-zero window to -1e-17
    np.maximum(mixed, 0.0, out=mixed)
    # x ** 1 is a copy of x, so exponents of 1 are skipped
    if config.q != 1:
        mixed **= config.q
    mixed *= memberships if config.p == 1 else memberships ** config.p
    norms = mixed.sum(axis=0)
    if np.any(norms <= 0.0):
        raise DegenerateClusterError("spatial mixing produced an all-zero pixel column")
    mixed /= norms
    return mixed


def sfcm_run(image, config: SfcmConfig = SfcmConfig(), init=None):
    """Cluster an image; returns (memberships, centers, iterations_used).

    Starts from the memberships at `clusters` centers spread evenly over
    the image's intensity range (or from an explicit init) and
    alternates ``fcm_iterate`` and ``spatial_refine`` until the largest
    membership change drops below the tolerance. When every pixel sits
    on a start center (a two-level image at three clusters), a center
    with no pixel gets no membership and the first sweep raises
    DegenerateClusterError. Squared distances that overflow (film values
    near 1e300) turn the memberships NaN: ValueError in iteration 1.
    """
    img = as_gray(image)
    n = img.size
    if config.clusters >= 2 and img.max() == img.min():
        raise ValueError("constant image cannot support multiple clusters")
    if init is not None:
        mu = np.asarray(init, dtype=np.float64).copy()
        if mu.shape != (config.clusters, n):
            raise ValueError("init membership shape mismatch")
        _check_memberships(mu)
    else:
        start = np.linspace(img.min(), img.max(), config.clusters)
        mu = _memberships(img.ravel(), start, config.fuzziness, np.empty((config.clusters, n)))

    change = np.empty_like(mu)
    for iterations in range(1, config.max_iter + 1):
        previous = mu
        mu, centers = fcm_iterate(img, mu, config)
        mu = spatial_refine(mu, config, img.shape)
        np.subtract(mu, previous, out=change)
        largest = np.abs(change, out=change).max()
        if largest < config.tol:
            break
        if np.isnan(largest):
            raise ValueError("memberships turned NaN: the film's squared distances overflow")
    return mu, centers, iterations


def tumor_membership_map(memberships, centers, shape) -> np.ndarray:
    """Membership plane of the brightest cluster, reshaped to the image.

    Takes `sfcm_run`'s (clusters, pixels) float64 memberships and its
    centres. Masses are hyper-intense, so the cluster with the highest
    center intensity is taken as the tumor cluster; ties go to the
    lowest index.
    """
    return memberships[int(np.argmax(centers))].reshape(shape)
