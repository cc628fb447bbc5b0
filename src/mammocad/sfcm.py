"""Spatial fuzzy c-means clustering.

Memberships live in a C x N matrix whose columns sum to 1 (N pixels in
row-major order). Each iteration alternates the classic c-means update
with a spatial refinement that mixes every membership with the
membership mass of its neighbourhood, which suppresses isolated
misclassified pixels. Exponents p=1, q=0 recover plain fuzzy c-means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import as_gray


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
    seed: int = 0

    def __post_init__(self):
        if self.clusters < 1:
            raise ValueError("need at least one cluster")
        if self.fuzziness <= 1.0:
            raise ValueError("fuzziness exponent must exceed 1")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("need at least one iteration")


def _check_memberships(mu: np.ndarray):
    if mu.ndim != 2:
        raise ValueError("membership matrix must be C x N")
    if np.any(mu < 0):
        raise ValueError("memberships must be non-negative")
    if not np.allclose(mu.sum(axis=0), 1.0, atol=1e-6):
        raise ValueError("membership columns must sum to 1")


def fcm_iterate(image, memberships, config: SfcmConfig) -> tuple[np.ndarray, np.ndarray]:
    """One c-means sweep: centers from memberships, then memberships back.

    A pixel that coincides exactly with a center gets full membership
    in the lowest such cluster.
    """
    img = as_gray(image)
    intensities = img.ravel()
    mu = np.asarray(memberships, dtype=np.float64)
    _check_memberships(mu)
    powered = mu ** config.fuzziness
    mass = powered.sum(axis=1)
    if np.any(mass <= 0.0):
        dead = int(np.argmin(mass))
        raise DegenerateClusterError(f"cluster {dead} has no membership mass")
    centers = powered @ intensities / mass

    d2 = (intensities[None, :] - centers[:, None]) ** 2
    exact = d2 == 0.0
    with np.errstate(divide="ignore"):
        weights = d2 ** (-1.0 / (config.fuzziness - 1.0))
    new_mu = np.empty_like(weights)
    singular = exact.any(axis=0)
    regular = ~singular
    new_mu[:, regular] = weights[:, regular] / weights[:, regular].sum(axis=0)
    if singular.any():
        new_mu[:, singular] = 0.0
        winners = np.argmax(exact[:, singular], axis=0)
        new_mu[winners, np.flatnonzero(singular)] = 1.0
    return new_mu, centers


def spatial_refine(memberships, config: SfcmConfig, shape) -> np.ndarray:
    """Mix memberships with their windowed neighbourhood mass.

    h is the per-cluster sum of memberships over a (2r+1)^2 window with
    replicate borders; the refined membership is mu^p * h^q,
    renormalized per pixel.
    """
    mu = np.asarray(memberships, dtype=np.float64)
    _check_memberships(mu)
    h, w = shape
    if mu.shape[1] != h * w:
        raise ValueError("membership size does not match the image dimensions")
    size = 2 * config.window_radius + 1
    mixed = np.empty_like(mu)
    for m in range(mu.shape[0]):
        plane = mu[m].reshape(h, w)
        window_sum = ndimage.uniform_filter(plane, size=size, mode="nearest") * size * size
        # the sliding accumulator can round an all-zero window to -1e-17
        window_sum = np.maximum(window_sum, 0.0)
        mixed[m] = (mu[m] ** config.p) * (window_sum.ravel() ** config.q)
    norms = mixed.sum(axis=0)
    if np.any(norms <= 0.0):
        raise DegenerateClusterError("spatial mixing produced an all-zero pixel column")
    return mixed / norms


def objective(image, memberships, centers, fuzziness: float) -> float:
    """Weighted within-cluster squared error the iteration minimizes."""
    intensities = as_gray(image).ravel()
    mu = np.asarray(memberships, dtype=np.float64)
    v = np.asarray(centers, dtype=np.float64)
    d2 = (intensities[None, :] - v[:, None]) ** 2
    return float(((mu ** fuzziness) * d2).sum())


def sfcm_run(image, config: SfcmConfig = SfcmConfig(), init=None, on_iteration=None):
    """Cluster an image; returns (memberships, centers, iterations_used).

    Starts from seeded random memberships (or an explicit init) and
    alternates ``fcm_iterate`` and ``spatial_refine`` until the largest
    membership change drops below the tolerance. Deterministic for a
    fixed seed.
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
        rng = np.random.default_rng(config.seed)
        mu = rng.random((config.clusters, n))
        mu /= mu.sum(axis=0)

    centers = np.zeros(config.clusters)
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        previous = mu
        mu, centers = fcm_iterate(img, mu, config)
        mu = spatial_refine(mu, config, img.shape)
        if on_iteration is not None:
            on_iteration(iterations, mu, centers)
        if np.abs(mu - previous).max() < config.tol:
            break
    return mu, centers, iterations


def tumor_membership_map(memberships, centers, shape) -> np.ndarray:
    """Membership plane of the brightest cluster, reshaped to the image.

    Masses are hyper-intense, so the cluster with the highest center
    intensity is taken as the tumor cluster; ties go to the lowest
    index.
    """
    mu = np.asarray(memberships, dtype=np.float64)
    v = np.asarray(centers, dtype=np.float64)
    winner = int(np.argmax(v))
    return mu[winner].reshape(shape)
