"""The allocate-per-step spatial fuzzy c-means, kept as the oracle.

`oracle_check_memberships`, `oracle_fcm_iterate`, `oracle_spatial_refine`
and `oracle_sfcm_run` below are the sweep, the spatial mix, the
membership check and the run loop as `mammocad.sfcm` wrote them before
it normalised, scaled and clamped in place and summed the windows down
whole rows of all planes at once; `oracle_sfcm_run` starts from
`oracle_memberships` at centers spread evenly over the intensity range.
The new versions do the same float operations in the same order, so
memberships, centers and iteration counts must match these byte for
byte.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from mammocad import sfcm
from mammocad.core import as_gray
from mammocad.sfcm import DegenerateClusterError, SfcmConfig


def oracle_check_memberships(mu):
    if mu.ndim != 2:
        raise ValueError("membership matrix must be C x N")
    if np.any(mu < 0):
        raise ValueError("memberships must be non-negative")
    if not np.allclose(mu.sum(axis=0), 1.0, atol=1e-6):
        raise ValueError("membership columns must sum to 1")


def oracle_fcm_iterate(image, memberships, config):
    img = as_gray(image)
    intensities = img.ravel()
    mu = np.asarray(memberships, dtype=np.float64)
    oracle_check_memberships(mu)
    powered = mu ** config.fuzziness
    mass = powered.sum(axis=1)
    if np.any(mass <= 0.0):
        dead = int(np.argmin(mass))
        raise DegenerateClusterError(f"cluster {dead} has no membership mass")
    centers = powered @ intensities / mass
    return oracle_memberships(intensities, centers, config.fuzziness), centers


def oracle_memberships(intensities, centers, fuzziness):
    d2 = (intensities[None, :] - centers[:, None]) ** 2
    exact = d2 == 0.0
    with np.errstate(divide="ignore"):
        weights = d2 ** (-1.0 / (fuzziness - 1.0))
    new_mu = np.empty_like(weights)
    singular = exact.any(axis=0)
    regular = ~singular
    new_mu[:, regular] = weights[:, regular] / weights[:, regular].sum(axis=0)
    if singular.any():
        new_mu[:, singular] = 0.0
        winners = np.argmax(exact[:, singular], axis=0)
        new_mu[winners, np.flatnonzero(singular)] = 1.0
    return new_mu


def oracle_window_sum(plane, size):
    return ndimage.uniform_filter(plane, size=size, mode="nearest") * size * size


def oracle_spatial_refine(memberships, config, shape):
    mu = np.asarray(memberships, dtype=np.float64)
    oracle_check_memberships(mu)
    h, w = shape
    if mu.shape[1] != h * w:
        raise ValueError("membership size does not match the image dimensions")
    size = 2 * config.window_radius + 1
    mixed = np.empty_like(mu)
    for m in range(mu.shape[0]):
        plane = mu[m].reshape(h, w)
        window_sum = oracle_window_sum(plane, size)
        window_sum = np.maximum(window_sum, 0.0)
        mixed[m] = (mu[m] ** config.p) * (window_sum.ravel() ** config.q)
    norms = mixed.sum(axis=0)
    if np.any(norms <= 0.0):
        raise DegenerateClusterError("spatial mixing produced an all-zero pixel column")
    return mixed / norms


def oracle_sfcm_run(image, config, init=None):
    img = as_gray(image)
    if init is not None:
        mu = np.asarray(init, dtype=np.float64).copy()
    else:
        start = np.linspace(img.min(), img.max(), config.clusters)
        mu = oracle_memberships(img.ravel(), start, config.fuzziness)
    centers = np.zeros(config.clusters)
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        previous = mu
        mu, centers = oracle_fcm_iterate(img, mu, config)
        mu = oracle_spatial_refine(mu, config, img.shape)
        if np.abs(mu - previous).max() < config.tol:
            break
    return mu, centers, iterations


def assert_same_bytes(got, want):
    for a, b in zip(got, want):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


def smooth_image(shape, seed):
    """Three intensity levels plus blur and noise, so clusters have structure."""
    rng = np.random.default_rng(seed)
    h, w = shape
    img = np.full(shape, 0.2)
    img[: h // 2, w // 3:] = 0.5
    img[h // 3: 2 * h // 3, w // 4: w // 2] = 0.85
    img = ndimage.gaussian_filter(img, 1.0) + 0.03 * rng.standard_normal(shape)
    return np.clip(img, 0.0, 1.0)


SHAPES = [(20, 20), (13, 27)]
PQ = [(1.0, 1.0), (1.0, 0.0), (2.0, 1.0), (0.5, 2.0)]
RADII = [0, 1, 2]


@pytest.mark.parametrize("clusters", [1, 2, 4, 5])
@pytest.mark.parametrize("fuzziness", [1.5, 2.0, 3.0])
def test_run_matches_oracle_byte_for_byte(clusters, fuzziness):
    rng = np.random.default_rng(clusters)
    for shape, (p, q), radius in itertools.product(SHAPES, PQ, RADII):
        config = SfcmConfig(clusters=clusters, fuzziness=fuzziness, p=p, q=q,
                            window_radius=radius, max_iter=30)
        image = smooth_image(shape, seed=radius)
        assert_same_bytes(sfcm.sfcm_run(image, config), oracle_sfcm_run(image, config))
        # and from an arbitrary start
        init = rng.random((clusters, image.size))
        init /= init.sum(axis=0)
        assert_same_bytes(sfcm.sfcm_run(image, config, init=init),
                          oracle_sfcm_run(image, config, init=init))


@pytest.mark.parametrize("clusters", [1, 2, 4, 5])
def test_single_steps_match_oracle_byte_for_byte(clusters):
    rng = np.random.default_rng(clusters)
    for shape, (p, q), radius in itertools.product(SHAPES, PQ, RADII):
        config = SfcmConfig(clusters=clusters, p=p, q=q, window_radius=radius)
        image = rng.random(shape)
        mu = rng.random((clusters, image.size))
        mu /= mu.sum(axis=0)
        assert_same_bytes(sfcm.fcm_iterate(image, mu, config),
                          oracle_fcm_iterate(image, mu, config))
        assert_same_bytes([sfcm.spatial_refine(mu, config, shape)],
                          [oracle_spatial_refine(mu, config, shape)])


def test_exact_center_branch_matches_oracle():
    # dyadic values keep every center sum exact, so center 0 lands on 0.25
    # exactly while center 1 does not: some columns are singular, some not
    image = np.full((8, 8), 0.25)
    image[:, 4:] = 0.75
    image[0, 0], image[0, 1] = 0.125, 0.375
    mu = np.zeros((2, image.size))
    mu[0, image.ravel() == 0.25] = 1.0
    mu[1, image.ravel() == 0.75] = 1.0
    mu[:, :2] = 0.5
    config = SfcmConfig(clusters=2)
    want = oracle_fcm_iterate(image, mu, config)
    assert want[1][0] == 0.25 and want[1][1] != 0.75
    assert 0 < np.count_nonzero(want[0] == 1.0) < image.size
    assert_same_bytes(sfcm.fcm_iterate(image, mu, config), want)

    # crisp start on a two-valued image: every pixel sits on a center
    crisp = np.zeros((2, 32 * 32))
    two = np.full((32, 32), 0.25)
    two[:, 16:] = 0.75
    crisp[0, two.ravel() == 0.25] = 1.0
    crisp[1, two.ravel() == 0.75] = 1.0
    assert_same_bytes(sfcm.sfcm_run(two, config, init=crisp),
                      oracle_sfcm_run(two, config, init=crisp))

    # two equal centers on the same pixels: the tie goes to the lower
    # cluster and the other gets exactly 0
    twin = np.vstack([crisp[0] / 2, crisp[0] / 2, crisp[1]])
    config = SfcmConfig(clusters=3)
    want = oracle_fcm_iterate(two, twin, config)
    assert want[1][0] == want[1][1] == 0.25
    assert_same_bytes(sfcm.fcm_iterate(two, twin, config), want)


@pytest.mark.parametrize("radius", [1, 2])
def test_all_zero_windows_clamp_like_the_oracle(radius):
    rng = np.random.default_rng(7)
    h, w = 24, 40
    size = 2 * radius + 1
    plane = np.zeros((h, w))
    plane[:, : w // 2] = rng.random((h, w // 2))
    assert oracle_window_sum(plane, size).min() < 0.0  # the -1e-17 case occurs
    mu = np.stack([plane.ravel(), 1.0 - plane.ravel()])
    for p, q in PQ:
        config = SfcmConfig(clusters=2, p=p, q=q, window_radius=radius)
        assert_same_bytes([sfcm.spatial_refine(mu, config, (h, w))],
                          [oracle_spatial_refine(mu, config, (h, w))])


@pytest.mark.parametrize("shape", [(1, 5), (7, 1), (2, 2), (3, 40), (40, 3), (6, 6)])
def test_small_and_thin_images_match_oracle(shape):
    # windows wider than the image clamp every row and column to the border
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    mu = rng.random((3, shape[0] * shape[1]))
    mu /= mu.sum(axis=0)
    mu[0, ::2] = -0.0
    mu[1:, ::2] /= mu[1:, ::2].sum(axis=0)
    for radius in (0, 1, 2, 3):
        config = SfcmConfig(clusters=3, window_radius=radius)
        assert_same_bytes([sfcm.spatial_refine(mu, config, shape)],
                          [oracle_spatial_refine(mu, config, shape)])


def _outcome(check, mu):
    try:
        check(mu)
    except ValueError as exc:
        return str(exc)
    return None


TOLERANCE = 1e-6 + 1e-5
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -1e-300, -0.5,
           TOLERANCE, -TOLERANCE,
           np.nextafter(TOLERANCE, 0.0), np.nextafter(TOLERANCE, 1.0),
           np.nextafter(-TOLERANCE, 0.0), np.nextafter(-TOLERANCE, -1.0)]


@settings(max_examples=300, deadline=None)
@given(clusters=st.integers(1, 4),
       columns=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1),
       offsets=st.lists(st.one_of(st.sampled_from(SPECIAL),
                                  st.floats(-3e-5, 3e-5)), min_size=1, max_size=6))
def test_membership_check_accepts_and_rejects_like_the_oracle(clusters, columns, seed,
                                                               offsets):
    rng = np.random.default_rng(seed)
    mu = rng.random((clusters, columns))
    mu /= mu.sum(axis=0)
    for j, offset in enumerate(offsets[:columns]):
        mu[rng.integers(clusters), j] += offset
    assert _outcome(sfcm._check_memberships, mu) == _outcome(oracle_check_memberships, mu)


@pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
def test_membership_check_edge_shapes_like_the_oracle(shape):
    mu = np.full(shape, 1.0)
    assert _outcome(sfcm._check_memberships, mu) == _outcome(oracle_check_memberships, mu)
