import dataclasses

import numpy as np
import pytest

from mammocad import sfcm
from mammocad.sfcm import (
    DegenerateClusterError,
    SfcmConfig,
    fcm_iterate,
    sfcm_run,
    spatial_refine,
    tumor_membership_map,
)

from fcm_objective import objective


def two_valued_image(h=32, w=32):
    img = np.full((h, w), 0.2)
    img[:, w // 2:] = 0.8
    return img


def reference_fcm(image, mu0, clusters, fuzziness, iters):
    """Independent plain-FCM fixed-point iteration, loops only."""
    x = image.ravel()
    mu = mu0.copy()
    centers = np.zeros(clusters)
    for _ in range(iters):
        for m in range(clusters):
            wgt = mu[m] ** fuzziness
            centers[m] = (wgt * x).sum() / wgt.sum()
        for n in range(x.size):
            d = np.array([(x[n] - centers[m]) ** 2 for m in range(clusters)])
            if (d == 0).any():
                mu[:, n] = 0.0
                mu[int(np.argmax(d == 0)), n] = 1.0
            else:
                inv = d ** (-1.0 / (fuzziness - 1.0))
                mu[:, n] = inv / inv.sum()
    return mu, centers


def test_single_cluster_forced():
    img = np.array([[0.1, 0.4], [0.7, 0.2]])
    cfg = SfcmConfig(clusters=1)
    mu = np.ones((1, 4))
    new_mu, centers = fcm_iterate(img, mu, cfg)
    np.testing.assert_allclose(new_mu, 1.0)
    assert abs(centers[0] - img.mean()) < 1e-12


def test_pixel_at_center_gets_crisp_membership():
    img = np.array([[0.3, 0.9]])
    cfg = SfcmConfig(clusters=2)
    mu = np.array([[1.0, 0.0], [0.0, 1.0]])
    new_mu, centers = fcm_iterate(img, mu, cfg)
    assert centers[0] == 0.3 and centers[1] == 0.9
    np.testing.assert_array_equal(new_mu, mu)


def test_iterate_matches_loop_reference():
    rng = np.random.default_rng(3)
    img = rng.random((6, 7))
    cfg = SfcmConfig(clusters=3)
    mu0 = rng.random((3, img.size))
    mu0 /= mu0.sum(axis=0)
    ours_mu, ours_c = mu0, None
    for _ in range(4):
        ours_mu, ours_c = fcm_iterate(img, ours_mu, cfg)
    ref_mu, ref_c = reference_fcm(img, mu0, 3, 2.0, 4)
    np.testing.assert_allclose(ours_mu, ref_mu, atol=1e-10)
    np.testing.assert_allclose(ours_c, ref_c, atol=1e-10)


def test_degenerate_cluster_raises():
    img = np.array([[0.5, 0.5]])
    mu = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DegenerateClusterError):
        fcm_iterate(img, mu, SfcmConfig(clusters=2))


@pytest.mark.parametrize("shape", [(2, 21), (3, 20), (40,)], ids=["columns", "rows", "rank"])
def test_run_rejects_an_init_of_another_shape(shape):
    img = np.arange(20.0).reshape(4, 5)
    with pytest.raises(ValueError, match="^init membership shape mismatch$"):
        sfcm_run(img, SfcmConfig(clusters=2), init=np.full(shape, 0.5))


def test_run_refuses_memberships_an_overflowing_film_turns_nan(monkeypatch):
    # finite intensities near 1e300 square to inf distances, which the
    # membership pass turns to NaN; the first iteration's change is NaN
    img = np.random.default_rng(23).random((8, 8)) * 1e300
    sweeps = []

    def counted(*args):
        sweeps.append(1)
        return fcm_iterate(*args)

    monkeypatch.setattr(sfcm, "fcm_iterate", counted)
    with pytest.raises(ValueError, match="NaN"), pytest.warns(RuntimeWarning):
        sfcm_run(img, SfcmConfig(clusters=3))
    assert len(sweeps) == 1


@pytest.mark.parametrize("field, value", [("window_radius", -1), ("p", -0.5), ("q", -1.0)])
def test_config_rejects_negative_window_and_exponents(field, value):
    with pytest.raises(ValueError, match=field):
        SfcmConfig(**{field: value})


@pytest.mark.parametrize("field", ["fuzziness", "p", "q", "tol"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_settings(field, value):
    with pytest.raises(ValueError, match=f"^sfcm.{field} must be finite"):
        SfcmConfig(**{field: value})


def test_spatial_refine_constant_memberships_stay_constant():
    # a spatially constant field maps to mu^(p+q) renormalized, so it
    # stays constant across pixels and keeps the cluster ordering
    cfg = SfcmConfig(clusters=2)
    mu = np.tile(np.array([[0.7], [0.3]]), (1, 25))
    out = spatial_refine(mu, cfg, (5, 5))
    sharpened = np.array([0.49, 0.09]) / 0.58
    np.testing.assert_allclose(out, np.tile(sharpened[:, None], (1, 25)), atol=1e-12)


def test_spatial_refine_unit_total_exponent_is_identity():
    # with p + q = 1 the neighbourhood mass cancels on constant fields
    cfg = SfcmConfig(clusters=2, p=0.5, q=0.5)
    mu = np.tile(np.array([[0.7], [0.3]]), (1, 25))
    out = spatial_refine(mu, cfg, (5, 5))
    np.testing.assert_allclose(out, mu, atol=1e-12)


def test_spatial_refine_q_zero_is_identity():
    rng = np.random.default_rng(5)
    cfg = SfcmConfig(clusters=3, q=0.0)
    mu = rng.random((3, 36))
    mu /= mu.sum(axis=0)
    np.testing.assert_allclose(spatial_refine(mu, cfg, (6, 6)), mu, atol=1e-14)


def test_spatial_refine_flips_isolated_pixel():
    # one outlier pixel inside a homogeneous 3x3 region
    cfg = SfcmConfig(clusters=2, window_radius=1)
    mu = np.zeros((2, 9))
    mu[0] = 0.9
    mu[1] = 0.1
    mu[:, 4] = [0.2, 0.8]  # centre pixel leans the other way
    out = spatial_refine(mu, cfg, (3, 3))
    # hand computation: h0 = 0.9*8 + 0.2 = 7.4, h1 = 0.1*8 + 0.8 = 1.6
    expected0 = 0.2 * 7.4 / (0.2 * 7.4 + 0.8 * 1.6)
    assert abs(out[0, 4] - expected0) < 1e-9
    assert out[0, 4] > out[1, 4]


def test_columns_stay_stochastic():
    rng = np.random.default_rng(7)
    img = rng.random((8, 8))
    cfg = SfcmConfig(clusters=4)
    mu = rng.random((4, 64))
    mu /= mu.sum(axis=0)
    for _ in range(5):
        mu, centers = fcm_iterate(img, mu, cfg)
        np.testing.assert_allclose(mu.sum(axis=0), 1.0, atol=1e-9)
        mu = spatial_refine(mu, cfg, (8, 8))
        np.testing.assert_allclose(mu.sum(axis=0), 1.0, atol=1e-9)


def test_objective_zero_for_crisp_piecewise_image():
    img = two_valued_image(4, 4)
    mu = np.zeros((2, 16))
    mu[0] = (img.ravel() == 0.2).astype(float)
    mu[1] = 1.0 - mu[0]
    assert objective(img, mu, [0.2, 0.8], 2.0) == 0.0


def test_objective_single_cluster_is_total_variance():
    rng = np.random.default_rng(9)
    img = rng.random((5, 5))
    mu = np.ones((1, 25))
    j = objective(img, mu, [img.mean()], 2.0)
    assert abs(j - ((img - img.mean()) ** 2).sum()) < 1e-12


def test_objective_matches_double_loop():
    rng = np.random.default_rng(11)
    img = rng.random((4, 5))
    mu = rng.random((3, 20))
    mu /= mu.sum(axis=0)
    centers = rng.random(3)
    expected = 0.0
    flat = img.ravel()
    for n in range(20):
        for m in range(3):
            expected += mu[m, n] ** 2 * (flat[n] - centers[m]) ** 2
    assert abs(objective(img, mu, centers, 2.0) - expected) < 1e-12


def test_run_deterministic_for_seed():
    img = two_valued_image()
    cfg = SfcmConfig(clusters=2)
    mu1, c1, it1 = sfcm_run(img, cfg)
    mu2, c2, it2 = sfcm_run(img, cfg)
    np.testing.assert_array_equal(mu1, mu2)
    np.testing.assert_array_equal(c1, c2)
    assert it1 == it2


def test_run_recovers_two_valued_centers():
    img = two_valued_image()
    mu, centers, _ = sfcm_run(img, SfcmConfig(clusters=2))
    assert abs(min(centers) - 0.2) < 1e-3
    assert abs(max(centers) - 0.8) < 1e-3


def test_plain_fcm_objective_non_increasing():
    rng = np.random.default_rng(13)
    img = np.clip(rng.normal(0.5, 0.2, size=(16, 16)), 0, 1)
    cfg = SfcmConfig(clusters=3, q=0.0, tol=1e-9, max_iter=40)
    values = []
    # the k-iteration run ends at the k-th iterate of the full run
    for k in range(1, cfg.max_iter + 1):
        mu, c, used = sfcm_run(img, dataclasses.replace(cfg, max_iter=k))
        if used < k:
            break
        values.append(objective(img, mu, c, cfg.fuzziness))
    assert len(values) > 3
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12


def test_constant_image_rejected():
    with pytest.raises(ValueError):
        sfcm_run(np.full((8, 8), 0.5), SfcmConfig(clusters=2))


def test_start_draws_no_random_number(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sfcm_run drew a random number")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    _, centers, _ = sfcm_run(two_valued_image(), SfcmConfig(clusters=2))
    np.testing.assert_allclose(centers, [0.2, 0.8], atol=1e-12)


def test_every_pixel_on_a_start_center_leaves_an_empty_cluster():
    # a two-level image at three clusters: the start centers are 0.2, 0.5
    # and 0.8, every pixel sits on 0.2 or 0.8, and the middle one is empty
    with pytest.raises(DegenerateClusterError, match="^cluster 1 has no membership mass$"):
        sfcm_run(two_valued_image(), SfcmConfig(clusters=3))
    # a pixel on the middle center is enough to keep all three
    img = two_valued_image()
    img[0, 0] = 0.5
    _, centers, _ = sfcm_run(img, SfcmConfig(clusters=3))
    assert len(set(centers)) == 3


def test_label_permutation_symmetry():
    img = two_valued_image(16, 16)
    cfg = SfcmConfig(clusters=3, max_iter=20)
    rng = np.random.default_rng(17)
    init = rng.random((3, img.size))
    init /= init.sum(axis=0)
    perm = [2, 0, 1]
    mu_a, c_a, _ = sfcm_run(img, cfg, init=init)
    mu_b, c_b, _ = sfcm_run(img, cfg, init=init[perm])
    np.testing.assert_allclose(mu_b, mu_a[perm], atol=1e-12)
    np.testing.assert_allclose(c_b, c_a[perm], atol=1e-12)


def test_intensity_shift_preserves_argmax_structure():
    rng = np.random.default_rng(19)
    img = np.clip(0.15 + 0.6 * rng.random((20, 20)), 0, 0.9)
    cfg = SfcmConfig(clusters=3, max_iter=30)
    mu_a, c_a, _ = sfcm_run(img, cfg)
    mu_b, c_b, _ = sfcm_run(img + 0.1, cfg)
    order_a = np.argsort(c_a)
    order_b = np.argsort(c_b)
    np.testing.assert_array_equal(
        np.argmax(mu_a[order_a], axis=0), np.argmax(mu_b[order_b], axis=0))


def test_tumor_map_selects_brightest_cluster():
    img = two_valued_image(8, 8)
    mu, centers, _ = sfcm_run(img, SfcmConfig(clusters=2))
    r_k = tumor_membership_map(mu, centers, img.shape)
    assert r_k.shape == img.shape
    assert r_k[:, 6:].mean() > 0.9   # bright half
    assert r_k[:, :2].mean() < 0.1
    assert r_k.min() >= 0.0 and r_k.max() <= 1.0


def test_tumor_map_tie_takes_lowest_index():
    mu = np.array([[0.6, 0.4], [0.4, 0.6]])
    r_k = tumor_membership_map(mu, [0.5, 0.5], (1, 2))
    np.testing.assert_array_equal(r_k, [[0.6, 0.4]])
