import numpy as np
import pytest

from mammocad.levelset import (
    DivergenceError,
    LevelSetConfig,
    binarize_membership,
    dirac,
    edge_indicator,
    evolve,
    evolve_step,
    extract_mask,
    init_phi,
)
from mammocad.metrics import dice


def disk_mask(h, w, cr, cc, radius):
    rr, cc_grid = np.mgrid[0:h, 0:w]
    return (rr - cr) ** 2 + (cc_grid - cc) ** 2 <= radius ** 2


def noisy_disk(h=128, w=128, radius=30, seed=0, sigma=0.05):
    truth = disk_mask(h, w, h // 2, w // 2, radius)
    img = np.where(truth, 0.8, 0.2)
    rng = np.random.default_rng(seed)
    return np.clip(img + rng.normal(0, sigma, size=img.shape), 0, 1), truth


def test_binarize_threshold_inclusive():
    r_k = np.array([[0.5, 0.49], [0.51, 0.0]])
    mask = binarize_membership(r_k, 0.5)
    np.testing.assert_array_equal(mask, [[True, False], [True, False]])


def test_binarize_all_zero():
    assert not binarize_membership(np.zeros((3, 3)), 0.5).any()


def test_binarize_rejects_bad_threshold():
    for b0 in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            binarize_membership(np.zeros((2, 2)), b0)


def test_binarize_matches_pointwise_oracle():
    rng = np.random.default_rng(1)
    r_k = rng.random((10, 10))
    mask = binarize_membership(r_k, 0.3)
    for r in range(10):
        for c in range(10):
            assert mask[r, c] == (r_k[r, c] >= 0.3)


def test_init_phi_levels():
    mask = np.array([[True, False]])
    phi = init_phi(mask, epsilon=1.5)
    assert phi[0, 0] == 3.0
    assert phi[0, 1] == -3.0


def test_init_phi_sign_matches_mask():
    rng = np.random.default_rng(2)
    for _ in range(10):
        mask = rng.random((9, 9)) < 0.5
        phi = init_phi(mask, 2.0)
        np.testing.assert_array_equal(phi > 0, mask)


def test_extract_mask_inverts_init():
    rng = np.random.default_rng(3)
    for _ in range(100):
        mask = rng.random((8, 12)) < rng.random()
        eps = 0.25 + 3 * rng.random()
        np.testing.assert_array_equal(extract_mask(init_phi(mask, eps)), mask)


def test_extract_mask_all_negative_empty():
    assert not extract_mask(np.full((4, 4), -1.0)).any()


def test_extract_mask_pointwise():
    rng = np.random.default_rng(4)
    phi = rng.normal(size=(7, 7))
    np.testing.assert_array_equal(extract_mask(phi), phi > 0)


def test_dirac_peak_value():
    assert abs(dirac(0.0, 1.5) - 2.0 / 3.0) < 1e-15


def test_dirac_vanishes_at_and_beyond_width():
    for eps in (0.5, 1.5, 3.0):
        assert abs(dirac(eps, eps)) < 1e-15
        assert dirac(eps * 1.0001, eps) == 0.0
        assert dirac(-eps * 5, eps) == 0.0


def test_dirac_even_symmetry():
    xs = np.linspace(-4, 4, 101)
    np.testing.assert_allclose(dirac(xs, 1.5), dirac(-xs, 1.5), atol=1e-15)


def _whole_field_dirac(x, eps):
    # the cosine over every pixel, then zero outside the band
    return np.where(np.abs(x) <= eps, (1.0 / (2.0 * eps)) * (1.0 + np.cos(np.pi * x / eps)), 0.0)


@pytest.mark.parametrize("eps", [0.5, 1.5, 3.0])
@pytest.mark.parametrize("band", ["empty", "partial", "full"])
def test_banded_dirac_matches_the_whole_field_formula(eps, band):
    rng = np.random.default_rng(int(eps * 10))
    field = rng.normal(0.0, 2.0, (517, 333))
    if band == "empty":
        field = np.sign(field) * (eps + 1e-9 + np.abs(field))
    else:
        if band == "full":
            field = np.clip(field, -eps, eps)
        field[::7, ::5] = eps       # values exactly on the band's edges
        field[3::7, ::5] = -eps
    share = np.mean(np.abs(field) <= eps)
    assert {"empty": share == 0, "partial": 0 < share < 1, "full": share == 1}[band]
    out = dirac(field, eps)
    assert out.dtype == np.float64 and out.shape == field.shape
    assert out.tobytes() == _whole_field_dirac(field, eps).tobytes()


@pytest.mark.parametrize("eps", [0.5, 1.5, 3.0])
def test_dirac_integrates_to_one(eps):
    xs = np.linspace(-eps, eps, 4001)
    integral = np.trapezoid(dirac(xs, eps), xs)
    assert abs(integral - 1.0) <= 1e-3


def test_edge_indicator_constant_image():
    g = edge_indicator(np.full((16, 16), 0.7), sigma=1.5)
    np.testing.assert_allclose(g, 1.0)


def test_edge_indicator_dips_on_edge():
    img = np.zeros((20, 20))
    img[:, 10:] = 1.0
    g = edge_indicator(img, sigma=1.5)
    edge_col = g[10, 8:12].min()
    assert edge_col < 0.5
    assert g[10, 0] > 0.95
    assert g.min() > 0.0 and g.max() <= 1.0


def reference_evolve_step(phi, g, cfg):
    """Dense-loop rendition of the same discretization."""
    h, w = phi.shape

    def at(f, r, c):
        return f[min(max(r, 0), h - 1), min(max(c, 0), w - 1)]

    def grads(f):
        gr = np.zeros_like(f)
        gc = np.zeros_like(f)
        for r in range(h):
            for c in range(w):
                gr[r, c] = (at(f, r + 1, c) - at(f, r - 1, c)) / 2.0
                gc[r, c] = (at(f, r, c + 1) - at(f, r, c - 1)) / 2.0
        return gr, gc

    gr, gc = grads(phi)
    mag = np.maximum(np.sqrt(gr ** 2 + gc ** 2), 1e-10)
    nr, nc = gr / mag, gc / mag
    lap = np.zeros_like(phi)
    for r in range(h):
        for c in range(w):
            lap[r, c] = (at(phi, r + 1, c) + at(phi, r - 1, c)
                         + at(phi, r, c + 1) + at(phi, r, c - 1) - 4 * phi[r, c])
    div_n = grads(nr)[0] + grads(nc)[1]
    delta = np.zeros_like(phi)
    for r in range(h):
        for c in range(w):
            x = phi[r, c]
            if abs(x) <= cfg.epsilon:
                delta[r, c] = (1 / (2 * cfg.epsilon)) * (1 + np.cos(np.pi * x / cfg.epsilon))
    div_gn = grads(g * nr)[0] + grads(g * nc)[1]
    edge = cfg.lmda * delta * div_gn + cfg.nu * g * delta
    return phi + cfg.tau * (cfg.mu * (lap - div_n) + edge)


def test_evolve_step_matches_loop_reference():
    rng = np.random.default_rng(5)
    cfg = LevelSetConfig()
    phi = rng.normal(scale=3.0, size=(16, 16))
    g = 0.05 + 0.95 * rng.random((16, 16))
    ours = evolve_step(phi, g, cfg)
    theirs = reference_evolve_step(phi, g, cfg)
    np.testing.assert_allclose(ours, theirs, atol=1e-12)


def test_evolve_step_far_field_trivial():
    # a signed-distance plane far from zero: both terms vanish
    rows = np.arange(24, dtype=float)[:, None] + 10.0
    phi = np.tile(rows, (1, 24))
    g = np.ones((24, 24))
    out = evolve_step(phi, g, LevelSetConfig())
    interior = (slice(2, -2), slice(2, -2))
    np.testing.assert_allclose(out[interior], phi[interior], atol=1e-9)


def test_evolve_step_balloon_expands_disk():
    # signed-distance disk so the Dirac band is active from step one
    rr, cc = np.mgrid[0:48, 0:48]
    phi = 8.0 - np.sqrt((rr - 24.0) ** 2 + (cc - 24.0) ** 2)
    g = np.ones((48, 48))
    cfg = LevelSetConfig()
    areas = [int(extract_mask(phi).sum())]
    for _ in range(10):
        phi = evolve_step(phi, g, cfg)
        areas.append(int(extract_mask(phi).sum()))
    for a, b in zip(areas, areas[1:]):
        assert b >= a
    assert areas[-1] > areas[0]


def test_evolve_step_detects_divergence():
    phi = np.full((8, 8), 1e308)
    phi[4, 4] = -1e308
    with pytest.raises(DivergenceError):
        evolve_step(phi, np.ones((8, 8)), LevelSetConfig())


def test_config_validates_stability():
    with pytest.raises(ValueError):
        LevelSetConfig(tau=10.0, mu=0.05)
    with pytest.raises(ValueError):
        LevelSetConfig(b0=1.0)
    with pytest.raises(ValueError):
        LevelSetConfig(epsilon=0.0)


def test_config_rejects_settings_that_cannot_evolve():
    # zero iterations would hand back the unevolved seed field, a zero
    # patience would act as one, and a zero sigma fails only in evolve()
    for field, value in (("iterations", 0), ("early_stop_patience", 0),
                         ("smoothing_sigma", 0.0), ("smoothing_sigma", -1.5)):
        with pytest.raises(ValueError, match=field):
            LevelSetConfig(**{field: value})
    LevelSetConfig(iterations=1, early_stop_patience=1, smoothing_sigma=0.1)


def test_evolve_noisy_disk_dice():
    img, truth = noisy_disk()
    cfg = LevelSetConfig()
    phi, used = evolve(img, img, cfg)
    mask = extract_mask(phi)
    assert used <= 200
    assert dice(mask, truth) >= 0.95


def test_evolve_default_iteration_budget():
    assert LevelSetConfig().iterations == 200


def test_pure_regularization_keeps_mask():
    # nu = lambda = 0: the smoothing flow must not move the front much
    mask = disk_mask(64, 64, 32, 32, 14)
    img = np.where(mask, 0.8, 0.2)
    cfg = LevelSetConfig(lmda=0.0, nu=0.0)
    phi = init_phi(mask, cfg.epsilon)
    g = edge_indicator(img, cfg.smoothing_sigma)
    for _ in range(50):
        phi = evolve_step(phi, g, cfg)
    changed = (extract_mask(phi) != mask).sum()
    assert changed < 0.01 * mask.size


def test_evolve_deterministic():
    img, _ = noisy_disk(48, 48, radius=10, seed=9)
    cfg = LevelSetConfig(iterations=40)
    phi1, it1 = evolve(img, img, cfg)
    phi2, it2 = evolve(img, img, cfg)
    assert it1 == it2
    np.testing.assert_array_equal(phi1, phi2)


@pytest.mark.parametrize("shape", [(1, 50), (40, 1), (1, 1), (50, 40)])
def test_evolve_refuses_a_membership_map_of_another_shape(shape):
    # a broadcastable map used to evolve silently on the image's grid
    with pytest.raises(ValueError, match=r"\(40, 50\)") as raised:
        evolve(np.full(shape, 0.9), np.full((40, 50), 0.5), LevelSetConfig(iterations=3))
    assert str(shape) in str(raised.value)


@pytest.mark.parametrize("shape", [(1, 12), (10, 1), (1, 1), (12, 10)])
def test_evolve_step_refuses_an_edge_map_of_another_shape(shape):
    phi = init_phi(disk_mask(10, 12, 5, 6, 3), 1.5)
    with pytest.raises(ValueError, match=r"\(10, 12\)") as raised:
        evolve_step(phi, np.ones(shape), LevelSetConfig())
    assert str(shape) in str(raised.value)


@pytest.mark.parametrize("field", ["epsilon", "tau", "mu", "lmda", "nu",
                                   "smoothing_sigma", "early_stop_frac"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_config_refuses_non_finite_settings(field, value):
    # an infinite weight times the exact 0 of a flat field is NaN there
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        LevelSetConfig(**{field: value})


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_edge_indicator_and_evolve_refuse_an_empty_film(shape):
    with pytest.raises(ValueError, match="empty film") as raised:
        edge_indicator(np.zeros(shape), sigma=1.5)
    assert str(shape) in str(raised.value)
    with pytest.raises(ValueError, match="empty film") as raised:
        evolve(np.zeros(shape), np.zeros(shape), LevelSetConfig(iterations=3))
    assert str(shape) in str(raised.value)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
def test_edge_indicator_refuses_a_non_finite_sigma(sigma):
    # NaN used to give a plausible-looking map and inf an OverflowError
    with pytest.raises(ValueError, match="smoothing sigma") as raised:
        edge_indicator(np.full((8, 8), 0.5), sigma=sigma)
    assert str(sigma) in str(raised.value)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
def test_dirac_refuses_a_non_finite_width(eps):
    # NaN used to give all zeros
    with pytest.raises(ValueError, match="Dirac width") as raised:
        dirac(np.zeros(4), eps)
    assert str(eps) in str(raised.value)
