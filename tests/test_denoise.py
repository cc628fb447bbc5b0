import math
import tracemalloc

import numpy as np
import pytest

from mammocad import denoise
from mammocad.denoise import (
    bm3d_denoise,
    block_match,
    hard_stage,
    match_tau,
    wiener_stage,
)


def psnr(clean, estimate):
    mse = ((np.asarray(clean) - np.asarray(estimate)) ** 2).mean()
    return 10.0 * np.log10(1.0 / mse)


def phantom(h=128, w=128):
    """Piecewise pattern: flat background, disk, bar and a ramp block."""
    img = np.full((h, w), 0.25)
    rr, cc = np.mgrid[0:h, 0:w]
    img[(rr - 40) ** 2 + (cc - 40) ** 2 <= 22 ** 2] = 0.75
    img[84:108, 20:100] = 0.6
    img[16:48, 80:116] = np.tile(np.linspace(0.3, 0.7, 36), (32, 1))
    return img


def noisy_phantom(sigma8, seed=0):
    clean = phantom()
    rng = np.random.default_rng(seed)
    noisy = np.clip(clean + rng.normal(0, sigma8 / 255.0, clean.shape), 0, 1)
    return clean, noisy


def test_sigma_picks_the_match_thresholds():
    # the pair changes at sigma 40 itself
    for sigma, pair in ((25.0, (400.0, 2500.0)), (39.999, (400.0, 2500.0)),
                        (40.0, (5000.0, 3500.0)), (60.0, (5000.0, 3500.0))):
        assert (match_tau(sigma, "hard"), match_tau(sigma, "wiener")) == pair, sigma
    assert denoise.LAMBDA_3D == 2.7
    assert (denoise.BLOCK, denoise.STEP, denoise.SEARCH_RADIUS, denoise.GROUP_MAX) == (8, 4, 16, 16)


def test_block_match_constant_image_full_group():
    img = np.full((32, 32), 0.5)
    group = block_match(denoise.RowDistances(img, [8]), (8, 8), 25.0, stage="hard")
    assert len(group.coordinates) == denoise.GROUP_MAX
    assert tuple(group.coordinates[0]) == (8, 8)
    for r, c in group.coordinates:
        np.testing.assert_allclose(img[r:r + 8, c:c + 8], 0.5)


def test_block_match_reference_first():
    rng = np.random.default_rng(2)
    img = rng.random((40, 40))
    group = block_match(denoise.RowDistances(img, [16]), (12, 16), 25.0, stage="hard")
    assert tuple(group.coordinates[0]) == (12, 16)
    r, c = group.coordinates[0]
    np.testing.assert_array_equal(img[r:r + 8, c:c + 8], img[12:20, 16:24])


def test_each_stage_name_has_its_own_settings_and_no_other_name_has_any():
    assert match_tau(25.0, "hard") != match_tau(25.0, "wiener")
    with pytest.raises(ValueError, match="unknown stage 'soft'"):
        match_tau(25.0, "soft")
    img = np.random.default_rng(5).random((16, 16))
    with pytest.raises(ValueError, match="unknown stage 'soft'"):
        block_match(denoise.RowDistances(img, [0]), (0, 0), 25.0, stage="soft")


def test_block_match_finds_identical_patch():
    rng = np.random.default_rng(3)
    img = rng.random((48, 48))  # random texture: nothing matches anything
    patch = rng.random((8, 8))
    img[10:18, 10:18] = patch
    img[10:18, 26:34] = patch  # identical twin inside the search radius
    group = block_match(denoise.RowDistances(img, [10]), (10, 10), 25.0, stage="hard")
    coords = {tuple(c) for c in map(tuple, group.coordinates)}
    assert (10, 10) in coords and (10, 26) in coords

    # exhaustive scan oracle: the same candidate set, independently
    k, rad = 8, 16
    expected = set()
    for r in range(max(0, 10 - rad), min(48 - k, 10 + rad) + 1):
        for c in range(max(0, 10 - rad), min(48 - k, 10 + rad) + 1):
            d = ((img[r:r + k, c:c + k] - patch) ** 2).sum() / (k * k)
            if d <= 400.0 / (k * k * 255.0 ** 2):      # the hard stage's tau at sigma 25
                expected.add((r, c))
    assert coords == expected


def test_block_match_group_is_power_of_two():
    rng = np.random.default_rng(4)
    img = rng.random((40, 40))
    img[4:12, 4:12] = img[4 + 8:12 + 8, 4:12] = img[4:12, 4 + 8:12 + 8] = 0.5
    for stage in ("hard", "wiener"):
        group = block_match(denoise.RowDistances(img, [4]), (4, 4), 25.0, stage=stage)
        g = len(group.coordinates)
        assert g >= 1 and (g & (g - 1)) == 0


def test_hard_stage_constant_image_identity():
    img = np.full((32, 32), 0.5)
    out = hard_stage(img, sigma=10.0)
    np.testing.assert_allclose(out, img, atol=1e-12)


def test_hard_stage_huge_sigma_flattens():
    rng = np.random.default_rng(5)
    img = np.clip(0.5 + rng.normal(0, 0.1, (32, 32)), 0, 1)
    out = hard_stage(img, sigma=1e4)
    assert out.var() < img.var()


def test_hard_stage_rejects_bad_sigma():
    with pytest.raises(ValueError):
        hard_stage(np.zeros((16, 16)), sigma=0.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("run", [
    lambda img, sigma: hard_stage(img, sigma),
    lambda img, sigma: wiener_stage(img, img, sigma),
    lambda img, sigma: bm3d_denoise(img, sigma),
], ids=["hard", "wiener", "bm3d"])
def test_stages_refuse_a_sigma_that_is_not_positive_and_finite(run, sigma):
    img = np.random.default_rng(11).random((16, 16))
    with pytest.raises(ValueError, match="^noise sigma must be positive and finite, got "):
        run(img, sigma)


@pytest.mark.parametrize("run", [
    lambda img, clean: hard_stage(img, 25.0),
    lambda img, clean: wiener_stage(img, clean, 25.0),
    lambda img, clean: wiener_stage(clean, img, 25.0),
    lambda img, clean: bm3d_denoise(img, 25.0),
], ids=["hard", "wiener-noisy", "wiener-basic", "bm3d"])
def test_stages_reject_nan_anywhere_in_the_film(run):
    clean = np.full((40, 40), 0.5)
    img = clean.copy()
    img[39, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        run(img, clean)


@pytest.mark.parametrize("film, message", [
    (np.full((2, 16, 16), 0.5), "2-D"),
    (np.full((7, 16), 0.5), "smaller than one block"),
    (np.full((16, 7), 0.5), "smaller than one block"),
], ids=["3-D", "7-rows", "7-columns"])
@pytest.mark.parametrize("run", [
    lambda film, other: hard_stage(film, 25.0),
    lambda film, other: wiener_stage(film, other, 25.0),
    lambda film, other: wiener_stage(other, film, 25.0),
    lambda film, other: bm3d_denoise(film, 25.0),
], ids=["hard", "wiener-noisy", "wiener-basic", "bm3d"])
def test_stages_refuse_a_film_that_is_not_2d_or_smaller_than_one_block(run, film, message):
    # the stages check the film as they are entered; the matcher they
    # build trusts it, so no later call meets a film of another shape
    other = np.full(film.shape[-2:], 0.5)
    with pytest.raises(ValueError, match=message):
        run(film, other)


def test_wiener_stage_dimension_mismatch():
    with pytest.raises(ValueError):
        wiener_stage(np.zeros((16, 16)), np.zeros((16, 8)), 25.0)


def test_wiener_tiny_sigma_returns_noisy():
    # shrinkage tends to 1 as sigma -> 0 wherever the guide image has
    # nonzero coefficients; generic random blocks guarantee that
    rng = np.random.default_rng(6)
    img = rng.random((24, 24))
    basic = rng.random((24, 24))
    out = wiener_stage(img, basic, sigma=1e-6)
    np.testing.assert_allclose(out, img, atol=1e-8)


def test_wiener_zero_basic_smooths_hard():
    rng = np.random.default_rng(7)
    img = np.clip(0.5 + rng.normal(0, 0.1, (24, 24)), 0, 1)
    out = wiener_stage(img, np.zeros_like(img), sigma=25.0)
    assert out.var() < 1e-6  # shrinkage weight is zero everywhere


def test_stage_psnr_gains():
    clean, noisy = noisy_phantom(sigma8=25.0)
    base = psnr(clean, noisy)
    basic = hard_stage(noisy, sigma=25.0)
    final = wiener_stage(noisy, basic, sigma=25.0)
    assert psnr(clean, basic) >= base + 2.0
    assert psnr(clean, final) >= psnr(clean, basic)


def test_bm3d_denoise_constant_any_sigma():
    # output stays constant; the Wiener pass may shave a sliver off the
    # mean because the empirical shrinkage also touches the DC term
    img = np.full((24, 24), 0.3)
    for sigma in (5.0, 25.0, 80.0):
        out = bm3d_denoise(img, sigma)
        assert np.ptp(out) < 1e-12
        np.testing.assert_allclose(out, img, atol=1e-3)


def test_every_pixel_covered_on_awkward_sizes():
    # stride does not divide these extents: border anchors must cover the rim
    rng = np.random.default_rng(8)
    img = rng.random((21, 19))
    out = hard_stage(img, sigma=15.0)
    assert np.all(np.isfinite(out))
    assert out.shape == img.shape
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_bm3d_deterministic_and_bounded():
    _, noisy = noisy_phantom(sigma8=25.0)
    a = bm3d_denoise(noisy, 25.0)
    b = bm3d_denoise(noisy, 25.0)
    np.testing.assert_array_equal(a, b)
    assert a.shape == noisy.shape
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_each_stage_matches_every_reference_once_in_row_major_order(monkeypatch):
    # the benchmark times block_match through the module attribute, once
    # per reference block and with four positional arguments, since its
    # wrapper names the third one otherwise; the pass must keep calling
    # it that way
    calls = []
    real = denoise.block_match

    def counting(image, ref, sigma, stage, /):
        calls.append((stage, ref))
        return real(image, ref, sigma, stage)

    monkeypatch.setattr(denoise, "block_match", counting)
    h, w = 45, 70
    bm3d_denoise(np.random.default_rng(10).random((h, w)), 25.0)
    # every 4 pixels, then the far border's block at row 37 and column 62
    refs = [(r, c) for r in [*range(0, 37, 4), 37] for c in [*range(0, 61, 4), 62]]
    assert calls == [("hard", ref) for ref in refs] + [("wiener", ref) for ref in refs]


def test_each_stage_computes_the_distances_of_a_reference_row_once(monkeypatch):
    # one distance pass per reference rather than per row, or a row that
    # forms all 8 block rows where it could take 4 from the row above,
    # would keep every byte and lose the speed-up
    runs = []
    real_rows, real_sums = denoise._row_distances, denoise._block_row_sums

    def counting_rows(film, r, cols, carried):
        runs.append([r, list(cols), 0])
        return real_rows(film, r, cols, carried)

    def counting_sums(film, top, count, shifts, cols):
        runs[-1][2] += count
        return real_sums(film, top, count, shifts, cols)

    monkeypatch.setattr(denoise, "_row_distances", counting_rows)
    monkeypatch.setattr(denoise, "_block_row_sums", counting_sums)
    img = np.random.default_rng(10).random((45, 70))
    basic = hard_stage(img, 25.0)
    assert len(runs) == 11      # reference rows 0, 4, ..., 36 and 37
    wiener_stage(img, basic, 25.0)
    # the first row and the far border's, 1 pixel below row 36, form all
    # 8 block rows; every other row carries 4 from the row above
    cols = [*range(0, 61, 4), 62]
    stage = [[0, cols, 8]] + [[r, cols, 4] for r in range(4, 37, 4)] + [[37, cols, 8]]
    assert runs == stage + stage


def test_hard_stage_memory_holds_one_row_of_stacks():
    # a constant image fills every group to n_hard blocks, the worst case
    img = np.full((256, 256), 0.5)
    k = denoise.BLOCK
    refs = len(denoise._reference_grid(256))
    row_stacks = refs * denoise.GROUP_MAX * k * k * 8
    all_stacks = refs * row_stacks
    bound = 4 * img.nbytes + 16 * row_stacks
    assert all_stacks > 3 * bound
    tracemalloc.start()
    try:
        hard_stage(img, 25.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
