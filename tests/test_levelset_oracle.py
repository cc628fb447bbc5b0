"""The whole-field level-set loop, kept as the oracle.

`oracle_evolve` is `mammocad.levelset.evolve` as it was before it
stepped only the band where phi can move: every step runs `evolve_step`
on the whole field, with the whole film's edge map. The banded loop
calls the same kernel on boxes of the field, with the edge map taken
from crops of the film around them, so its field after each step must
match the oracle's byte for byte. `evolve` hands out only its final
field, so its field after step k is the one a run with a budget of
`iterations=k` returns.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mammocad import levelset
from mammocad.core import as_gray
from mammocad.levelset import DivergenceError, LevelSetConfig


def oracle_evolve(r_k, image, config):
    """The field after each step, in order; the last is the final field
    and their number is the step count."""
    img = as_gray(image)
    g = levelset.edge_indicator(img, config.smoothing_sigma)
    phi = levelset.init_phi(levelset.binarize_membership(r_k, config.b0), config.epsilon)
    n_pixels = phi.size
    calm_streak = 0
    fields = []
    for _ in range(config.iterations):
        new_phi = levelset.evolve_step(phi, g, config)
        changed = int(np.count_nonzero((new_phi > 0.0) != (phi > 0.0)))
        fields.append(new_phi)
        phi = new_phi
        if changed < config.early_stop_frac * n_pixels:
            calm_streak += 1
            if calm_streak >= config.early_stop_patience:
                break
        else:
            calm_streak = 0
    return fields


def _assert_step(r_k, image, config, fields, k):
    """A run with a budget of k steps takes k steps and ends on the
    oracle's k-th field; at k = len(fields) the run has `config`'s own
    budget, so its step count is also the oracle's."""
    budget = config if k == len(fields) else dataclasses.replace(config, iterations=k)
    phi, steps = levelset.evolve(r_k, image, budget)
    want = fields[k - 1]
    assert steps == k
    assert phi.dtype == want.dtype and phi.shape == want.shape
    assert phi.tobytes() == want.tobytes()


def _assert_every_step(r_k, image, config):
    fields = oracle_evolve(r_k, image, config)
    for k in range(1, len(fields) + 1):
        _assert_step(r_k, image, config, fields, k)
    return fields


def _mask(rng, shape, kind):
    h, w = shape
    if kind == "empty":
        return np.zeros(shape, dtype=bool)
    if kind == "full":
        return np.ones(shape, dtype=bool)
    if kind == "noise":
        return rng.random(shape) < rng.random()
    mask = np.zeros(shape, dtype=bool)
    rr, cc = np.mgrid[0:h, 0:w]
    for _ in range(1 if kind == "one" else int(rng.integers(2, 5))):
        r, c = rng.integers(0, h), rng.integers(0, w)
        if kind == "border":    # a disc centred on a random border pixel
            r, c = [(0, c), (h - 1, c), (r, 0), (r, w - 1)][int(rng.integers(4))]
        radius = 0.5 + rng.random() * max(h, w) / 4
        mask |= (rr - r) ** 2 + (cc - c) ** 2 <= radius ** 2
    return mask


@st.composite
def cases(draw):
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    kind = draw(st.sampled_from(["empty", "full", "noise", "one", "several", "border"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    config = LevelSetConfig(
        epsilon=draw(st.floats(0.1, 4.0)),
        b0=draw(st.floats(0.05, 0.95)),
        tau=draw(st.floats(0.05, 10.0)),
        lmda=draw(st.floats(0.0, 10.0)),
        nu=draw(st.floats(-3.0, 3.0)),
        iterations=draw(st.integers(1, 40)),
        smoothing_sigma=draw(st.floats(0.3, 3.0)),
        early_stop_frac=draw(st.sampled_from([0.0, LevelSetConfig().early_stop_frac])),
        early_stop_patience=draw(st.integers(1, 5)))
    # memberships on the seed's side of b0, so the mask kind is kept
    above = config.b0 + rng.random(shape) * (1.0 - config.b0)
    below = rng.random(shape) * config.b0 * 0.999
    r_k = np.where(_mask(rng, shape, kind), above, below)
    image = rng.random(shape)
    # an arbitrary edge map (the random image, scaled), or the one the
    # image gives; the arbitrary map is pixelwise, so a crop of the image
    # gives that crop of the map, as the real one does
    scale = draw(st.sampled_from([0.5, 1.0, 2.0])) if draw(st.booleans()) else None
    # one step besides the last, clamped to the steps the run takes
    step = draw(st.integers(1, config.iterations))
    return r_k, image, config, scale, step


def _assert_last_and_one_step(r_k, image, config, step):
    fields = oracle_evolve(r_k, image, config)
    _assert_step(r_k, image, config, fields, len(fields))
    _assert_step(r_k, image, config, fields, min(step, len(fields)))


@settings(max_examples=300, deadline=None)
@given(cases())
def test_banded_evolve_matches_the_whole_field_oracle(case):
    r_k, image, config, scale, step = case
    if scale is None:
        _assert_last_and_one_step(r_k, image, config, step)
    else:
        with mock.patch.object(levelset, "edge_indicator",
                               lambda img, sigma: as_gray(img) * scale):
            _assert_last_and_one_step(r_k, image, config, step)


@pytest.mark.parametrize("size", [64, 200])
def test_banded_evolve_matches_the_oracle_on_a_noisy_disc(size):
    rng = np.random.default_rng(size)
    rr, cc = np.mgrid[0:size, 0:size]
    truth = (rr - size * 0.4) ** 2 + (cc - size * 0.55) ** 2 <= (size / 5) ** 2
    image = np.clip(np.where(truth, 0.8, 0.2) + rng.normal(0, 0.05, truth.shape), 0, 1)
    r_k = np.where(truth, 0.9, 0.1)
    r_k[: size // 8, : size // 8] = 0.9      # a second seed in a corner
    every = _assert_every_step(r_k, image, LevelSetConfig(iterations=60, early_stop_frac=0.0))
    # early stopping decides only where a run ends, not what a step does:
    # the oracle's fields with it are a prefix of those without, so the
    # last field and the step count are left to compare
    config = LevelSetConfig(iterations=60)
    fields = oracle_evolve(r_k, image, config)
    assert [f.tobytes() for f in fields] == [f.tobytes() for f in every[:len(fields)]]
    _assert_step(r_k, image, config, fields, len(fields))


def test_divergence_is_raised_at_the_oracle_step():
    # a huge balloon weight: step 1 smooths the seed's edge into the
    # Dirac band, and step 2 multiplies it past the float range there
    image = np.full((24, 30), 0.5)
    r_k = np.zeros((24, 30))
    r_k[10:14, 12:17] = 1.0
    config = LevelSetConfig(nu=1.5e308, iterations=20, early_stop_frac=0.0)
    for budget in (2, 20):
        for evolve in (levelset.evolve, oracle_evolve):
            with pytest.raises(DivergenceError):
                evolve(r_k, image, dataclasses.replace(config, iterations=budget))
    _assert_every_step(r_k, image, dataclasses.replace(config, iterations=1))


def test_a_flat_level_past_the_float_range_diverges_as_in_the_oracle():
    # 2*eps = 1e308 is finite, but the Laplacian's sum of four such
    # values is not, so even an empty seed's flat field diverges at once
    image = np.full((12, 16), 0.5)
    config = LevelSetConfig(epsilon=5e307, early_stop_frac=0.0)
    for budget in (1, config.iterations):
        for evolve in (levelset.evolve, oracle_evolve):
            with pytest.raises(DivergenceError):
                evolve(np.zeros((12, 16)), image, dataclasses.replace(config, iterations=budget))


@pytest.mark.parametrize("eps", [0.7, 1.5])
def test_a_flat_level_moves_only_inside_the_dirac_band(eps):
    # the band rule may skip a flat field only where the step leaves it
    # as it is: at +-2*eps, not at a level within [-eps, eps]
    config = LevelSetConfig(epsilon=eps)
    g = np.ones((9, 11))
    for level, moves in ((2 * eps, False), (-2 * eps, False), (eps / 2, True), (-eps / 3, True)):
        phi = np.full((9, 11), level)
        stepped = levelset.evolve_step(phi, g, config)
        assert (stepped.tobytes() != phi.tobytes()) == moves
        box = levelset._moving_box(phi, (0, 9, 0, 11), eps)
        assert box == ((0, 9, 0, 11) if moves else None)



SIGMAS = [0.3, 1.5, 2.7]


def _assert_crop_matches(image, sigma, box):
    r0, r1, c0, c1 = box
    whole = levelset.edge_indicator(image, sigma)
    got = levelset._edge_map(image, sigma, box)
    assert got.shape == (r1 - r0, c1 - c0)
    assert got.tobytes() == whole[r0:r1, c0:c1].tobytes()


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("box", [(0, 9, 20, 30), (41, 50, 20, 30), (20, 30, 0, 7),
                                 (20, 30, 53, 60), (0, 50, 0, 60), (0, 1, 59, 60),
                                 (20, 21, 30, 31)],
                         ids=["top", "bottom", "left", "right", "whole", "corner", "pixel"])
def test_edge_map_on_a_crop_matches_the_whole_film(sigma, box):
    _assert_crop_matches(np.random.default_rng(7).random((50, 60)), sigma, box)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_edge_map_on_any_crop_matches_the_whole_film(data):
    h, w = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    r0 = data.draw(st.integers(0, h - 1))
    c0 = data.draw(st.integers(0, w - 1))
    box = (r0, data.draw(st.integers(r0 + 1, h)), c0, data.draw(st.integers(c0 + 1, w)))
    image = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).random((h, w))
    _assert_crop_matches(image, data.draw(st.sampled_from(SIGMAS)), box)


def _counting_edge_indicator(calls):
    edge_indicator = levelset.edge_indicator

    def counted(img, sigma):
        calls.append(np.shape(img))
        return edge_indicator(img, sigma)
    return mock.patch.object(levelset, "edge_indicator", counted)


def test_a_growing_band_matches_the_oracle_past_the_edge_map_slack():
    # a small seed under the balloon force grows by far more than the
    # 32 px kept around the stepped windows, so the edge map is taken
    # again on wider crops while the evolution runs
    size = 160
    rng = np.random.default_rng(5)
    rr, cc = np.mgrid[0:size, 0:size]
    image = np.clip(0.5 + rng.normal(0, 0.02, (size, size)), 0, 1)
    r_k = np.where((rr - 70) ** 2 + (cc - 90) ** 2 <= 25, 0.9, 0.1)
    config = LevelSetConfig(iterations=70, early_stop_frac=0.0)
    calls = []
    with _counting_edge_indicator(calls):
        phi, steps = levelset.evolve(r_k, image, config)
    assert steps == 70 and len(calls) >= 3
    assert calls[0][0] < size and calls[-1] == (size, size)
    assert np.count_nonzero(phi > 0) > 30 * 30
    _assert_every_step(r_k, image, config)


def test_evolve_takes_the_edge_map_only_when_some_pixel_moves():
    image = np.random.default_rng(3).random((30, 40))
    config = LevelSetConfig(iterations=10)
    for seed, moves in ((np.zeros((30, 40)), False), (np.ones((30, 40)), False),
                        (np.where(np.arange(40) < 20, 0.9, 0.1) * np.ones((30, 1)), True)):
        calls = []
        with _counting_edge_indicator(calls):
            levelset.evolve(seed, image, config)
        assert (len(calls) > 0) == moves
