import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mammocad.cnn.network import NetworkConfig
from mammocad.config import PipelineConfig, apply_assignments, format_config, parse_assignments
from mammocad.denoise import match_tau
from mammocad.enhance import EnhanceConfig


def parse_config(text):
    return apply_assignments(PipelineConfig(), parse_assignments(text))


def test_empty_config_is_valid():
    cfg = parse_config("")
    assert cfg.pipeline.sigma == 25.0
    assert cfg.levelset.iterations == 200
    assert cfg.sfcm.clusters == 4
    assert cfg.enhance.median_window == 10
    assert cfg.train.epochs == 20


def test_assignments_and_comments():
    cfg = parse_config(
        "# a comment\n"
        "pipeline.sigma = 40\n"
        "levelset.nu = 2.0   # trailing comment\n"
        "network.desk = true\n"
        "sfcm.clusters = 3\n")
    assert cfg.pipeline.sigma == 40.0
    assert cfg.levelset.nu == 2.0
    assert cfg.network.desk is True
    assert cfg.sfcm.clusters == 3


def test_unknown_key_rejected():
    # an unknown section is an unknown key, and so is a key a newer version dropped
    for key in ("levelset.bogus", "nosection.x", "denoise.tau_hard"):
        with pytest.raises(ValueError, match=f"^unknown config key '{key}'$"):
            parse_config(f"{key} = 1\n")
    with pytest.raises(ValueError):
        parse_config("just a line\n")


def test_round_trip_through_format():
    cfg = parse_config("pipeline.sigma = 55\ntrain.epochs = 3\n")
    again = parse_config(format_config(cfg))
    assert again.pipeline.sigma == 55.0
    assert again.train.epochs == 3
    assert format_config(again) == format_config(cfg)


def test_denoise_profile_tracks_sigma_when_untouched():
    # sigma is the denoiser's one setting, and it picks the thresholds
    for text, pair in (("pipeline.sigma = 25\n", (400.0, 2500.0)),
                       ("pipeline.sigma = 60\n", (5000.0, 3500.0))):
        sigma = parse_config(text).pipeline.sigma
        assert (match_tau(sigma, "hard"), match_tau(sigma, "wiener")) == pair
    assert not any(line.startswith("denoise.") for line in format_config(PipelineConfig()).splitlines())


def test_fields_checked_together_may_be_assigned_in_any_order():
    # r1 must stay below r2; raising r1 past the default r2 first must not fail
    cfg = apply_assignments(PipelineConfig(), [("enhance.r1", "220"), ("enhance.r2", "240")])
    assert cfg.enhance == EnhanceConfig(r1=220, r2=240)
    with pytest.raises(ValueError, match="r1 < r2"):
        apply_assignments(PipelineConfig(), [("enhance.r1", "220")])


def test_an_int_beyond_the_float_range_is_finite():
    assert parse_config(f"sfcm.max_iter = {10 ** 400}\n").sfcm.max_iter == 10 ** 400
    with pytest.raises(ValueError, match="^sfcm.max_iter must be an integer, got '1e3'$"):
        parse_config("sfcm.max_iter = 1e3\n")


def test_desk_network_profile():
    net = parse_config("network.desk = true\n").network_config()
    assert net == NetworkConfig(desk=True)
    assert net.input_size == 64
    full = PipelineConfig().network_config()
    assert full == NetworkConfig() and full.input_size == 256


@pytest.mark.parametrize("desk", ["false", "true"])
@pytest.mark.parametrize("size", [0, 16, 62])
def test_a_network_that_cannot_be_built_is_refused(desk, size):
    # the profile fixes the input size, so no config asks for one the plan refuses
    with pytest.raises(ValueError, match="^unknown config key 'network.input_size'$"):
        parse_config(f"network.desk = {desk}\nnetwork.input_size = {size}\n")


@pytest.mark.parametrize("key", ["train.seed"])
def test_a_negative_seed_is_refused(key):
    with pytest.raises(ValueError, match=f"^{key} must be non-negative, got -1$"):
        parse_config(f"{key} = -1\n")


def test_a_seed_the_checkpoint_cannot_store_is_refused():
    # the checkpoint keeps the seed as a u64
    assert parse_config(f"train.seed = {2 ** 64 - 1}\n").train.seed == 2 ** 64 - 1
    with pytest.raises(ValueError, match=rf"^train.seed must be below 2\*\*64, got {2 ** 64}$"):
        parse_config(f"train.seed = {2 ** 64}\n")


def test_accessors_read_the_resolved_sections():
    cfg = parse_config("sfcm.clusters = 3\ntrain.epochs = 2\n")
    assert cfg.sfcm_config() is cfg.sfcm
    assert cfg.train_config() is cfg.train


_KEYS = {
    "pipeline.sigma": st.floats(0.5, 100.0, allow_nan=False),
    "network.desk": st.booleans(),
    "train.seed": st.integers(0, 2 ** 31),
    "levelset.nu": st.floats(-10.0, 10.0, allow_nan=False),
}
_ASSIGNMENT = st.sampled_from(sorted(_KEYS)).flatmap(
    lambda key: _KEYS[key].map(lambda value: (key, str(value).lower())))


@given(st.lists(_ASSIGNMENT, max_size=8))
def test_echo_round_trips_the_resolved_config(assignments):
    cfg = apply_assignments(PipelineConfig(), assignments)
    assert parse_config(format_config(cfg)) == cfg


# every real-valued setting, by its config key: (section class, field)
_REAL_SETTINGS = {f"{section.name}.{field.name}": (type(section.default), field.name)
                  for section in dataclasses.fields(PipelineConfig)
                  for field in dataclasses.fields(section.default)
                  if isinstance(getattr(section.default, field.name), float)}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", sorted(_REAL_SETTINGS))
def test_a_section_built_directly_refuses_a_non_finite_setting(key, value):
    # the config file's parser has no finite check of its own: the section is the one check
    section, field = _REAL_SETTINGS[key]
    with pytest.raises(ValueError, match=field):
        section(**{field: value})
