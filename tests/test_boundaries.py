"""Every file boundary rejects malformed input with its declared error type.

The properties feed arbitrary and near-valid inputs to the PGM reader,
the annotation parser, the config parser and the checkpoint loader; each
must either succeed or raise its own error type, never anything else.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mammocad.cnn.network import (
    CheckpointError,
    Network,
    NetworkConfig,
    load_checkpoint,
    save_checkpoint,
)
from mammocad.config import PipelineConfig, apply_assignments, parse_assignments
from mammocad.core import ImageFormatError, TruncatedDataError, read_pgm
from mammocad.dataset import InfoParseError, parse_info


def _patched(data: bytes, patches, cut):
    out = bytearray(data)
    for position, value in patches:
        out[position % len(out)] = value
    return bytes(out[:len(out) - cut])


_PATCHES = st.lists(st.tuples(st.integers(0, 2 ** 20), st.integers(0, 255)), max_size=3)

# --- PGM ---------------------------------------------------------------------

_VALID_PGM = b"P5\n# comment\n3 2\n255\n" + bytes([0, 64, 128, 192, 255, 7])


@given(st.binary(max_size=64))
def test_read_pgm_raises_only_format_errors_on_any_bytes(data):
    try:
        image = read_pgm(data)
    except (ImageFormatError, TruncatedDataError):
        return
    pixels = np.asarray(image)
    assert pixels.ndim == 2 and np.all((pixels >= 0) & (pixels <= 1))


@given(_PATCHES, st.integers(0, len(_VALID_PGM) - 1))
def test_read_pgm_raises_only_format_errors_on_patched_files(patches, cut):
    try:
        image = read_pgm(_patched(_VALID_PGM, patches, cut))
    except (ImageFormatError, TruncatedDataError):
        return
    pixels = np.asarray(image)
    assert pixels.ndim == 2 and np.all((pixels >= 0) & (pixels <= 1))


# --- info.txt ----------------------------------------------------------------

_TOKENS = st.sampled_from(["mdb001", "G", "F", "D", "CIRC", "NORM", "SPIC", "B", "M",
                           "30", "0", "-5", "1", "x", "1.5", "#", ""])
_INFO_LINES = st.lists(st.lists(_TOKENS, max_size=8).map(" ".join), max_size=6).map("\n".join)


@given(st.one_of(st.text(max_size=80), _INFO_LINES))
def test_parse_info_raises_only_info_parse_errors(text):
    try:
        records = parse_info(text)
    except InfoParseError:
        return
    for record in records:
        assert record.radius is None or record.radius >= 1


# --- config ------------------------------------------------------------------

_KEYS = [f"{section.name}.{field.name}"
         for section in dataclasses.fields(PipelineConfig)
         for field in dataclasses.fields(getattr(PipelineConfig(), section.name))]
_VALUES = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "+Infinity", "1e999", "-1e999",
                     "0", "1", "-1", "2.5", "true", "off", "", "x"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.text(max_size=8))
_CONFIG_LINES = st.lists(st.tuples(st.sampled_from(_KEYS), _VALUES), max_size=6)


def _floats(config):
    for section in dataclasses.fields(config):
        for field in dataclasses.fields(getattr(config, section.name)):
            value = getattr(getattr(config, section.name), field.name)
            if isinstance(value, float):
                yield f"{section.name}.{field.name}", value


@given(_CONFIG_LINES)
def test_parse_config_raises_only_value_errors_and_keeps_floats_finite(assignments):
    text = "".join(f"{key} = {value}\n" for key, value in assignments)
    try:
        config = apply_assignments(PipelineConfig(), parse_assignments(text))
    except ValueError:
        return
    assert all(math.isfinite(value) for _, value in _floats(config))


@given(st.sampled_from([key for key, _ in _floats(PipelineConfig())]),
       st.sampled_from(["nan", "inf", "-inf", "1e999"]))
def test_parse_config_names_the_key_of_a_non_finite_float(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be "):
        apply_assignments(PipelineConfig(), parse_assignments(f"{key} = {value}\n"))


@given(st.text(max_size=80))
def test_parse_config_raises_only_value_errors_on_any_text(text):
    try:
        apply_assignments(PipelineConfig(), parse_assignments(text))
    except ValueError:
        pass


# --- checkpoint --------------------------------------------------------------

_SMALL = NetworkConfig(desk=True)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_checkpoint(Network(_SMALL, seed=3), path)
    return path.read_bytes()


# the desk checkpoint is about 1 MB, nearly all float data, so half the
# patches land in its first 2 KB: the header, the descriptor and the
# first tensors' names, ranks and shapes
_CHECKPOINT_PATCHES = st.lists(st.tuples(st.one_of(st.integers(0, 2047), st.integers(0, 2 ** 20)),
                                         st.integers(0, 255)), max_size=3)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(patches=_CHECKPOINT_PATCHES, cut=st.integers(0, 64))
def test_load_checkpoint_raises_only_checkpoint_errors(checkpoint_bytes, tmp_path,
                                                       patches, cut):
    path = tmp_path / "patched.bin"
    path.write_bytes(_patched(checkpoint_bytes, patches, cut))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


def _with_descriptor(checkpoint: bytes, fields: dict) -> bytes:
    """A checkpoint with its descriptor replaced by `fields` as JSON."""
    descriptor = _SMALL.descriptor()
    bad = json.dumps(fields, sort_keys=True).encode()
    start = checkpoint.index(descriptor)
    return (checkpoint[:start - 4] + len(bad).to_bytes(4, "little") + bad
            + checkpoint[start + len(descriptor):])


@pytest.mark.parametrize("key", ["out", "kernel", "stride", "window", "input_size",
                                 "num_classes", "feature_dim", "channel_scale"])
@pytest.mark.parametrize("value", [0, -1, 1.5])
def test_load_checkpoint_rejects_layer_sizes_that_cannot_run(checkpoint_bytes, tmp_path,
                                                             key, value):
    fields = json.loads(_SMALL.descriptor())
    if key in fields:
        fields[key] = value
    else:
        fields["layers"] = [dict(spec, **{key: value}) if key in spec else spec
                            for spec in fields["layers"]]
    path = tmp_path / "model.bin"
    path.write_bytes(_with_descriptor(checkpoint_bytes, fields))
    with pytest.raises(CheckpointError, match="descriptor"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_a_descriptor_with_an_unknown_field(checkpoint_bytes,
                                                                    tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(_with_descriptor(checkpoint_bytes,
                                      dict(json.loads(_SMALL.descriptor()), dropout=0.5)))
    with pytest.raises(CheckpointError, match="descriptor"):
        load_checkpoint(path)


_SMALL_FIELDS = json.loads(_SMALL.descriptor())
_DESCRIPTOR_PATHS = [(key,) for key in _SMALL_FIELDS] + [
    ("layers", i, key) for i, spec in enumerate(_SMALL_FIELDS["layers"]) for key in spec]
_DESCRIPTOR_VALUES = st.one_of(
    st.integers(-2, 10 ** 6), st.floats(), st.text(max_size=8), st.booleans(), st.none(),
    st.recursive(st.integers(0, 3), lambda inner: st.lists(inner, max_size=3), max_leaves=6))


# a file loads exactly when the patched descriptor is the profile's own,
# byte for byte; the default deadline holds each load to 200 ms, so any
# other descriptor must be turned down before a tensor is read
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.sampled_from(_DESCRIPTOR_PATHS), value=_DESCRIPTOR_VALUES)
def test_load_checkpoint_raises_only_checkpoint_errors_on_patched_descriptors(
        checkpoint_bytes, tmp_path, where, value):
    fields = json.loads(_SMALL.descriptor())
    parent = fields
    for step in where[:-1]:
        parent = parent[step]
    parent[where[-1]] = value
    path = tmp_path / "model.bin"
    path.write_bytes(_with_descriptor(checkpoint_bytes, fields))
    if json.dumps(fields, sort_keys=True).encode() == _SMALL.descriptor():
        assert load_checkpoint(path).config == _SMALL
    else:
        with pytest.raises(CheckpointError, match="descriptor"):
            load_checkpoint(path)
