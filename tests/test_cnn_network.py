import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mammocad.cnn.network import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    Network,
    NetworkConfig,
    layer_plan,
    load_checkpoint,
    save_checkpoint,
)


def test_full_profile_shapes():
    net = Network(NetworkConfig(), seed=0)
    x = np.random.default_rng(0).random((2, 1, 256, 256))
    logits = net.forward(x)
    assert logits.shape == (2, 2)


def test_desk_profile_shapes():
    net = Network(NetworkConfig(desk=True), seed=0)
    x = np.random.default_rng(1).random((3, 1, 64, 64))
    assert net.forward(x).shape == (3, 2)


def test_predict_leaves_no_batch_norm_cache():
    from mammocad.cnn.layers import BatchNorm2d

    net = Network(NetworkConfig(desk=True), seed=0)
    x = np.random.default_rng(3).random((2, 1, 64, 64))
    net.forward(x, train=True)  # fills every layer's cache
    net.predict(list(x[:, 0]))
    norms = [layer for layer in net.layers if isinstance(layer, BatchNorm2d)]
    assert len(norms) == 3 and all(layer._cache is None for layer in norms)


def test_full_profile_backward_pass():
    from mammocad.cnn.layers import cross_entropy, softmax_predict

    net = Network(NetworkConfig(), seed=0)
    x = np.random.default_rng(2).random((2, 1, 256, 256))
    probs, _ = softmax_predict(net.forward(x, train=True))
    _, grad = cross_entropy(probs, np.array([0, 1]))
    net.backward(grad)
    grads = net.named_grads()
    assert grads and all(np.all(np.isfinite(g)) for g in grads.values())


@pytest.mark.parametrize("config", [NetworkConfig(desk=True), NetworkConfig()],
                         ids=["desk", "full"])
def test_backward_skips_only_the_input_gradient(config):
    from mammocad.cnn.layers import cross_entropy, softmax_predict

    size = config.input_size
    x = np.random.default_rng(6).random((2, 1, size, size))
    nets = [Network(config, seed=6) for _ in range(2)]
    grads = [cross_entropy(softmax_predict(net.forward(x, train=True))[0],
                           np.array([0, 1]))[1] for net in nets]
    assert nets[0].backward(grads[0]) is None
    grad = grads[1]
    for layer in reversed(nets[1].layers):
        grad = layer.backward(grad)  # every input gradient formed
    assert grad.shape == x.shape
    want = nets[1].named_grads()
    got = nets[0].named_grads()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_training_step_carries_no_forward_cache():
    from mammocad.cnn.layers import cross_entropy, sgd_step, softmax_predict

    rng = np.random.default_rng(4)
    x = rng.random((16, 1, 64, 64))
    y = np.arange(16) % 2
    tracemalloc.start()
    try:
        net = Network(NetworkConfig(desk=True), seed=0)
        velocity = None
        forward_peaks = []
        for _ in range(2):
            tracemalloc.reset_peak()
            probs, _ = softmax_predict(net.forward(x, train=True))
            forward_peaks.append(tracemalloc.get_traced_memory()[1])
            net.backward(cross_entropy(probs, y)[1])
            assert all(layer._cache is None for layer in net.layers)
            velocity = sgd_step(net.named_params(), net.named_grads(), 0.01, 0.9, velocity)
            del probs
    finally:
        tracemalloc.stop()
    # between steps only the gradients and the momentum are new; a cache
    # left from the first step would sit beside the second forward's own
    # (over 5 MB more here)
    carried = sum(g.nbytes for g in net.named_grads().values())
    carried += sum(v.nbytes for v in velocity.values())
    bookkeeping = 64 * 1024
    assert forward_peaks[1] <= forward_peaks[0] + carried + bookkeeping


@pytest.mark.parametrize("config", [NetworkConfig(desk=True), NetworkConfig()],
                         ids=["desk", "full"])
def test_plan_names_the_tensors_each_layer_kind_declares(config):
    net = Network(config, seed=0)
    for step, layer in zip(layer_plan(config), net.layers, strict=True):
        assert tuple(step.shapes) == type(layer).PARAMS + type(layer).STATE, step.kind


def test_desk_profile_channel_scaling():
    net = Network(NetworkConfig(desk=True), seed=0)
    convs = [l for l in net.layers if hasattr(l, "stride") and hasattr(l, "weight")]
    assert [c.weight.shape[0] for c in convs] == [24, 64, 96]


def test_predict_probabilities():
    net = Network(NetworkConfig(desk=True), seed=3)
    rng = np.random.default_rng(3)
    probs, labels = net.predict([rng.random((64, 64)) for _ in range(4)])
    assert probs.shape == (4, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert set(labels) <= {0, 1}


@pytest.mark.parametrize("config", [NetworkConfig(desk=True), NetworkConfig()],
                         ids=["desk", "full"])
def test_checkpoint_round_trip(tmp_path, config):
    net = Network(config, seed=5)
    size = config.input_size
    # make running stats non-trivial so they are exercised too
    x = np.random.default_rng(5).random((4, 1, size, size))
    net.forward(x, train=True)
    path = tmp_path / "model.bin"
    save_checkpoint(net, path)
    again = load_checkpoint(path)
    for name, tensor in net.named_params().items():
        np.testing.assert_array_equal(again.named_params()[name], tensor)
    for name, tensor in net.named_state().items():
        np.testing.assert_array_equal(again.named_state()[name], tensor)
    img = np.random.default_rng(6).random((size, size))
    np.testing.assert_array_equal(net.predict([img])[0], again.predict([img])[0])


def test_loading_draws_no_random_numbers(tmp_path, monkeypatch):
    path = tmp_path / "model.bin"
    save_checkpoint(Network(NetworkConfig(desk=True), seed=9), path)

    def no_generator(*args, **kwargs):
        raise AssertionError("loading a checkpoint made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    load_checkpoint(path)


def test_loading_allocates_about_the_file_size_once(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(Network(NetworkConfig(), seed=9), path)
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * path.stat().st_size


def test_saving_copies_no_tensor(tmp_path):
    net = Network(NetworkConfig(), seed=9)
    tracemalloc.start()
    try:
        save_checkpoint(net, tmp_path / "model.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the first dense weight alone is 45 MB
    assert peak <= 1024 * 1024


def test_checkpoint_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(Network(NetworkConfig(desk=True), seed=7), a)
    save_checkpoint(Network(NetworkConfig(desk=True), seed=7), b)
    assert a.read_bytes() == b.read_bytes()


# a checkpoint records its profile's descriptor; a change to these bytes,
# by a layer edit or by json.dumps itself, orphans every saved checkpoint
@pytest.mark.parametrize("desk, digest", [
    (False, "a82904e62a3259763996845044263b952d93db2b19228ca403368f6730ba7ffe"),
    (True, "442dde58dbdaf5bac80350e9ca496afa5f628d6e19f236c119bffb8fdec6a334"),
], ids=["full", "desk"])
def test_the_profile_descriptors_keep_their_bytes(desk, digest):
    assert hashlib.sha256(NetworkConfig(desk=desk).descriptor()).hexdigest() == digest


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _checkpoint(tensors, descriptor=NetworkConfig(desk=True).descriptor(), seed=8):
    """Checkpoint bytes with the given (name, array) list, by default
    under the desk network's descriptor and the seed of `desk_tensors`."""
    out = [CHECKPOINT_MAGIC, struct.pack("<IQI", CHECKPOINT_VERSION, seed, len(descriptor)),
           descriptor, struct.pack("<I", len(tensors))]
    for name, arr in tensors:
        out += [struct.pack("<I", len(name)), name.encode(),
                struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape),
                np.ascontiguousarray(arr, dtype="<f8").tobytes()]
    return b"".join(out)


@pytest.fixture(scope="module")
def desk_tensors():
    net = Network(NetworkConfig(desk=True), seed=8)
    tensors = dict(net.named_params())
    tensors.update(net.named_state())
    return sorted(tensors.items())


def test_checkpoint_helper_matches_save(tmp_path, desk_tensors):
    path = tmp_path / "model.bin"
    save_checkpoint(Network(NetworkConfig(desk=True), seed=8), path)
    assert path.read_bytes() == _checkpoint(desk_tensors)


@pytest.mark.parametrize("seed", [0, 3, 2 ** 64 - 1])
def test_the_checkpoint_keeps_the_seed_after_the_version(tmp_path, desk_tensors, seed):
    path = tmp_path / "model.bin"
    path.write_bytes(_checkpoint(desk_tensors, seed=seed))
    assert path.read_bytes()[8:20] == struct.pack("<IQ", 2, seed)
    assert load_checkpoint(path).seed == seed
    again = tmp_path / "again.bin"
    save_checkpoint(load_checkpoint(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_the_loader_compares_the_descriptor_and_parses_none(tmp_path, desk_tensors,
                                                            monkeypatch):
    def no_parse(*args, **kwargs):
        raise AssertionError("loading a checkpoint parsed JSON")

    monkeypatch.setattr(json, "loads", no_parse)
    path = tmp_path / "model.bin"
    path.write_bytes(_checkpoint(desk_tensors))
    assert load_checkpoint(path).config == NetworkConfig(desk=True)
    # a network that could be built, but neither profile
    wider = NetworkConfig(desk=True).descriptor().replace(b'"feature_dim": 300',
                                                          b'"feature_dim": 301')
    path.write_bytes(_checkpoint(desk_tensors, wider))
    with pytest.raises(CheckpointError, match="bad network descriptor"):
        load_checkpoint(path)


@pytest.mark.parametrize("case, message", [
    ("empty", "missing"),
    ("missing", "missing"),
    ("repeated", "after the last tensor"),
    ("unknown", "after the last tensor"),
    ("reshaped", "8 bytes after the last tensor"),
    ("swapped", "the header of 'layer01.beta' is not the profile's"),
    ("count", "23 tensors, the profile has 22"),
    ("trailing", "after the last tensor"),
    ("truncated", "truncated"),
    ("seed_cut", "needs byte 24, file has 15"),
    ("negative_var", "'layer01.running_var' holds a negative variance"),
    ("nan_weight", "'layer00.weight' holds a non-finite value"),
    ("inf_mean", "'layer05.running_mean' holds a non-finite value"),
    ("nested", "bad network descriptor"),
    ("relu_key", "bad network descriptor"),
    ("conv_key", "bad network descriptor"),
])
def test_checkpoint_loader_rejects(tmp_path, desk_tensors, case, message):
    name, arr = desk_tensors[0]

    def first_entry(target, value):
        tensors = []
        for tensor_name, tensor in desk_tensors:
            if tensor_name == target:
                tensor = tensor.copy()
                tensor.flat[0] = value
            tensors.append((tensor_name, tensor))
        return _checkpoint(tensors)

    def with_count(count):
        data = bytearray(_checkpoint(desk_tensors))
        # the count follows the magic, version, seed, descriptor length and descriptor
        struct.pack_into("<I", data, 24 + len(NetworkConfig(desk=True).descriptor()), count)
        return bytes(data)

    def patched_layer(index, **keys):
        fields = json.loads(NetworkConfig(desk=True).descriptor())
        fields["layers"][index].update(keys)
        return _checkpoint(desk_tensors, json.dumps(fields, sort_keys=True).encode())

    data = {
        "empty": lambda: _checkpoint([]),
        "missing": lambda: _checkpoint(desk_tensors[1:]),
        "repeated": lambda: _checkpoint(desk_tensors + [(name, arr)]),
        "unknown": lambda: _checkpoint(desk_tensors + [("layer99.weight", arr)]),
        "reshaped": lambda: _checkpoint([(name, arr.reshape(1, -1))] + desk_tensors[1:]),
        "swapped": lambda: _checkpoint(desk_tensors[:2] + desk_tensors[3:1:-1]
                                       + desk_tensors[4:]),
        "count": lambda: with_count(23),
        "trailing": lambda: _checkpoint(desk_tensors) + b"\0",
        "truncated": lambda: _checkpoint(desk_tensors)[:-3],
        "seed_cut": lambda: _checkpoint(desk_tensors)[:15],
        "negative_var": lambda: first_entry("layer01.running_var", -1.0),
        "nan_weight": lambda: first_entry("layer00.weight", np.nan),
        "inf_mean": lambda: first_entry("layer05.running_mean", np.inf),
        "nested": lambda: _checkpoint(desk_tensors, b"[" * 100_000),
        "relu_key": lambda: patched_layer(2, out=5),
        "conv_key": lambda: patched_layer(0, extra=1),
    }[case]()
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_a_file_that_shrinks_while_read_is_refused(tmp_path, desk_tensors, monkeypatch):
    from types import SimpleNamespace

    from mammocad.cnn import network

    full = _checkpoint(desk_tensors)
    path = tmp_path / "model.bin"
    path.write_bytes(full[:-8])     # sized at full length, then cut by a writer
    monkeypatch.setattr(network.os, "fstat", lambda fd: SimpleNamespace(st_size=len(full)))
    with pytest.raises(CheckpointError, match="truncated while it was read"):
        load_checkpoint(path)


@pytest.mark.parametrize("input_size", [4096, 1_000_000])
def test_an_oversized_descriptor_is_rejected_before_any_tensor_is_read(tmp_path, desk_tensors,
                                                                      input_size):
    path = tmp_path / "model.bin"
    descriptor = NetworkConfig(desk=True).descriptor()
    oversized = descriptor.replace(b'"input_size": 64', f'"input_size": {input_size}'.encode())
    assert oversized != descriptor
    path.write_bytes(_checkpoint(desk_tensors, oversized))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="descriptor"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= path.stat().st_size


@pytest.fixture(scope="module")
def layout_offsets(desk_tensors):
    """Offsets of every byte of the desk checkpoint but the seed's and the
    tensor values': the bytes two files agree on when one has every
    seed and value bit clear and the other every one set."""
    clear = _checkpoint([(name, np.zeros(arr.shape)) for name, arr in desk_tensors], seed=0)
    filled = _checkpoint([(name, np.full(arr.shape, -1, dtype=np.int64).view("<f8"))
                          for name, arr in desk_tensors], seed=2 ** 64 - 1)
    offsets = np.flatnonzero(np.frombuffer(clear, np.uint8) == np.frombuffer(filled, np.uint8))
    values = sum(arr.size for _, arr in desk_tensors)
    assert len(offsets) == len(clear) - 8 - 8 * values
    return offsets.tolist()


def test_every_changed_layout_byte_is_refused(tmp_path, desk_tensors, layout_offsets):
    checkpoint = _checkpoint(desk_tensors)
    path = tmp_path / "patched.bin"
    loaded = []
    for offset in layout_offsets:
        patched = bytearray(checkpoint)
        patched[offset] ^= 1 + offset % 255     # each bit of the byte is flipped somewhere
        path.write_bytes(patched)
        try:
            load_checkpoint(path)
        except CheckpointError:
            continue
        loaded.append(offset)
    assert loaded == []


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(data=st.data())
def test_a_file_with_two_entries_swapped_is_refused(tmp_path, desk_tensors, data):
    tensors = list(desk_tensors)
    i, j = data.draw(st.lists(st.integers(0, len(tensors) - 1), min_size=2, max_size=2,
                              unique=True))
    tensors[i], tensors[j] = tensors[j], tensors[i]
    path = tmp_path / "swapped.bin"
    path.write_bytes(_checkpoint(tensors))
    with pytest.raises(CheckpointError, match="is not the profile's"):
        load_checkpoint(path)
