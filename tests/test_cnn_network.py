import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest

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
    net = Network(NetworkConfig(input_size=256), seed=0)
    x = np.random.default_rng(0).random((2, 1, 256, 256))
    logits = net.forward(x)
    assert logits.shape == (2, 2)


def test_desk_profile_shapes():
    net = Network(NetworkConfig.desk(), seed=0)
    x = np.random.default_rng(1).random((3, 1, 64, 64))
    assert net.forward(x).shape == (3, 2)


def test_full_profile_backward_pass():
    from mammocad.cnn.layers import cross_entropy, softmax_predict

    net = Network(NetworkConfig(input_size=256), seed=0)
    x = np.random.default_rng(2).random((2, 1, 256, 256))
    probs, _ = softmax_predict(net.forward(x, train=True))
    _, grad = cross_entropy(probs, np.array([0, 1]))
    net.backward(grad)
    grads = net.named_grads()
    assert grads and all(np.all(np.isfinite(g)) for g in grads.values())


@pytest.mark.parametrize("config", [NetworkConfig.desk(), NetworkConfig()],
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
        net = Network(NetworkConfig.desk(), seed=0)
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


@pytest.mark.parametrize("config", [NetworkConfig.desk(), NetworkConfig()],
                         ids=["desk", "full"])
def test_plan_names_the_tensors_each_layer_kind_declares(config):
    net = Network(config, seed=0)
    for step, layer in zip(layer_plan(config), net.layers, strict=True):
        assert tuple(step.shapes) == type(layer).PARAMS + type(layer).STATE, step.kind


def test_desk_profile_channel_scaling():
    net = Network(NetworkConfig.desk(), seed=0)
    convs = [l for l in net.layers if hasattr(l, "stride") and hasattr(l, "weight")]
    assert [c.weight.shape[0] for c in convs] == [24, 64, 96]


def test_invalid_architecture_rejected():
    cfg = NetworkConfig(input_size=16)  # spatial extent collapses
    with pytest.raises(ValueError):
        Network(cfg)


def test_predict_probabilities():
    net = Network(NetworkConfig.desk(), seed=3)
    rng = np.random.default_rng(3)
    probs, labels = net.predict([rng.random((64, 64)) for _ in range(4)])
    assert probs.shape == (4, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert set(labels) <= {0, 1}


@pytest.mark.parametrize("config", [NetworkConfig.desk(), NetworkConfig()],
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
    save_checkpoint(Network(NetworkConfig.desk(), seed=9), path)

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


def test_checkpoint_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(Network(NetworkConfig.desk(), seed=7), a)
    save_checkpoint(Network(NetworkConfig.desk(), seed=7), b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _checkpoint(tensors, descriptor=NetworkConfig.desk().to_json().encode(), seed=8):
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
    net = Network(NetworkConfig.desk(), seed=8)
    tensors = dict(net.named_params())
    tensors.update(net.named_state())
    return sorted(tensors.items())


def test_checkpoint_helper_matches_save(tmp_path, desk_tensors):
    path = tmp_path / "model.bin"
    save_checkpoint(Network(NetworkConfig.desk(), seed=8), path)
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


@pytest.mark.parametrize("case, message", [
    ("empty", "missing"),
    ("missing", "missing"),
    ("repeated", "twice"),
    ("unknown", "unknown tensor"),
    ("reshaped", "has shape"),
    ("trailing", "after the last tensor"),
    ("truncated", "truncated"),
    ("seed_cut", "needs byte 20, file has 15"),
    ("negative_var", "'layer01.running_var' holds a negative variance"),
    ("nan_weight", "'layer00.weight' holds a non-finite value"),
    ("inf_mean", "'layer05.running_mean' holds a non-finite value"),
    ("nested", "bad network descriptor"),
    ("relu_key", "relu layer 2 takes no out"),
    ("conv_key", "conv layer 0 takes no extra"),
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

    def patched_layer(index, **keys):
        fields = json.loads(NetworkConfig.desk().to_json())
        fields["layers"][index].update(keys)
        return _checkpoint(desk_tensors, json.dumps(fields, sort_keys=True).encode())

    data = {
        "empty": lambda: _checkpoint([]),
        "missing": lambda: _checkpoint(desk_tensors[1:]),
        "repeated": lambda: _checkpoint(desk_tensors + [(name, arr)]),
        "unknown": lambda: _checkpoint(desk_tensors + [("layer99.weight", arr)]),
        "reshaped": lambda: _checkpoint([(name, arr.reshape(1, -1))] + desk_tensors[1:]),
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


@pytest.mark.parametrize("input_size", [4096, 1_000_000])
def test_an_oversized_descriptor_is_rejected_before_any_tensor_is_read(tmp_path, desk_tensors,
                                                                      input_size):
    path = tmp_path / "model.bin"
    config = dataclasses.replace(NetworkConfig.desk(), input_size=input_size)
    path.write_bytes(_checkpoint(desk_tensors, config.to_json().encode()))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= path.stat().st_size
