"""Network assembly, inference and the checkpoint container.

The default architecture follows the early convolutional stack of the
classic large image-classification network, shrunk to one input
channel and two output classes, with a 300-unit feature layer before
the classifier head. The desk profile divides channel counts by 4 and
works on 64x64 inputs so CPU training stays tractable.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .layers import BatchNorm2d, Conv2d, Dense, Flatten, MaxPool2d, ReLU, softmax_predict

CHECKPOINT_MAGIC = b"MCADNET1"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Raised for a malformed, truncated or incomplete checkpoint file."""


def _default_layers(channel_scale: int, feature_dim: int, num_classes: int):
    s = channel_scale
    return [
        {"kind": "conv", "out": 96 // s, "kernel": 11, "stride": 4, "padding": 2},
        {"kind": "batchnorm"},
        {"kind": "relu"},
        {"kind": "pool", "window": 3, "stride": 2},
        {"kind": "conv", "out": 256 // s, "kernel": 5, "stride": 1, "padding": 2},
        {"kind": "batchnorm"},
        {"kind": "relu"},
        {"kind": "pool", "window": 3, "stride": 2},
        {"kind": "conv", "out": 384 // s, "kernel": 3, "stride": 1, "padding": 1},
        {"kind": "batchnorm"},
        {"kind": "relu"},
        {"kind": "pool", "window": 3, "stride": 2},
        {"kind": "flatten"},
        {"kind": "dense", "out": feature_dim},
        {"kind": "relu"},
        {"kind": "dense", "out": num_classes},
    ]


@dataclass(frozen=True)
class NetworkConfig:
    input_size: int = 256
    num_classes: int = 2
    feature_dim: int = 300
    channel_scale: int = 1
    layers: list = field(default_factory=list)

    def __post_init__(self):
        if not self.layers:
            object.__setattr__(self, "layers", _default_layers(
                self.channel_scale, self.feature_dim, self.num_classes))

    @staticmethod
    def desk() -> "NetworkConfig":
        return NetworkConfig(input_size=64, channel_scale=4)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "NetworkConfig":
        d = json.loads(text)
        names = {f.name for f in dataclasses.fields(NetworkConfig)}
        if not isinstance(d, dict) or set(d) != names:
            raise ValueError(f"descriptor must hold exactly the fields {sorted(names)}")
        return NetworkConfig(**d)


def _count(spec, key, default=None, least=1):
    """A layer's integer setting, checked: a descriptor read from a
    checkpoint may carry any value."""
    value = spec.get(key, default)
    if type(value) is not int or value < least:
        raise ValueError(f"{spec['kind']} {key} must be an integer of at least {least}, "
                         f"got {value!r}")
    return value


class Network:
    """Layer stack with shape checking done once at construction."""

    def __init__(self, config: NetworkConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.layers = []
        channels, h, w = 1, config.input_size, config.input_size
        flat = None
        for spec in config.layers:
            kind = spec["kind"]
            if kind == "conv":
                layer = Conv2d(channels, _count(spec, "out"), _count(spec, "kernel"),
                               stride=_count(spec, "stride", 1),
                               padding=_count(spec, "padding", 0, least=0), rng=rng)
                h, w = layer.output_shape(h, w)
                channels = spec["out"]
            elif kind == "batchnorm":
                layer = BatchNorm2d(channels)
            elif kind == "relu":
                layer = ReLU()
            elif kind == "pool":
                layer = MaxPool2d(_count(spec, "window", 3), _count(spec, "stride", 2))
                h, w = layer.output_shape(h, w)
            elif kind == "flatten":
                layer = Flatten()
                flat = channels * h * w
            elif kind == "dense":
                if flat is None:
                    raise ValueError("dense layer before flatten")
                layer = Dense(flat, _count(spec, "out"), rng=rng)
                flat = spec["out"]
            else:
                raise ValueError(f"unknown layer kind {kind!r}")
            if kind in ("conv", "pool") and (h < 1 or w < 1):
                raise ValueError(f"spatial extent collapsed to {h}x{w} at {kind}")
            self.layers.append(layer)
        if flat != config.num_classes:
            raise ValueError(f"head produces {flat} outputs, expected {config.num_classes}")

    def forward(self, x, train=False):
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def _named(self, part):
        return {f"layer{i:02d}.{name}": value for i, layer in enumerate(self.layers)
                for name, value in getattr(layer, part)().items()}

    def named_params(self):
        return self._named("params")

    def named_grads(self):
        return self._named("grads")

    def named_state(self):
        """Non-trained tensors that still belong in a checkpoint."""
        return self._named("state")

    def set_tensor(self, name, value):
        idx = int(name.split(".")[0].removeprefix("layer"))
        attr = name.split(".", 1)[1]
        layer = self.layers[idx]
        current = getattr(layer, attr)
        if current.shape != value.shape:
            raise ValueError(f"shape mismatch for {name}: {current.shape} vs {value.shape}")
        setattr(layer, attr, value.copy())

    def predict(self, images):
        """Probabilities and labels for a batch of 2-D images."""
        x = np.stack([np.asarray(im, dtype=np.float64) for im in images])[:, None]
        logits = self.forward(x, train=False)
        return softmax_predict(logits)


def save_checkpoint(network: Network, path) -> None:
    """Versioned binary container with named little-endian float64 tensors."""
    tensors = dict(network.named_params())
    tensors.update(network.named_state())
    descriptor = network.config.to_json().encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(descriptor)))
        fh.write(descriptor)
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            encoded = name.encode()
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> Network:
    """Rebuild a network from a checkpoint; every parameter and state
    tensor must appear exactly once, and nothing may follow the last."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a model checkpoint (bad magic)")
    pos = 8

    def take(size: int) -> bytes:
        nonlocal pos
        if pos + size > len(data):
            raise CheckpointError(f"checkpoint truncated: needs byte {pos + size}, "
                                  f"file has {len(data)}")
        pos += size
        return data[pos - size:pos]

    def u32() -> int:
        return struct.unpack("<I", take(4))[0]

    version = u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    descriptor = take(u32())
    try:
        network = Network(NetworkConfig.from_json(descriptor.decode()))
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"bad network descriptor: {exc}") from exc
    expected = {name: value.shape for name, value in network.named_params().items()}
    expected.update((name, value.shape) for name, value in network.named_state().items())
    seen = set()
    for _ in range(u32()):
        try:
            name = take(u32()).decode()
        except UnicodeDecodeError:
            raise CheckpointError("tensor name is not UTF-8") from None
        if name not in expected:
            raise CheckpointError(f"unknown tensor {name!r}")
        if name in seen:
            raise CheckpointError(f"tensor {name!r} appears twice")
        seen.add(name)
        rank = u32()
        shape = struct.unpack(f"<{rank}Q", take(8 * rank))
        if shape != expected[name]:
            raise CheckpointError(f"tensor {name!r} has shape {shape}, "
                                  f"expected {expected[name]}")
        arr = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"tensor {name!r} holds a non-finite value")
        if name.endswith(".running_var") and np.any(arr < 0):
            raise CheckpointError(f"tensor {name!r} holds a negative variance")
        network.set_tensor(name, arr.astype(np.float64))
    missing = sorted(set(expected) - seen)
    if missing:
        raise CheckpointError(f"{len(missing)} tensors missing, first {missing[0]!r}")
    if pos != len(data):
        raise CheckpointError(f"{len(data) - pos} bytes after the last tensor")
    return network
