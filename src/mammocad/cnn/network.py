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
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .layers import (MAX_POOL_WINDOW, BatchNorm2d, Conv2d, Dense, Flatten, MaxPool2d, ReLU,
                     softmax_predict, window_positions)

CHECKPOINT_MAGIC = b"MCADNET1"
CHECKPOINT_VERSION = 2


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


def _count(value, what, least=1, most=None):
    """`value`, checked to be an integer in range: a descriptor read from
    a checkpoint may carry any value."""
    if type(value) is not int or value < least or (most is not None and value > most):
        bound = f"of at least {least}" if most is None else f"from {least} to {most}"
        raise ValueError(f"{what} must be an integer {bound}, got {value!r}")
    return value


@dataclass(frozen=True)
class NetworkConfig:
    input_size: int = 256
    num_classes: int = 2
    feature_dim: int = 300
    channel_scale: int = 1
    layers: list = field(default_factory=list)

    def __post_init__(self):
        # checked before the default layers are worked out from them
        for name in ("input_size", "num_classes", "feature_dim", "channel_scale"):
            _count(getattr(self, name), name)
        if not isinstance(self.layers, list):
            raise ValueError(f"layers must be a list, got {self.layers!r}")
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


# each layer kind's class, and the keys its spec may carry besides the kind
_LAYER_KINDS = {"conv": (Conv2d, {"out", "kernel", "stride", "padding"}),
                "batchnorm": (BatchNorm2d, set()), "relu": (ReLU, set()),
                "pool": (MaxPool2d, {"window", "stride"}), "flatten": (Flatten, set()),
                "dense": (Dense, {"out"})}


class PlannedLayer(NamedTuple):
    """One layer as the network builds it: its kind, the settings its
    constructor takes and the shape of each tensor it holds, by name."""
    kind: str
    settings: dict
    shapes: dict


def layer_plan(config: NetworkConfig) -> list[PlannedLayer]:
    """Check each layer of `config` and work out its tensor shapes,
    allocating nothing, so a checkpoint's descriptor is judged before any
    tensor is read. This is the one walk over `config.layers`."""
    plan = []
    channels, size = 1, config.input_size
    flat = None                     # the feature width, once flattened
    for i, spec in enumerate(config.layers):
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if not isinstance(kind, str) or kind not in _LAYER_KINDS:
            raise ValueError(f"layer {i} has no known kind: {spec!r}")
        unknown = set(spec) - {"kind"} - _LAYER_KINDS[kind][1]
        if unknown:
            raise ValueError(f"{kind} layer {i} takes no {', '.join(sorted(unknown))}")
        if flat is not None and kind in ("conv", "batchnorm", "pool", "flatten"):
            raise ValueError(f"{kind} layer {i} comes after flatten")

        def setting(key, default=None, least=1, most=None):
            return _count(spec.get(key, default), f"{kind} {key}", least, most)

        settings, shapes = {}, {}
        if kind == "conv":
            out, kernel = setting("out"), setting("kernel")
            settings = {"stride": setting("stride", 1), "padding": setting("padding", 0, least=0)}
            shapes = {"weight": (out, channels, kernel, kernel), "bias": (out,)}
            channels = out
            size = window_positions(size, kernel, settings["stride"], settings["padding"])
        elif kind == "batchnorm":
            shapes = dict.fromkeys(BatchNorm2d.PARAMS + BatchNorm2d.STATE, (channels,))
        elif kind == "pool":
            settings = {"window": setting("window", 3, most=MAX_POOL_WINDOW),
                        "stride": setting("stride", 2)}
            size = window_positions(size, settings["window"], settings["stride"])
        elif kind == "flatten":
            flat = channels * size * size
        elif kind == "dense":
            if flat is None:
                raise ValueError("dense layer before flatten")
            out = setting("out")
            shapes = {"weight": (flat, out), "bias": (out,)}
            flat = out
        if size < 1:
            raise ValueError(f"spatial extent collapsed to {size}x{size} at {kind}")
        plan.append(PlannedLayer(kind, settings, shapes))
    if flat != config.num_classes:
        raise ValueError(f"head produces {flat} outputs, expected {config.num_classes}")
    return plan


def _tensor_name(index: int, name: str) -> str:
    return f"layer{index:02d}.{name}"


def _initial_tensors(plan, rng):
    """He-normal weights, drawn layer by layer, with zero biases, shifts
    and running means, and unit scales and running variances."""
    tensors = {}
    for i, step in enumerate(plan):
        for name, shape in step.shapes.items():
            if name == "weight":
                # a conv weight is (out, in, k, k), a dense one (in, out)
                fan_in = math.prod(shape[1:]) if step.kind == "conv" else shape[0]
                tensor = rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)
            else:
                tensor = np.full(shape, 1.0 if name in ("gamma", "running_var") else 0.0)
            tensors[_tensor_name(i, name)] = tensor
    return tensors


class Network:
    """Layer stack built from its layer plan, so shapes are checked once."""

    def __init__(self, config: NetworkConfig, seed: int = 0, tensors=None):
        """`tensors` maps each name of `named_params()` and `named_state()`
        to an array of the plan's shape, which the network keeps; without
        it the initial values are drawn from `seed`, which the checkpoint keeps."""
        plan = layer_plan(config)
        if tensors is None:
            tensors = _initial_tensors(plan, np.random.default_rng(seed))
        self.config = config
        self.seed = seed
        self.layers = [
            _LAYER_KINDS[step.kind][0](**step.settings, **{
                name: tensors[_tensor_name(i, name)] for name in step.shapes})
            for i, step in enumerate(plan)]

    def forward(self, x, train=False):
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad):
        """Leave every layer's parameter gradients for the loss gradient
        `grad`; the first layer forms no gradient for the network input."""
        for i, layer in reversed(list(enumerate(self.layers))):
            grad = layer.backward(grad, input_grad=i > 0)

    def _named(self, part):
        return {_tensor_name(i, name): value for i, layer in enumerate(self.layers)
                for name, value in getattr(layer, part)().items()}

    def named_params(self):
        return self._named("params")

    def named_grads(self):
        return self._named("grads")

    def named_state(self):
        """Non-trained tensors that still belong in a checkpoint."""
        return self._named("state")

    # perfbench, which wraps it by name, is its last user; ROADMAP item 1b deletes it
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
    """Versioned binary container: seed (u64), descriptor, named float64 tensors."""
    tensors = dict(network.named_params())
    tensors.update(network.named_state())
    descriptor = network.config.to_json().encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, network.seed))
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
    tensor must appear exactly once, and nothing may follow the last.

    The descriptor's layer plan fixes each tensor's shape, so the bytes
    left in the file are checked to hold them all before any is read,
    and each is read once, into the array the network then keeps."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(8) != CHECKPOINT_MAGIC:
            raise CheckpointError("not a model checkpoint (bad magic)")
        pos = 8

        def take(count: int) -> bytes:
            nonlocal pos
            if pos + count > size:
                raise CheckpointError(f"checkpoint truncated: needs byte {pos + count}, "
                                      f"file has {size}")
            pos += count
            return fh.read(count)

        def u32() -> int:
            return struct.unpack("<I", take(4))[0]

        version = u32()
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        seed = struct.unpack("<Q", take(8))[0]
        descriptor = take(u32())
        try:
            config = NetworkConfig.from_json(descriptor.decode())
            shapes = {_tensor_name(i, name): shape for i, step in enumerate(layer_plan(config))
                      for name, shape in step.shapes.items()}
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise CheckpointError(f"bad network descriptor: {exc}") from exc
        count = u32()
        if count < len(shapes):
            raise CheckpointError(f"{len(shapes) - count} tensors missing")
        # each entry: name length, name, rank, dimensions, float64 data
        needed = sum(8 + len(name) + 8 * len(shape) + 8 * math.prod(shape)
                     for name, shape in shapes.items())
        if needed > size - pos:
            raise CheckpointError(f"checkpoint truncated: the descriptor's tensors need "
                                  f"{needed} bytes, {size - pos} remain")
        tensors = {}
        for _ in range(count):
            try:
                name = take(u32()).decode()
            except UnicodeDecodeError:
                raise CheckpointError("tensor name is not UTF-8") from None
            if name not in shapes:
                raise CheckpointError(f"unknown tensor {name!r}")
            if name in tensors:
                raise CheckpointError(f"tensor {name!r} appears twice")
            rank = u32()
            shape = struct.unpack(f"<{rank}Q", take(8 * rank))
            if shape != shapes[name]:
                raise CheckpointError(f"tensor {name!r} has shape {shape}, "
                                      f"expected {shapes[name]}")
            # entries as the plan names and shapes them fit the budget above
            tensor = np.empty(shape, dtype="<f8")
            pos += fh.readinto(tensor)
            if not np.all(np.isfinite(tensor)):
                raise CheckpointError(f"tensor {name!r} holds a non-finite value")
            if name.endswith(".running_var") and np.any(tensor < 0):
                raise CheckpointError(f"tensor {name!r} holds a negative variance")
            tensors[name] = tensor
        # `count` distinct planned names, no fewer than planned: none is missing
        if pos != size:
            raise CheckpointError(f"{size - pos} bytes after the last tensor")
    return Network(config, seed, tensors)
