"""Network assembly, inference and the checkpoint container.

The default architecture follows the early convolutional stack of the
classic large image-classification network, shrunk to one input
channel and two output classes, with a 300-unit feature layer before
the classifier head. The desk profile divides channel counts by 4 and
works on 64x64 inputs so CPU training stays tractable.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .layers import (BatchNorm2d, Conv2d, Dense, Flatten, MaxPool2d, ReLU, softmax_predict,
                     window_positions)

CHECKPOINT_MAGIC = b"MCADNET1"
CHECKPOINT_VERSION = 2
FEATURE_DIM = 300
NUM_CLASSES = 2


class CheckpointError(ValueError):
    """Raised for a malformed, truncated or incomplete checkpoint file."""


def _profile_layers(channel_scale: int):
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
        {"kind": "dense", "out": FEATURE_DIM},
        {"kind": "relu"},
        {"kind": "dense", "out": NUM_CLASSES},
    ]


@dataclass(frozen=True)
class NetworkConfig:
    desk: bool = False              # quarter-width channels, 64x64 input

    @property
    def channel_scale(self) -> int:
        return 4 if self.desk else 1

    @property
    def input_size(self) -> int:
        return 64 if self.desk else 256

    @property
    def layers(self) -> list:
        return _profile_layers(self.channel_scale)

    def descriptor(self) -> bytes:
        """The checkpoint's record of the profile: the sorted-key JSON of
        the five settings the format has always written."""
        return json.dumps({"channel_scale": self.channel_scale, "feature_dim": FEATURE_DIM,
                           "input_size": self.input_size, "layers": self.layers,
                           "num_classes": NUM_CLASSES}, sort_keys=True).encode()


_PROFILES = (NetworkConfig(), NetworkConfig(desk=True))

_LAYER_KINDS = {"conv": Conv2d, "batchnorm": BatchNorm2d, "relu": ReLU, "pool": MaxPool2d,
                "flatten": Flatten, "dense": Dense}


class PlannedLayer(NamedTuple):
    """One layer as the network builds it: its kind, the settings its
    constructor takes and the shape of each tensor it holds, by name."""
    kind: str
    settings: dict
    shapes: dict


def layer_plan(config: NetworkConfig) -> list[PlannedLayer]:
    """Each layer of the profile with its tensor shapes, allocating
    nothing, so a checkpoint's tensors are judged before any is read.
    This is the one walk over `config.layers`."""
    plan = []
    width, size = 1, config.input_size      # channels, or features once flattened
    for spec in config.layers:
        kind = spec["kind"]
        settings = {key: spec[key] for key in ("stride", "padding", "window") if key in spec}
        shapes = {}
        if kind == "conv":
            out, kernel = spec["out"], spec["kernel"]
            shapes = {"weight": (out, width, kernel, kernel), "bias": (out,)}
            width, size = out, window_positions(size, kernel, **settings)
        elif kind == "batchnorm":
            shapes = dict.fromkeys(BatchNorm2d.PARAMS + BatchNorm2d.STATE, (width,))
        elif kind == "pool":
            size = window_positions(size, **settings)
        elif kind == "flatten":
            width, size = width * size * size, 1
        elif kind == "dense":
            shapes = {"weight": (width, spec["out"]), "bias": (spec["out"],)}
            width = spec["out"]
        plan.append(PlannedLayer(kind, settings, shapes))
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
            _LAYER_KINDS[step.kind](**step.settings, **{
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
    descriptor = network.config.descriptor()
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

    The descriptor must be one profile's, byte for byte; that profile's
    layer plan fixes each tensor's shape, so the bytes left in the file
    are checked to hold them all before any is read, and each is read
    once, into the array the network then keeps."""
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
        config = next((c for c in _PROFILES if c.descriptor() == descriptor), None)
        if config is None:
            raise CheckpointError("bad network descriptor: neither the full nor the "
                                  "desk profile's")
        shapes = {_tensor_name(i, name): shape for i, step in enumerate(layer_plan(config))
                  for name, shape in step.shapes.items()}
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
