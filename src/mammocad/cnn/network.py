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


_PROFILES = {c.descriptor(): c for c in (NetworkConfig(), NetworkConfig(desk=True))}

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
        `grad`; the first layer, a convolution in both profiles, forms no
        gradient for the network input."""
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        self.layers[0].backward(grad, input_grad=False)

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
        """Probabilities and labels for a batch of 2-D float64 images (a `Film`
        reads as one); no layer keeps a cache."""
        x = np.stack(images)[:, None]
        logits = self.forward(x, train=False)
        return softmax_predict(logits)


def _entries(config: NetworkConfig) -> list[tuple[str, bytes, tuple]]:
    """Each tensor of the profile as (name, header, shape), in the
    sorted-name order a checkpoint keeps them. The header is what the
    file holds before the tensor's values: the u32 name length, the
    name, the u32 rank and the u64 dimensions."""
    shapes = {_tensor_name(i, name): shape for i, step in enumerate(layer_plan(config))
              for name, shape in step.shapes.items()}
    return [(name, struct.pack(f"<I{len(name)}sI{len(shape)}Q", len(name), name.encode(),
                               len(shape), *shape), shape)
            for name, shape in sorted(shapes.items())]


def save_checkpoint(network: Network, path) -> None:
    """Versioned binary container: seed (u64), descriptor, named float64 tensors."""
    tensors = network.named_params() | network.named_state()
    descriptor = network.config.descriptor()
    entries = _entries(network.config)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<IQI", CHECKPOINT_VERSION, network.seed,
                                                len(descriptor)))
        fh.write(descriptor + struct.pack("<I", len(entries)))
        for name, header, _ in entries:
            fh.write(header)
            fh.write(np.ascontiguousarray(tensors[name], dtype="<f8"))   # no copy


def load_checkpoint(path) -> Network:
    """Rebuild a network from a checkpoint.

    The descriptor must be one profile's, byte for byte. That profile
    fixes every other byte of the file but the seed and the tensor
    values: the file's size, the tensor count and each entry's header,
    in sorted-name order. So the size is checked before any tensor is
    read, and each tensor is read once, into the array the network then
    keeps."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(24)          # magic, version, seed, descriptor length
        if head[:8] != CHECKPOINT_MAGIC:
            raise CheckpointError("not a model checkpoint (bad magic)")
        if len(head) < 24:
            raise CheckpointError(f"checkpoint truncated: needs byte 24, file has {size}")
        version, seed, length = struct.unpack("<IQI", head[8:])
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        # however long `length` claims, the read stops at the file's end
        config = _PROFILES.get(fh.read(min(length, size)))
        if config is None:
            raise CheckpointError("bad network descriptor: neither the full nor the desk profile's")
        entries = _entries(config)
        needed = fh.tell() + 4 + sum(len(header) + 8 * math.prod(shape)
                                     for _, header, shape in entries)
        if size < needed:
            raise CheckpointError(f"checkpoint truncated: {needed - size} of the profile's "
                                  f"{needed} bytes missing")
        if size > needed:
            raise CheckpointError(f"{size - needed} bytes after the last tensor")
        count = int.from_bytes(fh.read(4), "little")
        if count != len(entries):
            raise CheckpointError(f"{count} tensors, the profile has {len(entries)}")
        tensors = {}
        for name, header, shape in entries:
            if fh.read(len(header)) != header:
                raise CheckpointError(f"the header of {name!r} is not the profile's")
            tensor = np.empty(shape, dtype="<f8")
            if fh.readinto(tensor) != tensor.nbytes:   # the file shrank since it was sized
                raise CheckpointError("checkpoint truncated while it was read")
            if not np.all(np.isfinite(tensor)):
                raise CheckpointError(f"tensor {name!r} holds a non-finite value")
            if name.endswith(".running_var") and np.any(tensor < 0):
                raise CheckpointError(f"tensor {name!r} holds a negative variance")
            tensors[name] = tensor
    return Network(config, seed, tensors)
