"""Per-layer timing from outside the program.

`install` wraps public functions of the `mammocad` modules and rebinds
each wrapper wherever a module holds the original, so calls made inside
the library are timed too. Times are inclusive: a span covers the calls
it makes. Nothing is installed on untraced runs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from importlib import import_module

import declared

SETUP_METRICS = ("core.read_pgm_s", "dataset.load_s")
QUALITY_METRICS = ("levelset.dice", "denoise.psnr_gain_db")

_LAYER_KINDS = {"Conv2d": "conv", "BatchNorm2d": "bn", "MaxPool2d": "pool",
                "Dense": "dense", "ReLU": "relu"}


class Tracer:
    """Accumulates seconds and counts by metric name while recording."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.recording = True

    def add(self, key: str, amount: float) -> None:
        if self.recording:
            self.totals[key] += amount

    def span(self, key: str, fn, after=None):
        """Wrap fn so each call adds its wall time to `key`; `after`
        sees the result, outside the timed interval."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.add(key, time.perf_counter() - start)
            if after is not None:
                after(result)
            return result
        return timed

    def take(self) -> dict:
        """Return the totals so far and start again from zero."""
        out = dict(self.totals)
        self.totals.clear()
        return out


def _rebind(original, wrapper) -> None:
    """Replace `original` in every loaded mammocad module that holds it."""
    for name, module in list(sys.modules.items()):
        if name == "mammocad" or name.startswith("mammocad."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    denoise = import_module("mammocad.denoise")
    enhance = import_module("mammocad.enhance")
    sfcm = import_module("mammocad.sfcm")
    levelset = import_module("mammocad.levelset")
    core = import_module("mammocad.core")
    dataset = import_module("mammocad.dataset")
    network = import_module("mammocad.cnn.network")
    augment = import_module("mammocad.cnn.augment")
    layers = import_module("mammocad.cnn.layers")
    # load every module that binds a wrapped name, so _rebind reaches it
    import_module("mammocad.pipeline")
    import_module("mammocad.cnn.train")

    def count(key, size=lambda result: 1):
        return lambda result: tracer.add(key, size(result))

    def wrap(fn, key, after=None):
        _rebind(fn, tracer.span(key, fn, after))

    wrap(denoise.hard_stage, "denoise.hard_s")
    wrap(denoise.wiener_stage, "denoise.wiener_s")
    block_match = denoise.block_match

    @functools.wraps(block_match)
    def traced_match(image, ref, profile, stage="hard"):
        start = time.perf_counter()
        group = block_match(image, ref, profile, stage)
        tracer.add(f"denoise.{stage}.match_s", time.perf_counter() - start)
        tracer.add("denoise.match_calls", 1)
        tracer.add(f"denoise.{stage}.calls", 1)
        tracer.add(f"denoise.{stage}.blocks", len(group.coordinates))
        return group

    _rebind(block_match, traced_match)

    wrap(enhance.median_filter, "enhance.median_s")
    wrap(enhance.remove_artifacts, "enhance.artifacts_s")
    wrap(enhance.remove_pectoral, "enhance.pectoral_s",
         count("enhance.pectoral_px", lambda result: int(result[1].sum())))

    wrap(sfcm.sfcm_run, "sfcm.run_s", count("sfcm.iterations", lambda result: result[2]))
    wrap(sfcm.fcm_iterate, "sfcm.fcm_iterate_s")
    wrap(sfcm.spatial_refine, "sfcm.spatial_refine_s")

    wrap(levelset.evolve, "levelset.evolve_s", count("levelset.steps", lambda result: result[1]))
    wrap(levelset.edge_indicator, "levelset.edge_indicator_s")
    wrap(levelset.evolve_step, "levelset.step_s")

    wrap(layers.sgd_step, "cnn.sgd_s", count("cnn.steps"))
    network.Network.set_tensor = tracer.span("cnn.sgd_s", network.Network.set_tensor)
    network.Network.predict = tracer.span("cnn.predict_s", network.Network.predict)
    wrap(network.save_checkpoint, "cnn.checkpoint_s")
    wrap(augment.build_augmented_set, "cnn.augment_s",
         count("cnn.augment.variants", len))

    build = network.Network.__init__

    @functools.wraps(build)
    def traced_init(net, *args, **kwargs):
        build(net, *args, **kwargs)
        ordinals = Counter()
        for layer in net.layers:
            kind = _LAYER_KINDS.get(type(layer).__name__)
            if kind is None:
                continue
            if kind != "relu":
                ordinals[kind] += 1
                kind = f"{kind}{ordinals[kind]}"
            layer.forward = tracer.span(f"cnn.{kind}.fwd_s", layer.forward)
            layer.backward = tracer.span(f"cnn.{kind}.bwd_s", layer.backward)

    network.Network.__init__ = traced_init

    wrap(core.read_pgm, "core.read_pgm_s")
    wrap(core.resize_bilinear, "core.resize_s", count("core.resize_calls"))
    wrap(dataset.load_dataset, "dataset.load_s")


def per_layer_metrics(setup: dict, window: dict, rounds: int, quality: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json as {name: {"value", "unit"}}.

    Times and counts are totals per round of the workload, except the
    set-up ones, which are per set-up; dice, PSNR gain and group means
    are means. Layers the workload never reaches read 0.
    """
    values = {key: amount / rounds for key, amount in window.items()}
    values.update({key: setup.get(key, 0.0) for key in SETUP_METRICS})
    values.update(quality)
    for stage in ("hard", "wiener"):
        calls = window.get(f"denoise.{stage}.calls", 0)
        values[f"denoise.{stage}.group_mean"] = (
            window[f"denoise.{stage}.blocks"] / calls if calls else 0.0)
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in declared.units("per_layer").items()}
