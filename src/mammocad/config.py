"""Line-oriented pipeline configuration.

The on-disk format is one `section.key = value` assignment per line,
with '#' comments; every key has a default, so an empty file is valid.
Values are typed from the dataclass fields they override. Values that
follow from others (the block-match thresholds from the noise level,
the desk input size) are worked out when the assignments are applied,
so a config holds exactly the values a run uses.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .denoise import Bm3dProfile, default_profile
from .enhance import EnhanceConfig
from .levelset import LevelSetConfig
from .sfcm import SfcmConfig
from .cnn.network import NetworkConfig, layer_plan
from .cnn.train import TrainConfig


@dataclass(frozen=True)
class PipelineSection:
    sigma: float = 25.0             # assumed noise std, 8-bit scale

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"pipeline.sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class NetworkSection:
    input_size: int = 256
    desk: bool = False              # quarter-width channels, 64x64 input


@dataclass(frozen=True)
class PipelineConfig:
    pipeline: PipelineSection = PipelineSection()
    denoise: Bm3dProfile = Bm3dProfile()
    enhance: EnhanceConfig = EnhanceConfig()
    sfcm: SfcmConfig = SfcmConfig()
    levelset: LevelSetConfig = LevelSetConfig()
    network: NetworkSection = NetworkSection()
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        # refuse a network that `train` could not build before any film is read
        try:
            layer_plan(self.network_config())
        except ValueError as exc:
            raise ValueError(f"network.input_size = {self.network.input_size}: {exc}") from None

    def network_config(self) -> NetworkConfig:
        profile = NetworkConfig.desk() if self.network.desk else NetworkConfig()
        return dataclasses.replace(profile, input_size=self.network.input_size)

    # perfbench is the remaining caller; ROADMAP item 1b deletes it
    def sfcm_config(self) -> SfcmConfig:
        return self.sfcm

    # perfbench is the remaining caller; ROADMAP item 1b deletes it
    def train_config(self) -> TrainConfig:
        return self.train


_SECTIONS = ("pipeline", "denoise", "enhance", "sfcm", "levelset", "network", "train")


def _coerce(current, text: str):
    if isinstance(current, bool):
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    value = type(current)(text)     # every other field is an int or a float
    # compare rather than call math.isfinite, which overflows on a huge int
    if value in (math.inf, -math.inf) or value != value:
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def apply_assignments(config: PipelineConfig, assignments) -> PipelineConfig:
    """Apply `section.key = value` pairs on top of a config.

    A derived value follows its source when the source is assigned here
    and the value itself is not: `pipeline.sigma` picks the denoise
    profile unless a `denoise.*` key is assigned, and `network.desk`
    picks the desk input size unless `network.input_size` is assigned.
    """
    sections = {name: getattr(config, name) for name in _SECTIONS}
    updates = {name: {} for name in _SECTIONS}
    for dotted, text in assignments:
        if "." not in dotted:
            raise ValueError(f"expected section.key, got {dotted!r}")
        section_name, key = dotted.split(".", 1)
        if section_name not in sections:
            raise ValueError(f"unknown config section {section_name!r}")
        section = sections[section_name]
        if key not in {f.name for f in dataclasses.fields(section)}:
            raise ValueError(f"unknown config key {dotted!r}")
        try:
            updates[section_name][key] = _coerce(getattr(section, key), text)
        except ValueError as exc:
            raise ValueError(f"{dotted}: {exc}") from None
    # one replace per section, so checks across fields see the final values
    for name, values in updates.items():
        if values:
            sections[name] = dataclasses.replace(sections[name], **values)
    assigned = {f"{name}.{key}" for name, values in updates.items() for key in values}

    pipeline, network = sections["pipeline"], sections["network"]
    if "pipeline.sigma" in assigned and not any(
            key.startswith("denoise.") for key in assigned):
        sections["denoise"] = default_profile(pipeline.sigma)
    if "network.desk" in assigned and "network.input_size" not in assigned:
        size = (NetworkConfig.desk() if network.desk else NetworkConfig()).input_size
        sections["network"] = dataclasses.replace(network, input_size=size)
    return PipelineConfig(**sections)


def parse_assignments(text: str) -> list[tuple[str, str]]:
    """The `(section.key, value)` pairs of a config file, in file order."""
    assignments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        dotted, value = (part.strip() for part in line.split("=", 1))
        assignments.append((dotted, value))
    return assignments


def format_config(config: PipelineConfig) -> str:
    """Render every value in the on-disk format."""
    lines = []
    for name in _SECTIONS:
        section = getattr(config, name)
        for field in dataclasses.fields(section):
            lines.append(f"{name}.{field.name} = {getattr(section, field.name)}")
    return "\n".join(lines) + "\n"
