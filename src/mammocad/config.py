"""Line-oriented pipeline configuration.

The on-disk format is one `section.key = value` assignment per line,
with '#' comments; every key has a default, so an empty file is valid.
Values are typed from the dataclass fields they override. The
block-match thresholds follow the noise level; they are worked out when
the assignments are applied, so a config holds exactly the values a run
uses. The network profile fixes its own input size (256, or 64 with
`network.desk`), so the config holds no size.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .denoise import Bm3dProfile, default_profile
from .enhance import EnhanceConfig
from .levelset import LevelSetConfig
from .sfcm import SfcmConfig
from .cnn.network import NetworkConfig
from .cnn.train import TrainConfig


@dataclass(frozen=True)
class PipelineSection:
    sigma: float = 25.0             # assumed noise std, 8-bit scale

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"pipeline.sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class PipelineConfig:
    pipeline: PipelineSection = PipelineSection()
    denoise: Bm3dProfile = Bm3dProfile()
    enhance: EnhanceConfig = EnhanceConfig()
    sfcm: SfcmConfig = SfcmConfig()
    levelset: LevelSetConfig = LevelSetConfig()
    network: NetworkConfig = NetworkConfig()
    train: TrainConfig = TrainConfig()

    # perfbench is the remaining caller; ROADMAP item 1b deletes it
    def network_config(self) -> NetworkConfig:
        return self.network

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

    When `pipeline.sigma` is assigned here, the denoise profile starts
    from that sigma's thresholds, and any `denoise.*` key assigned here
    replaces its own value.
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
    if "sigma" in updates["pipeline"]:
        sections["denoise"] = default_profile(updates["pipeline"]["sigma"])
    # one replace per section, so checks across fields see the final values
    for name, values in updates.items():
        if values:
            sections[name] = dataclasses.replace(sections[name], **values)
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
