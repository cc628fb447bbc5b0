"""Line-oriented pipeline configuration.

The on-disk format is one `section.key = value` assignment per line,
with '#' comments; every key has a default, so an empty file is valid.
Values are typed from the dataclass fields they override. The noise
level `pipeline.sigma` alone sets the denoiser, so the config holds no
denoiser section. The network profile fixes its own input size (256,
or 64 with `network.desk`), so the config holds no size.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .enhance import EnhanceConfig
from .levelset import LevelSetConfig
from .sfcm import SfcmConfig
from .cnn.network import NetworkConfig
from .cnn.train import TrainConfig


@dataclass(frozen=True)
class PipelineSection:
    sigma: float = 25.0             # assumed noise std, 8-bit scale

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"pipeline.sigma must be positive and finite, got {self.sigma}")


@dataclass(frozen=True)
class PipelineConfig:
    pipeline: PipelineSection = PipelineSection()
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


_SECTIONS = tuple(field.name for field in dataclasses.fields(PipelineConfig))


_TRUE, _FALSE = ("true", "1", "yes", "on"), ("false", "0", "no", "off")


def _coerce(dotted: str, current, text: str):
    if isinstance(current, bool):
        if text.lower() in _TRUE + _FALSE:
            return text.lower() in _TRUE
        raise ValueError(f"{dotted} must be true or false ({', '.join(_TRUE)}; "
                         f"{', '.join(_FALSE)}), got {text!r}")
    # every other field is an int or a float; each section refuses a
    # non-finite float itself
    try:
        return type(current)(text)
    except ValueError:
        kind = "an integer" if isinstance(current, int) else "a number"
        raise ValueError(f"{dotted} must be {kind}, got {text!r}") from None


def apply_assignments(config: PipelineConfig, assignments) -> PipelineConfig:
    """Apply `section.key = value` pairs on top of a config."""
    sections = {name: getattr(config, name) for name in _SECTIONS}
    updates = {name: {} for name in _SECTIONS}
    for dotted, text in assignments:
        if "." not in dotted:
            raise ValueError(f"expected section.key, got {dotted!r}")
        section_name, key = dotted.split(".", 1)
        section = sections.get(section_name)
        if section is None or key not in {f.name for f in dataclasses.fields(section)}:
            raise ValueError(f"unknown config key {dotted!r}")
        updates[section_name][key] = _coerce(dotted, getattr(section, key), text)
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
