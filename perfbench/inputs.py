"""The films each workload runs on, drawn from the workload seed.

Only this module and `phantom` decide what the inputs are. run.py
writes them to disk before any measured process starts; the measured
process regenerates the truth masks after timing, to check its outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from phantom import Phantom, add_noise, encode_pgm, make_phantom


@dataclass(frozen=True)
class Film:
    ident: str                      # MIAS-style id, also the file stem
    size: int
    sigma: float                    # noise std, 8-bit scale
    lesion: bool
    phantom_seed: tuple[int, ...]
    noise_seed: tuple[int, ...]

    def truth(self) -> Phantom:
        return make_phantom(self.size, self.phantom_seed, self.lesion)

    def noisy(self, phantom: Phantom) -> np.ndarray:
        return add_noise(phantom.clean, self.sigma, self.noise_seed)


@dataclass(frozen=True)
class InputSpec:
    size: int
    sigma: float
    count: int
    labelled: bool                  # half normal, half abnormal, with info.txt


# Film counts: the segmentation workloads cycle over a few distinct films;
# the training workloads need 80 films for two full SGD steps of 32 after
# the 80/20 split, and 16 films for six desk steps of 32 augmented variants.
SPECS = {
    "segment-256": InputSpec(size=256, sigma=25.0, count=3, labelled=False),
    "sfcm-levelset-1024": InputSpec(size=1024, sigma=5.0, count=3, labelled=False),
    "train-full": InputSpec(size=1024, sigma=5.0, count=80, labelled=True),
    "train-desk-augment": InputSpec(size=1024, sigma=5.0, count=16, labelled=True),
}

INFO_FILE = "info.txt"


def films(workload: str, seed: int) -> list[Film]:
    spec = SPECS[workload]
    key = sorted(SPECS).index(workload)
    out = []
    for i in range(spec.count):
        lesion = (i % 2 == 1) if spec.labelled else True
        out.append(Film(ident=f"mdb{i + 1:03d}", size=spec.size, sigma=spec.sigma,
                        lesion=lesion, phantom_seed=(seed, key, i),
                        noise_seed=(seed, key, i, 1)))
    return out


def info_line(film: Film, phantom: Phantom) -> str:
    """MIAS annotation record; the lesion centre's y counts from the bottom."""
    if phantom.lesion_circle is None:
        return f"{film.ident} G NORM"
    row, col, radius = phantom.lesion_circle
    return f"{film.ident} G CIRC B {col} {film.size - row} {radius}"


def write_inputs(workload: str, seed: int, directory: Path) -> None:
    """Write the workload's films as PGM, plus info.txt for training sets."""
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for film in films(workload, seed):
        phantom = film.truth()
        (directory / f"{film.ident}.pgm").write_bytes(encode_pgm(film.noisy(phantom)))
        lines.append(info_line(film, phantom))
    if SPECS[workload].labelled:
        (directory / INFO_FILE).write_text("\n".join(lines) + "\n")
