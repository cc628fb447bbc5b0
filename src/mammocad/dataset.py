"""MIAS ingestion: annotation parsing, labels, ground-truth circles.

The annotation file carries whitespace-separated records: id, tissue
code, abnormality code, then optionally severity and a lesion circle
(x, y, radius) whose y measures from the bottom-left corner. Rows are
converted to top-left indexing at parse time so every downstream mask
uses image coordinates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Film, read_pgm_file

TISSUE_CODES = {"F", "G", "D"}
ABNORMALITY_CODES = {"CALC", "CIRC", "SPIC", "MISC", "ARCH", "ASYM", "NORM"}
SEVERITY_CODES = {"B", "M"}

EXPECTED_TOTAL = 322
EXPECTED_ABNORMAL = 119


class InfoParseError(ValueError):
    """Raised for malformed annotation lines; carries the line number."""


@dataclass(frozen=True)
class MiasRecord:
    id: str
    tissue: str
    abnormality: str
    severity: str | None = None
    center: tuple[int, int] | None = None   # (x, y), bottom-left origin
    radius: int | None = None

    @property
    def abnormal(self) -> bool:
        return self.abnormality != "NORM"


@dataclass(frozen=True)
class LabeledImage:
    """One decoded film with its label and records; the film keeps its
    8-bit raster (one byte per pixel) and reads as a [0, 1] image."""
    image: Film
    label: int                      # 1 = abnormal
    records: tuple[MiasRecord, ...]


def parse_info(text: str) -> list[MiasRecord]:
    """Parse annotation text; multi-lesion images yield one record each."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) not in (3, 4, 7):
            raise InfoParseError(f"line {lineno}: expected 3, 4 or 7 fields, got {len(tokens)}")
        ident, tissue, abnormality = tokens[:3]
        if tissue not in TISSUE_CODES:
            raise InfoParseError(f"line {lineno}: unknown tissue code {tissue!r}")
        if abnormality not in ABNORMALITY_CODES:
            raise InfoParseError(f"line {lineno}: unknown abnormality code {abnormality!r}")
        severity = None
        center = None
        radius = None
        if len(tokens) >= 4:
            if abnormality == "NORM":
                raise InfoParseError(f"line {lineno}: normal record carries extra fields")
            severity = tokens[3]
            if severity not in SEVERITY_CODES:
                raise InfoParseError(f"line {lineno}: unknown severity code {severity!r}")
        if len(tokens) == 7:
            try:
                x, y, radius = (int(t) for t in tokens[4:7])
            except ValueError:
                raise InfoParseError(f"line {lineno}: non-integer lesion geometry") from None
            if radius < 1:
                raise InfoParseError(f"line {lineno}: lesion radius {radius} is below 1")
            center = (x, y)
        records.append(MiasRecord(id=ident, tissue=tissue, abnormality=abnormality,
                                  severity=severity, center=center, radius=radius))
    return records


def ground_truth_mask(record: MiasRecord, dims: tuple[int, int]) -> np.ndarray:
    """Filled lesion circle in image coordinates (row = height - y)."""
    if record.center is None or record.radius is None:
        raise ValueError(f"record {record.id} has no lesion geometry")
    h, w = dims
    x, y = record.center
    row = h - y
    rr, cc = np.mgrid[0:h, 0:w]
    mask = (rr - row) ** 2 + (cc - x) ** 2 <= record.radius ** 2
    if not mask.any():
        raise ValueError(f"lesion circle of record {record.id!r} at (x, y) = {record.center}, "
                         f"radius {record.radius}, covers no pixel of the film of {h} rows "
                         f"and {w} columns")
    return mask


def combined_ground_truth(records, dims: tuple[int, int]) -> np.ndarray:
    """Union of the lesion circles of a (possibly multi-lesion) image."""
    mask = np.zeros(dims, dtype=bool)
    for record in records:
        if record.center is not None:
            mask |= ground_truth_mask(record, dims)
    return mask


def group_records(records) -> list[tuple[MiasRecord, ...]]:
    """The records of each image, one tuple per id in order of first
    appearance; warns when the counts differ from the full archive."""
    by_id: dict[str, list[MiasRecord]] = {}
    for record in records:
        by_id.setdefault(record.id, []).append(record)
    groups = [tuple(recs) for recs in by_id.values()]
    abnormal = sum(image_label(recs) for recs in groups)
    if len(groups) != EXPECTED_TOTAL or abnormal != EXPECTED_ABNORMAL:
        warnings.warn(
            f"dataset has {len(groups)} images ({abnormal} abnormal); the full "
            f"archive carries {EXPECTED_TOTAL} ({EXPECTED_ABNORMAL} abnormal)",
            stacklevel=3)      # the caller of load_dataset or of the CLI command
    return groups


def image_label(records) -> int:
    """1 when any record of the image is abnormal."""
    return int(any(r.abnormal for r in records))


def load_item(image_dir, records) -> LabeledImage:
    """Decode the film of one image's records from `<image_dir>/<id>.pgm`."""
    ident = records[0].id
    path = Path(image_dir) / f"{ident}.pgm"
    try:
        image = read_pgm_file(path)
    except OSError as exc:
        raise OSError(f"missing image file for record {ident!r}: {exc}") from exc
    return LabeledImage(image=image, label=image_label(records), records=tuple(records))


def load_dataset(image_dir, info_path) -> list[LabeledImage]:
    """Pair every annotated image with its records; one item per image."""
    groups = group_records(parse_info(Path(info_path).read_text()))
    return [load_item(image_dir, recs) for recs in groups]
