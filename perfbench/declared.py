"""The metric tables, read from BENCHMARK.json.

BENCHMARK.json at the repository root is the one place that names each
metric with its unit and direction; the code here only supplies values.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def units(section: str) -> dict[str, str]:
    """{metric name: unit} for "end_to_end" or "per_layer", in file order."""
    declared = json.loads(BENCHMARK_JSON.read_text())
    return {metric["name"]: metric["unit"] for metric in declared[section]}
