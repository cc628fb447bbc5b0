import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_record_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_every_bench_record_names_every_declared_workload_and_metric(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorded = json.loads(path.read_text())
    assert path.name == f"BENCH_{recorded['number']}.json"
    assert set(recorded["workloads"]) == {w["name"] for w in declared["workloads"]}
    for name, runs in recorded["workloads"].items():
        untraced = [run for run in runs if run["trace"] == 0]
        traced = [run for run in runs if run["trace"] == 1]
        assert len(untraced) >= 3 and traced, name
        for runs_of_kind, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
            named = {metric for run in runs_of_kind for metric in run["metrics"]}
            assert named >= {m["name"] for m in declared[kind]}, (name, kind)
    assert set(recorded["counts"]) == {"src_lines", "tests_lines", "config_keys",
                                       "cli_options"}
    assert {"cpu_model", "cores", "python", "numpy", "scipy", "simd_dispatch",
            "thread_pins"} <= set(recorded["machine"])


def _record_bench():
    spec = importlib.util.spec_from_file_location("record_bench",
                                                  ROOT / "tools" / "record_bench.py")
    record_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record_bench)
    return record_bench


def test_a_run_that_fails_is_recorded_not_dropped(tmp_path):
    record_run = _record_bench().record_run
    failed = record_run([sys.executable, "-c", "import sys; print('boom', file=sys.stderr); "
                         "sys.exit(1)"], tmp_path)
    assert failed["exit_code"] == 1 and failed["correct"] is False
    assert failed["metrics"] == {} and "boom" in failed["error"]

    result = {"correct": False, "attempted": 3, "failed": 1,
              "metrics": {"items_per_s": {"value": 1.0, "unit": "1/s"}}}
    checked = record_run([sys.executable, "-c", f"print({json.dumps(result)!r})"], tmp_path)
    assert checked["exit_code"] == 0
    assert {key: checked[key] for key in result} == result


def test_counts_only_prints_what_a_record_holds_and_runs_nothing(capsys):
    from mammocad.config import PipelineConfig, format_config

    assert _record_bench().main(["--counts-only"]) == 0
    printed = json.loads(capsys.readouterr().out)
    recorded = json.loads(BENCH_FILES[-1].read_text())
    assert set(printed) == {"counts", "machine"}
    assert set(printed["counts"]) == set(recorded["counts"])
    assert set(printed["machine"]) == set(recorded["machine"])
    assert printed["counts"]["config_keys"] == len(format_config(PipelineConfig()).splitlines())
    assert printed["counts"]["src_lines"] == sum(
        path.read_bytes().count(b"\n") for path in (ROOT / "src" / "mammocad").rglob("*.py"))
