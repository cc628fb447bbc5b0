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


def test_against_runs_abba_pairs_and_records_both_sides(monkeypatch, tmp_path):
    record_bench = _record_bench()
    parent, change = tmp_path / "parent", tmp_path / "change"
    # per side, each run's (items_per_s, setup_s); None is a run that failed
    values = {parent: [(10.0, 1.0), None, (10.0, 1.0), (10.0, 1.0), (10.0, 1.0)],
              change: [(11.0, 0.5), (11.0, 0.5), (9.0, 2.0), (12.0, 0.9), (12.0, 1.0)]}
    calls = []

    def stub(command, root):
        assert command[command.index("--trace") + 1] == "0"
        calls.append((command[command.index("--workload") + 1], root))
        given = values[root][sum(1 for _, side in calls if side == root) - 1]
        if given is None:
            return {"exit_code": 1, "correct": False, "failed": None, "metrics": {},
                    "error": "boom"}
        return {"exit_code": 0, "correct": True, "attempted": 3, "failed": 0,
                "metrics": {"items_per_s": {"value": given[0], "unit": "1/s"},
                            "setup_s": {"value": given[1], "unit": "s"}}}

    monkeypatch.setattr(record_bench, "record_run", stub)
    benchmark = {"workloads": [{"name": "w"}],
                 "end_to_end": [{"name": "items_per_s", "better": "higher"},
                                {"name": "setup_s", "better": "lower"}]}
    compared = record_bench.compare(change, parent, benchmark)

    assert record_bench.PAIRS == 5
    assert [side for _, side in calls] == [parent, change, change, parent, parent, change,
                                           change, parent, parent, change]
    runs = compared["w"]["runs"]
    assert len(runs["parent"]) == len(runs["change"]) == 5
    assert runs["parent"][1]["error"] == "boom" and runs["parent"][1]["metrics"] == {}
    assert [run["metrics"]["items_per_s"]["value"] for run in runs["change"]] == [
        11.0, 11.0, 9.0, 12.0, 12.0]
    # the pair with the failed run is left out of the summary
    summary = compared["w"]["summary"]
    assert summary["items_per_s"]["pairs"] == 4 and summary["items_per_s"]["won"] == 3
    assert summary["items_per_s"]["median_ratio"] == pytest.approx((1.1 + 1.2) / 2)
    # a tie is no win
    assert summary["setup_s"]["pairs"] == 4 and summary["setup_s"]["won"] == 2
    assert summary["setup_s"]["median_ratio"] == pytest.approx((0.9 + 1.0) / 2)
