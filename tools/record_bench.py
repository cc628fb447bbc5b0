"""Record one BENCH_<n>.json: every workload of BENCHMARK.json, run through perfbench.

    python3 tools/record_bench.py --number N [--root DIR]
    python3 tools/record_bench.py --counts-only [--root DIR]

For each workload, runs `perfbench/run.py --seed 1801 --seconds 10` of the
checkout at --root (default: this repository) as a subprocess: 3 untraced
runs, for the end-to-end metrics, then 1 traced run, for the per-layer
ones. Seed and run length are fixed, so that every BENCH_<n>.json can be
compared with every other. Every run is recorded with its exit code,
`correct`, `failed` and metrics; a run that fails or exits non-zero is
kept, with what it printed to stderr. The file also holds the checkout's
commit, its `src/` and `tests/` line counts, config keys and CLI options,
and the machine the runs took place on. It is written to BENCH_<n>.json at
the root of this repository.

--counts-only prints the counts and the machine as JSON and runs nothing;
CI's job summary shows them this way, so both read one definition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

REPO = Path(__file__).resolve().parents[1]
UNTRACED_RUNS = 3
TRACED_RUNS = 1
SEED = 1801
SECONDS = 10.0

# run on the measured checkout's src/, which --root may set apart from this one
CONFIG_KEYS = ("from mammocad.config import PipelineConfig, format_config; "
               "print(len(format_config(PipelineConfig()).splitlines()))")
CLI_OPTIONS = ("import argparse; from mammocad.cli import build_parser; "
               "[sub] = [a for a in build_parser()._actions "
               "if isinstance(a, argparse._SubParsersAction)]; "
               "print(sum(1 for p in sub.choices.values() for a in p._actions "
               "if a.option_strings and not isinstance(a, argparse._HelpAction)))")
THREAD_PINS = ("import json, sys; sys.path.insert(0, 'perfbench'); import run; "
               "print(json.dumps(run.PINNED_THREADS, sort_keys=True))")


def _python(root: Path, code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def _lines(paths) -> int:
    # what `cat ... | wc -l` prints: the newlines of every file
    return sum(path.read_bytes().count(b"\n") for path in paths)


def code_counts(root: Path) -> dict:
    src = root / "src" / "mammocad"
    return {
        "src_lines": _lines(sorted(src.glob("*.py")) + sorted((src / "cnn").glob("*.py"))),
        "tests_lines": _lines(sorted((root / "tests").glob("*.py"))),
        "config_keys": int(_python(root, CONFIG_KEYS)),
        "cli_options": int(_python(root, CLI_OPTIONS)),
    }


def machine(root: Path) -> dict:
    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    models = [line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")]
    return {
        "cpu_model": models[0] if models else platform.processor(),
        "cores": sum(1 for line in cpuinfo if line.startswith("processor")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "simd_baseline": list(__cpu_baseline__),
        "simd_dispatch": [name for name in __cpu_dispatch__ if __cpu_features__[name]],
        "thread_pins": json.loads(_python(root, THREAD_PINS)),
    }


def record_run(command: list, root: Path) -> dict:
    """One run's outcome; a run that fails is recorded as failed, never dropped.

    No timeout here: perfbench ends its own runs within 180 s, and on its
    own deadline reaps its worker and removes its input directory.
    """
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else {}
    except (IndexError, ValueError):
        result = {}
    if not result:
        return {"exit_code": done.returncode, "correct": False, "failed": None, "metrics": {},
                "error": done.stderr.strip()[-2000:]}
    return {"exit_code": 0, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def record(root: Path) -> dict:
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    workloads = {}
    for workload in benchmark["workloads"]:
        name = workload["name"]
        runs = []
        for trace in [0] * UNTRACED_RUNS + [1] * TRACED_RUNS:
            command = [sys.executable, "perfbench/run.py", "--workload", name,
                       "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
            runs.append(dict(trace=trace, **record_run(command, root)))
            print(f"{name} trace {trace}: exit {runs[-1]['exit_code']}, "
                  f"correct {runs[-1]['correct']}", file=sys.stderr)
        workloads[name] = runs
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                            capture_output=True, text=True).stdout.strip()
    return {"commit": commit, "seed": SEED, "seconds": SECONDS,
            "counts": code_counts(root), "machine": machine(root), "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--number", type=int, help="the n of BENCH_<n>.json")
    what.add_argument("--counts-only", action="store_true",
                      help="print the counts and the machine as JSON; run nothing")
    parser.add_argument("--root", type=Path, default=REPO, help="checkout to measure")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.counts_only:
        print(json.dumps({"counts": code_counts(root), "machine": machine(root)},
                         indent=1, sort_keys=True))
        return 0
    path = REPO / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(dict(number=args.number, **record(root)), indent=1,
                               sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0

if __name__ == "__main__":
    sys.exit(main())
