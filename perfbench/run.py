"""Benchmark for mammocad on generated phantom films.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The films are drawn from --seed and
written under perfbench/.work/, then a fresh process (worker.py) sets
the workload up and runs whole rounds of it until --seconds of
measured work have passed, checking every output. With --trace 0 the
last stdout line carries the end-to-end metrics; with --trace 1, the
per-layer metrics. The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import declared
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# set-ups per untraced run, half before and half after the measured
# process, so a slow spell of the machine meets few of them; the median
# is reported
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0                # a run must end within 180 s
PINNED_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class RunError(RuntimeError):
    """A measured process failed or ran out of time; no result is printed."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(inputs.SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _worker(args, directory: Path, deadline: float, setup_only: bool = False) -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--inputs", str(directory)]
    if setup_only:
        command.append("--setup-only")
    stamp = time.monotonic()
    try:
        done = subprocess.run(command + ["--stamp", repr(stamp)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - stamp))
    except subprocess.TimeoutExpired:
        raise RunError(f"{args.workload} did not finish within {TIME_LIMIT_S:.0f} s") from None
    if done.returncode != 0:
        raise RunError(f"{args.workload} worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _setup_s(args, directory: Path, deadline: float) -> float:
    return _worker(args, directory, deadline, setup_only=True)["setup_s"]


def _measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    directory = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs.write_inputs(args.workload, args.seed, directory)
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [_setup_s(args, directory, deadline) for _ in range(extra // 2)]
        result = _worker(args, directory, deadline)
        setups += [_setup_s(args, directory, deadline) for _ in range(extra - extra // 2)]
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    out = {key: result[key] for key in ("correct", "attempted", "failed")}
    if args.trace:
        out["metrics"] = result["per_layer"]
        # the overhead of tracing: compare with an untraced run's items_per_s
        print(f"traced items_per_s {result['items_per_s']:.6g}", file=sys.stderr)
    else:
        result["setup_s"] = statistics.median(setups + [result["setup_s"]])
        out["metrics"] = end_to_end_metrics(result)
    return out


def end_to_end_metrics(result: dict) -> dict:
    return {name: {"value": result[name], "unit": unit}
            for name, unit in declared.units("end_to_end").items()}


def main(argv=None) -> int:
    args = _parse(argv)
    # on SIGTERM unwind normally: subprocess.run kills and reaps the
    # worker, and the input directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "mammocad" / "__init__.py").is_file():
        print(f"error: no mammocad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = _measure(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
