"""One measured process: set up a workload, run whole rounds, check.

Started by run.py in a fresh interpreter with BLAS and OpenMP pinned to
one thread. `--stamp` is run.py's CLOCK_MONOTONIC reading taken just
before it started this process, so set-up time includes interpreter
start and imports. Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--stamp", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


@dataclass
class Rounds:
    """What whole rounds of a workload's units did."""
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    unit_s: list = field(default_factory=list)
    unit_rates: list = field(default_factory=list)     # items finished / s, per unit
    check_s: float = 0.0
    peak_mb: float = 0.0
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    @property
    def items_per_s(self) -> float:
        return statistics.median(self.unit_rates)


def _checked(index: int, unit, output, raised) -> tuple[list[str], dict]:
    """The unit's check, or the problem that kept it from giving output."""
    if raised is not None:
        return [f"unit {index} raised {raised!r}"], {}
    try:
        return unit.check(output)
    except Exception as exc:
        traceback.print_exc()
        return [f"unit {index} check raised {exc!r}"], {}


def run_rounds(units, seconds: float, tracer=None) -> Rounds:
    """Run whole rounds of `units` until they have taken `seconds`.

    Each unit's check runs after its timing stops, with tracing paused.
    A unit that raises or fails its check counts all its items as
    failed and adds a problem, so `correct` turns false.
    """
    out = Rounds()
    busy = 0.0
    while out.rounds == 0 or busy < seconds:
        for index, unit in enumerate(units):
            start = time.monotonic()
            try:
                output, raised = unit.run(), None
            except Exception as exc:
                output, raised = None, exc
                traceback.print_exc()
            out.unit_s.append(time.monotonic() - start)
            busy += out.unit_s[-1]
            out.peak_mb = _peak_rss_mb()
            out.attempted += unit.items
            if tracer is not None:
                tracer.recording = False
            checked = time.monotonic()
            found, figures = _checked(index, unit, output, raised)
            out.check_s += time.monotonic() - checked
            if tracer is not None:
                tracer.recording = True
            if found:
                out.failed += unit.items
                out.problems += found
            out.unit_rates.append((0 if found else unit.items) / out.unit_s[-1])
            for key, value in figures.items():
                out.quality.setdefault(key, []).append(value)
        out.rounds += 1
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        spans.install(tracer)
    units = workloads.SETUPS[args.workload](args.inputs, args.seed)
    setup_s = time.monotonic() - args.stamp
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_totals = tracer.take() if tracer is not None else {}

    done = run_rounds(units, args.seconds, tracer)
    for problem in done.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: units took "
          + " ".join(f"{seconds:.3f}" for seconds in done.unit_s)
          + f" s, checks {done.check_s:.3f} s", file=sys.stderr)
    result = {
        "correct": not done.problems,
        "attempted": done.attempted,
        "failed": done.failed,
        "setup_s": setup_s,
        "items_per_s": done.items_per_s,
        "peak_rss_mb": done.peak_mb,
    }
    if tracer is not None:
        result["per_layer"] = spans.per_layer_metrics(
            setup_totals, tracer.take(), done.rounds,
            {key: sum(values) / len(values) for key, values in done.quality.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
