"""Every metric the benchmark prints is declared in BENCHMARK.json, and
every declared per-layer metric has a source."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import declared  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads(declared.BENCHMARK_JSON.read_text())


def _declared(section):
    return [(m["name"], m["unit"]) for m in DECLARED[section]]


def test_declared_workloads_and_command():
    assert sorted(run.inputs.SPECS) == sorted(w["name"] for w in DECLARED["workloads"])
    assert DECLARED["command"] == ["python3", "perfbench/run.py"]


def test_printed_metric_names():
    result = {"items_per_s": 1.5, "setup_s": 0.7, "peak_rss_mb": 120.0}
    printed = run.end_to_end_metrics(result)
    assert [(k, v["unit"]) for k, v in printed.items()] == _declared("end_to_end")

    layers = spans.per_layer_metrics({}, {}, 1, {})
    assert [(k, v["unit"]) for k, v in layers.items()] == _declared("per_layer")


# Small calls that reach every wrapped function; run in a child process
# because installing the tracer rebinds names in the mammocad modules.
_PROBE = textwrap.dedent("""
    import json, sys, tempfile, warnings
    from pathlib import Path
    import numpy as np
    import spans
    tracer = spans.Tracer()
    spans.install(tracer)
    from mammocad import config, core, dataset, pipeline
    from mammocad.cnn import network, train
    from phantom import encode_pgm, make_phantom

    cfg = config.apply_assignments(config.PipelineConfig(), [("pipeline.sigma", "25")])
    image = make_phantom(48, 0).clean
    pipeline.segment_image(image, cfg)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lines = []
        for i in range(6):
            film = make_phantom(72, i, with_lesion=i % 2 == 1)
            (tmp / f"mdb{i:03d}.pgm").write_bytes(encode_pgm(film.clean))
            lines.append(f"mdb{i:03d} G " + ("CIRC B 30 30 5" if i % 2 else "NORM"))
        (tmp / "info.txt").write_text("\\n".join(lines) + "\\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            items = dataset.load_dataset(tmp, tmp / "info.txt")
        desk = config.apply_assignments(config.PipelineConfig(), [
            ("network.desk", "true"), ("train.augment", "true"), ("train.epochs", "1")])
        net, _ = train([(it.image, it.label) for it in items],
                       desk.network_config(), desk.train_config())
        network.save_checkpoint(net, tmp / "model.bin")
    print(json.dumps(sorted(tracer.totals)))
""")


def test_every_per_layer_metric_has_a_source():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(ROOT / "src")])
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    recorded = set(json.loads(done.stdout.splitlines()[-1]))

    internal = {f"denoise.{stage}.{part}" for stage in ("hard", "wiener")
                for part in ("calls", "blocks")}
    derived = {f"denoise.{stage}.group_mean" for stage in ("hard", "wiener")}
    names = set(declared.units("per_layer"))
    assert recorded - internal <= names
    assert names - set(spans.QUALITY_METRICS) - derived == recorded - internal
