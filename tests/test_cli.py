import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mammocad
from mammocad.cli import main
from mammocad.core import read_pgm, write_pgm


@pytest.fixture()
def phantom_pgm(tmp_path):
    """Small mammogram-like phantom: breast, bright lesion, dark band."""
    rng = np.random.default_rng(0)
    img = np.zeros((96, 96))
    img[:, :72] = 0.35 + 0.03 * rng.random((96, 72))
    rr, cc = np.mgrid[0:96, 0:96]
    img[(rr - 48) ** 2 + (cc - 36) ** 2 <= 12 ** 2] = 0.85
    path = tmp_path / "mdb901.pgm"
    path.write_bytes(write_pgm(np.clip(img, 0, 1)))
    return path


def tiny_training_dir(tmp_path, n_per_class=5, size=64):
    rng = np.random.default_rng(1)
    data = tmp_path / "data"
    data.mkdir()
    lines = []
    idx = 1
    for label_code in ("NORM", "CIRC"):
        for _ in range(n_per_class):
            ident = f"mdb{idx:03d}"
            idx += 1
            img = 0.2 + 0.05 * rng.random((size, size))
            if label_code == "CIRC":
                img[20:44, 20:44] += 0.5
                lines.append(f"{ident} G CIRC B 32 32 12")
            else:
                lines.append(f"{ident} D NORM")
            (data / f"{ident}.pgm").write_bytes(write_pgm(np.clip(img, 0, 1)))
    info = tmp_path / "info.txt"
    info.write_text("\n".join(lines) + "\n")
    return data, info


def test_usage_error_exit_code(capsys):
    for argv in (["no-such-command"], ["segment"], []):   # [segment]: missing arguments
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: mammocad") and "error:" in err


def test_the_config_keys_and_options_are_pinned():
    # a new knob shows up here as a test change
    from mammocad.cli import build_parser
    from mammocad.config import PipelineConfig, format_config

    keys = [line.split(" = ")[0] for line in format_config(PipelineConfig()).splitlines()]
    assert keys == [
        "pipeline.sigma", "enhance.median_window", "enhance.r1", "enhance.r2",
        "enhance.pectoral_tolerance", "enhance.pectoral_area_cap", "sfcm.clusters",
        "sfcm.fuzziness", "sfcm.p", "sfcm.q", "sfcm.window_radius", "sfcm.tol", "sfcm.max_iter",
        "levelset.epsilon", "levelset.b0", "levelset.tau", "levelset.lmda", "levelset.nu",
        "levelset.iterations", "levelset.smoothing_sigma", "levelset.early_stop_frac",
        "levelset.early_stop_patience", "network.desk", "train.learning_rate",
        "train.epochs", "train.batch_size", "train.seed", "train.augment"]
    assert len(keys) == 28
    # each subcommand's optional actions, --help aside, as the CI summary counts them
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    counts = {name: sum(1 for a in parser._actions
                        if a.option_strings and not isinstance(a, argparse._HelpAction))
              for name, parser in sub.choices.items()}
    assert counts == {"preprocess": 3, "train": 5, "classify": 1, "segment": 4, "evaluate": 4}
    assert sum(counts.values()) == 17


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "preprocess" in capsys.readouterr().out


def test_runtime_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.pgm"
    assert main(["preprocess", str(missing), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "preprocess" in err


def test_preprocess_writes_stages(phantom_pgm, tmp_path):
    out = tmp_path / "stages"
    code = main(["preprocess", str(phantom_pgm), "-o", str(out), "--set", "pipeline.sigma=10"])
    assert code == 0
    for name in ("denoised.pgm", "enhanced.pgm", "pectoral_removed.pgm", "config.echo"):
        assert (out / name).exists()
    assert "pipeline.sigma = 10.0" in (out / "config.echo").read_text()


def test_segment_writes_artifacts(phantom_pgm, tmp_path, capsys):
    out = tmp_path / "seg"
    code = main(["segment", str(phantom_pgm), "-o", str(out), "--set", "pipeline.sigma=5",
                 "--set", "levelset.iterations=30"])
    assert code == 0
    for name in ("mask.pgm", "overlay.ppm", "membership.pgm", "phi.pgm", "config.echo"):
        assert (out / name).exists()
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["mask_area"] > 0
    assert (out / "overlay.ppm").read_bytes().startswith(b"P6")


def test_segment_gt_reports_dice(phantom_pgm, tmp_path, capsys):
    info = tmp_path / "info.txt"
    info.write_text("mdb901 G CIRC B 36 48 12\n")  # matches the phantom lesion
    out = tmp_path / "seg_gt"
    code = main(["segment", str(phantom_pgm), "-o", str(out), "--set", "pipeline.sigma=5",
                 "--info", str(info), "--set", "levelset.iterations=30"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["dice"] >= 0.8  # lesion recovered, not just file plumbing


def test_segment_rejects_a_flat_film(tmp_path, capsys):
    # the denoiser leaves a flat film with a spread of about 1e-16, which
    # normalization would stretch into a tumour-sized mask
    flat = tmp_path / "flat.pgm"
    flat.write_bytes(write_pgm(np.full((32, 32), 7 / 255)))
    out = tmp_path / "seg_flat"
    assert main(["segment", str(flat), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "flat image" in captured.err
    assert not (out / "mask.pgm").exists()
    assert not (out / "config.echo").exists()


def test_preprocess_rejects_a_flat_film_and_writes_nothing(tmp_path, capsys):
    flat = tmp_path / "flat.pgm"
    flat.write_bytes(write_pgm(np.full((32, 32), 7 / 255)))
    out = tmp_path / "pre_flat"
    assert main(["preprocess", str(flat), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_segment_gt_without_an_annotation_fails_before_writing(phantom_pgm, tmp_path, capsys):
    info = tmp_path / "info.txt"
    info.write_text("mdb002 G NORM\n")
    out = tmp_path / "seg_unannotated"
    assert main(["segment", str(phantom_pgm), "-o", str(out), "--info", str(info)]) == 2
    assert "no annotation" in capsys.readouterr().err
    assert not out.exists()


def test_segment_refuses_a_lesion_circle_off_the_film_before_writing(phantom_pgm, tmp_path,
                                                                      capsys):
    info = tmp_path / "info.txt"
    info.write_text("mdb901 G CIRC B 5000 5000 8\n")
    out = tmp_path / "seg_off_film"
    assert main(["segment", str(phantom_pgm), "-o", str(out), "--info", str(info)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    for part in ("'mdb901'", "(5000, 5000)", "96 rows and 96 columns"):
        assert part in captured.err
    assert not out.exists()


@pytest.mark.parametrize("records", ["mdb901 G NORM", "mdb901 G CALC B",
                                     "mdb901 G NORM\nmdb901 F CALC M"])
def test_segment_refuses_a_film_whose_records_place_no_circle(phantom_pgm, tmp_path, capsys,
                                                              monkeypatch, records):
    # a Dice against an empty mask scores a lesion the annotation never placed
    monkeypatch.setattr("mammocad.cli.segment_image", lambda *args: pytest.fail("segmented"))
    info = tmp_path / "info.txt"
    info.write_text(records + "\n")
    out = tmp_path / "seg_no_circle"
    assert main(["segment", str(phantom_pgm), "-o", str(out), "--info", str(info)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "'mdb901'" in captured.err
    assert "no lesion circle" in captured.err
    assert not out.exists()


def test_segment_summary_reports_the_runs_step_counts(phantom_pgm, tmp_path, capsys):
    from mammocad.config import PipelineConfig, apply_assignments, parse_assignments
    from mammocad.core import read_pgm_file
    from mammocad.pipeline import segment_image

    out = tmp_path / "seg_counts"
    assert main(["segment", str(phantom_pgm), "-o", str(out), "--set", "pipeline.sigma=5"]) == 0
    summary = json.loads(capsys.readouterr().out)
    config = apply_assignments(PipelineConfig(),
                               parse_assignments((out / "config.echo").read_text()))
    result = segment_image(read_pgm_file(phantom_pgm), config)
    assert summary["sfcm_iterations"] == result.sfcm_iterations
    assert summary["levelset_iterations"] == result.levelset_iterations
    # the level set stops early, so the count is the run's, not the budget
    assert 1 <= result.levelset_iterations < config.levelset.iterations


@pytest.mark.filterwarnings("ignore:dataset has")
def test_train_classify_evaluate_round_trip(tmp_path, capsys):
    data, info = tiny_training_dir(tmp_path)
    model = tmp_path / "model.bin"
    code = main(["train", "--data", str(data), "--info", str(info),
                 "-o", str(model), "--set", "network.desk=true", "--set", "train.epochs=2",
                 "--set", "train.seed=1"])
    assert code == 0
    assert model.exists()
    assert model.with_suffix(".history.jsonl").exists()
    assert "network.desk = True\n" in (tmp_path / "config.echo").read_text()
    capsys.readouterr()

    image = data / "mdb001.pgm"
    code = main(["classify", "--model", str(model), str(image)])
    assert code == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["label"] in ("normal", "abnormal")
    assert 0.0 <= record["p_abnormal"] <= 1.0
    assert abs(record["p_abnormal"] + record["p_normal"] - 1.0) < 1e-12

    report_path = tmp_path / "report.json"
    code = main(["evaluate", "--model", str(model), "--data", str(data),
                 "--info", str(info), "-o", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"accuracy", "sensitivity", "specificity", "precision",
                           "recall", "f_measure", "g_mean", "auc"}


@pytest.mark.filterwarnings("ignore:dataset has")
def test_evaluate_deterministic(tmp_path, capsys):
    data, info = tiny_training_dir(tmp_path, n_per_class=4)
    model = tmp_path / "model.bin"
    assert main(["train", "--data", str(data), "--info", str(info),
                 "-o", str(model), "--set", "network.desk=true", "--set", "train.epochs=1",
                 "--set", "train.seed=2"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--info", str(info)]) == 0
    first = capsys.readouterr().out
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--info", str(info)]) == 0
    second = capsys.readouterr().out
    assert first == second



@pytest.mark.filterwarnings("ignore:dataset has")
def test_evaluate_reports_a_null_auc_when_the_held_out_films_are_one_class(tmp_path,
                                                                         capsys):
    from mammocad.cnn.network import Network, NetworkConfig, save_checkpoint

    data, info = tiny_training_dir(tmp_path)
    # five normal films and one abnormal: the split keeps the lone abnormal
    # film for training, so every held-out film is normal
    info.write_text("".join(info.read_text().splitlines(keepends=True)[:6]))
    model = tmp_path / "model.bin"
    save_checkpoint(Network(NetworkConfig(desk=True)), model)
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--info", str(info)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["auc"] is None and report["sensitivity"] is None
    assert report["accuracy"] is not None


@pytest.mark.filterwarnings("ignore:dataset has")
def test_evaluate_writes_its_report_into_a_new_directory(tmp_path, capsys):
    from mammocad.cnn.network import Network, NetworkConfig, save_checkpoint

    data, info = tiny_training_dir(tmp_path)
    model = tmp_path / "model.bin"
    save_checkpoint(Network(NetworkConfig(desk=True)), model)
    report = tmp_path / "nodir" / "deeper" / "report.json"
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--info", str(info), "-o", str(report)]) == 0
    assert report.read_text() == capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:dataset has")
def test_set_overrides_the_config_file_and_a_later_set_wins(tmp_path, capsys):
    data, info = tiny_training_dir(tmp_path, n_per_class=3)
    config = tmp_path / "run.cfg"
    config.write_text("train.seed = 3\npipeline.sigma = 50\nnetwork.desk = true\n")
    model = tmp_path / "out" / "model.bin"
    assert main(["train", "--data", str(data), "--info", str(info), "-o", str(model),
                 "--config", str(config), "--set", "train.seed=9", "--set", "train.epochs=1",
                 "--set", "train.seed=0"]) == 0
    echo = (model.parent / "config.echo").read_text().splitlines()
    for line in ("train.seed = 0", "train.epochs = 1", "pipeline.sigma = 50.0",
                 "network.desk = True"):
        assert line in echo


@pytest.mark.filterwarnings("ignore:dataset has")
def test_evaluate_decodes_only_the_held_out_films(tmp_path, capsys):
    from mammocad.cnn.train import stratified_split
    from mammocad.dataset import group_records, image_label, parse_info

    data, info = tiny_training_dir(tmp_path, n_per_class=5)
    model = tmp_path / "model.bin"
    assert main(["train", "--data", str(data), "--info", str(info),
                 "-o", str(model), "--set", "network.desk=true", "--set", "train.epochs=1",
                 "--set", "train.seed=3"]) == 0
    # no seed is given: the checkpoint's, 3, picks the held-out films
    evaluate = ["evaluate", "--model", str(model), "--data", str(data), "--info", str(info)]
    capsys.readouterr()
    assert main(evaluate) == 0
    full = capsys.readouterr().out

    groups = group_records(parse_info(info.read_text()))
    train_idx, test_idx = stratified_split([image_label(g) for g in groups], 0.2,
                                           np.random.default_rng(3))
    for i in train_idx:
        (data / f"{groups[i][0].id}.pgm").unlink()
    assert main(evaluate) == 0
    assert capsys.readouterr().out == full

    held_out = groups[test_idx[0]][0].id
    (data / f"{held_out}.pgm").unlink()
    assert main(evaluate) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and held_out in err


@pytest.mark.filterwarnings("ignore:dataset has")
def test_the_held_out_accuracy_is_the_one_evaluate_reports(tmp_path, capsys, monkeypatch):
    from mammocad.cnn.train import score_dataset

    data, info = tiny_training_dir(tmp_path, n_per_class=10)
    model = tmp_path / "model.bin"
    assert main(["train", "--data", str(data), "--info", str(info), "-o", str(model),
                 "--set", "network.desk=true", "--set", "train.epochs=2", "--set", "train.seed=4",
                 "--set", "train.batch_size=3"]) == 0
    evaluate = ["evaluate", "--model", str(model), "--data", str(data), "--info", str(info)]
    capsys.readouterr()
    assert main(evaluate) == 0
    report = capsys.readouterr().out
    last = json.loads(model.with_suffix(".history.jsonl").read_text().splitlines()[-1])
    assert last["test_accuracy"] == json.loads(report)["accuracy"]

    # scored in chunks of the training batch size, the films give the same report
    def in_threes(network, items):
        items = list(items)
        return [scored for start in range(0, len(items), 3)
                for scored in score_dataset(network, items[start:start + 3])]

    monkeypatch.setattr("mammocad.cli.score_dataset", in_threes)
    assert main(evaluate) == 0
    assert capsys.readouterr().out == report


@pytest.mark.parametrize("command, assignment", [
    ("segment", "sfcm.tol=0"),
    ("segment", "sfcm.clusters=0"),
    ("segment", "levelset.b0=1.5"),
    ("segment", "levelset.tau=-1"),
    ("segment", "levelset.iterations=0"),
    ("train", "train.epochs=0"),
    ("train", "train.batch_size=1"),
    # a value that does not parse as the key's type is refused the same way
    ("train", "train.epochs=1.5"),
    ("segment", "pipeline.sigma=abc"),
    ("train", "network.desk=maybe"),
])
def test_a_refused_config_value_names_its_key(tmp_path, capsys, command, assignment):
    # the inputs do not exist, so reading them would fail with another message
    out = tmp_path / "out"
    argv = {"segment": [str(tmp_path / "x.pgm"), "-o", str(out)],
            "train": ["--data", str(tmp_path), "--info", str(tmp_path / "info.txt"),
                      "-o", str(out / "model.bin")]}[command]
    assert main([command, *argv, "--set", assignment]) == 2
    captured = capsys.readouterr()
    key = assignment.split("=")[0]
    assert captured.out == ""
    assert captured.err.startswith(f"error: {command}: {key} ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:dataset has")
def test_evaluate_peak_memory_does_not_grow_with_the_held_out_films(tmp_path, capsys):
    from mammocad.cnn.network import Network, NetworkConfig, save_checkpoint

    model = tmp_path / "model.bin"
    save_checkpoint(Network(NetworkConfig(desk=True)), model)
    peaks = []
    for n_per_class in (10, 40):  # 4 and 16 held-out films
        root = tmp_path / f"n{n_per_class}"
        root.mkdir()
        data, info = tiny_training_dir(root, n_per_class=n_per_class, size=128)
        tracemalloc.start()
        try:
            assert main(["evaluate", "--model", str(model), "--data", str(data),
                         "--info", str(info)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    # each film is decoded, widened and scored alone
    one_film = 128 * 128 * 8
    assert peaks[1] - peaks[0] <= one_film


@pytest.mark.filterwarnings("ignore:dataset has")
def test_train_peak_memory_grows_only_by_the_sized_films(tmp_path, capsys):
    peaks = []
    # 6 and 12 films at 512x512; both hold out one film per class and
    # take several batches, so only the number of training films differs
    for n_per_class in (3, 6):
        root = tmp_path / f"n{n_per_class}"
        root.mkdir()
        data, info = tiny_training_dir(root, n_per_class=n_per_class, size=512)
        tracemalloc.start()
        try:
            assert main(["train", "--data", str(data), "--info", str(info),
                         "-o", str(root / "model.bin"), "--set", "network.desk=true",
                         "--set", "train.epochs=1", "--set", "train.batch_size=2"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    sized_copies = 6 * 64 * 64 * 8   # of the 6 extra films; whole, they take 12 MB
    bookkeeping = 256 * 1024
    assert peaks[1] - peaks[0] <= sized_copies + bookkeeping


@pytest.mark.filterwarnings("ignore:dataset has")
def test_augmented_train_peak_memory_grows_by_one_byte_per_film_pixel(tmp_path, capsys):
    peaks = []
    # as above: the 6 extra films at 512x512 are all training films
    for n_per_class in (3, 6):
        root = tmp_path / f"n{n_per_class}"
        root.mkdir()
        data, info = tiny_training_dir(root, n_per_class=n_per_class, size=512)
        tracemalloc.start()
        try:
            assert main(["train", "--data", str(data), "--info", str(info),
                         "-o", str(root / "model.bin"), "--set", "network.desk=true",
                         "--set", "train.augment=true", "--set", "train.epochs=1",
                         "--set", "train.batch_size=2"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    # train.augment keeps each whole film, at one byte per pixel (as float64
    # they would take 12 MB), and its 16 variants at the 64x64 input; each
    # variant is a view of its edge-padded 72x72 shift buffer
    kept_films = 6 * 512 * 512
    variants = 6 * 16 * 72 * 72 * 8
    bookkeeping = 256 * 1024
    assert peaks[1] - peaks[0] <= kept_films + variants + bookkeeping


@pytest.mark.filterwarnings("ignore:dataset has")
def test_loaded_dataset_items_hold_one_byte_per_film_pixel(tmp_path):
    from mammocad.dataset import load_dataset

    held = []
    for n_per_class in (2, 6):
        root = tmp_path / f"n{n_per_class}"
        root.mkdir()
        data, info = tiny_training_dir(root, n_per_class=n_per_class, size=512)
        tracemalloc.start()
        try:
            items = load_dataset(data, info)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert len(items) == 2 * n_per_class
    extra_pixels = 8 * 512 * 512      # as float64 they would take 16 MB
    bookkeeping = 64 * 1024
    assert held[1] - held[0] <= extra_pixels + bookkeeping


def test_segment_idempotent(phantom_pgm, tmp_path):
    out = tmp_path / "seg_twice"
    args = ["segment", str(phantom_pgm), "-o", str(out), "--set", "pipeline.sigma=5",
            "--set", "levelset.iterations=10"]
    assert main(args) == 0
    first = (out / "mask.pgm").read_bytes()
    assert main(args) == 0
    assert (out / "mask.pgm").read_bytes() == first


def test_segment_reruns_from_its_config_echo(phantom_pgm, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["segment", str(phantom_pgm), "-o", str(first),
                 "--set", "pipeline.sigma=50"]) == 0
    assert main(["segment", str(phantom_pgm), "-o", str(second),
                 "--config", str(first / "config.echo")]) == 0
    for name in ("config.echo", "mask.pgm", "membership.pgm", "phi.pgm"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_classify_rejects_a_bad_checkpoint(tmp_path, capsys):
    from mammocad.cnn.network import Network, NetworkConfig, save_checkpoint

    model = tmp_path / "model.bin"
    save_checkpoint(Network(NetworkConfig(desk=True)), model)
    model.write_bytes(model.read_bytes()[:-5])
    image = tmp_path / "mdb001.pgm"
    image.write_bytes(write_pgm(np.full((64, 64), 0.5)))
    assert main(["classify", "--model", str(model), str(image)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "truncated" in captured.err


@pytest.mark.filterwarnings("ignore:dataset has")
def test_a_version_1_checkpoint_exits_2(tmp_path, capsys):
    import struct

    from mammocad.cnn.network import Network, NetworkConfig, save_checkpoint

    model = tmp_path / "model.bin"
    save_checkpoint(Network(NetworkConfig(desk=True)), model)
    current = model.read_bytes()
    model.write_bytes(current[:8] + struct.pack("<I", 1) + current[20:])  # no seed in v1
    data, info = tiny_training_dir(tmp_path)
    for argv in (["classify", "--model", str(model), str(data / "mdb001.pgm")],
                 ["evaluate", "--model", str(model), "--data", str(data), "--info", str(info)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "unsupported checkpoint version 1" in captured.err


@pytest.mark.parametrize("tensor, value, message", [
    ("layer01.running_var", -1.0, "negative variance"),
    ("layer00.weight", float("nan"), "non-finite"),
])
def test_classify_rejects_a_checkpoint_with_bad_values(tmp_path, capsys, tensor, value,
                                                        message):
    import struct

    from mammocad.cnn.network import Network, NetworkConfig, save_checkpoint

    model = tmp_path / "model.bin"
    save_checkpoint(Network(NetworkConfig(desk=True)), model)
    data = bytearray(model.read_bytes())
    at = data.index(tensor.encode()) + len(tensor)
    rank = struct.unpack_from("<I", data, at)[0]
    struct.pack_into("<d", data, at + 4 + 8 * rank, value)  # first entry of the tensor
    model.write_bytes(bytes(data))
    image = tmp_path / "mdb001.pgm"
    image.write_bytes(write_pgm(np.full((64, 64), 0.5)))
    assert main(["classify", "--model", str(model), str(image)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert tensor in captured.err and message in captured.err


def test_classify_rejects_a_descriptor_with_an_unknown_field(tmp_path, capsys):
    from mammocad.cnn.network import Network, NetworkConfig, save_checkpoint

    model = tmp_path / "model.bin"
    save_checkpoint(Network(NetworkConfig(desk=True)), model)
    data = model.read_bytes()
    descriptor = NetworkConfig(desk=True).descriptor()
    bad = json.dumps(dict(json.loads(descriptor), dropout=0.5), sort_keys=True).encode()
    start = data.index(descriptor)
    model.write_bytes(data[:start - 4] + len(bad).to_bytes(4, "little") + bad
                      + data[start + len(descriptor):])
    image = tmp_path / "mdb001.pgm"
    image.write_bytes(write_pgm(np.full((64, 64), 0.5)))
    assert main(["classify", "--model", str(model), str(image)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "descriptor" in captured.err


@pytest.mark.parametrize("command, assignment", [
    ("train", "train.batch_size=1"),
    ("segment", "sfcm.max_iter=0"),
])
def test_configs_that_would_do_nothing_are_rejected(tmp_path, capsys, command, assignment):
    paths = {"train": ["--data", str(tmp_path), "--info", str(tmp_path / "info.txt"),
                       "-o", str(tmp_path / "model.bin")],
             "segment": [str(tmp_path / "x.pgm"), "-o", str(tmp_path / "out")]}
    assert main([command, *paths[command], "--set", assignment]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "at least" in err


@pytest.mark.parametrize("assignment, field", [
    ("enhance.pectoral_area_cap=0", "enhance.pectoral_area_cap"),
    ("enhance.pectoral_area_cap=-1", "enhance.pectoral_area_cap"),
    ("enhance.pectoral_tolerance=-5", "enhance.pectoral_tolerance"),
    ("enhance.pectoral_tolerance=0", "enhance.pectoral_tolerance"),
])
def test_pectoral_settings_that_remove_nothing_exit_2_before_any_film_is_read(
        tmp_path, capsys, assignment, field):
    # the film does not exist, so reading it would fail with another message
    out = tmp_path / "out"
    assert main(["segment", str(tmp_path / "x.pgm"), "-o", str(out), "--set", assignment]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and field in captured.err
    assert not out.exists()


@pytest.mark.parametrize("assignment, field", [
    ("sfcm.window_radius=-1", "window_radius"),
    ("sfcm.p=-1", "p must"),
    ("sfcm.q=-0.5", "q must"),
    ("levelset.smoothing_sigma=0", "smoothing_sigma"),
    ("levelset.iterations=0", "iterations"),
    ("levelset.early_stop_patience=0", "early_stop_patience"),
    ("sfcm.tol=nan", "sfcm.tol"),
    # sigma alone sets the denoiser, so any denoise.* value is an unknown key
    ("denoise.lambda_3d=nan", "denoise.lambda_3d"),
    ("enhance.pectoral_tolerance=inf", "enhance.pectoral_tolerance"),
    ("levelset.tau=-1", "tau"),
    # grad_floor is a module constant now, so any value is an unknown key
    ("levelset.grad_floor=0", "grad_floor"),
    ("levelset.grad_floor=-1", "grad_floor"),
])
def test_segment_settings_that_cannot_run_are_rejected(phantom_pgm, tmp_path, capsys,
                                                       assignment, field):
    out = tmp_path / "out"
    assert main(["segment", str(phantom_pgm), "-o", str(out), "--set", assignment]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and field in captured.err
    assert not out.exists()  # rejected before any stage ran


@pytest.mark.parametrize("sigma", ["nan", "inf", "0", "-5"])
def test_non_finite_sigma_is_rejected_before_any_stage(phantom_pgm, tmp_path, capsys, sigma):
    out = tmp_path / "out"
    assert main(["segment", str(phantom_pgm), "-o", str(out),
                 "--set", f"pipeline.sigma={sigma}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "pipeline.sigma" in captured.err
    assert not out.exists()


def test_a_negative_seed_is_rejected_before_any_stage(tmp_path, capsys):
    data, info = tiny_training_dir(tmp_path)
    (data / "mdb001.pgm").unlink()  # reading the films would fail differently
    model = tmp_path / "out" / "model.bin"
    assert main(["train", "--data", str(data), "--info", str(info), "-o", str(model),
                 "--set", "train.seed=-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "train.seed" in captured.err
    assert not model.parent.exists()


def test_a_seed_the_checkpoint_cannot_store_is_rejected_before_any_stage(tmp_path, capsys):
    data, info = tiny_training_dir(tmp_path)
    (data / "mdb001.pgm").unlink()  # reading the films would fail differently
    model = tmp_path / "out" / "model.bin"
    assert main(["train", "--data", str(data), "--info", str(info), "-o", str(model),
                 "--set", f"train.seed={2 ** 64}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "train.seed must be below 2**64" in captured.err
    assert not model.parent.exists()


# the momentum is fixed at 0.9, so train.momentum is an unknown key now;
# any value, in range or not, still exits 2 before a stage runs
@pytest.mark.parametrize("momentum", ["5", "-3"])
def test_a_momentum_outside_the_unit_interval_exits_2_before_any_stage(tmp_path, capsys,
                                                                       momentum):
    data, info = tiny_training_dir(tmp_path)
    (data / "mdb001.pgm").unlink()  # reading the films would fail differently
    model = tmp_path / "out" / "model.bin"
    assert main(["train", "--data", str(data), "--info", str(info), "-o", str(model),
                 "--set", "network.desk=true", "--set", f"train.momentum={momentum}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "train.momentum" in captured.err
    assert not model.parent.exists()


# the denoiser's matching geometry is fixed and sigma sets the rest, so
# its nine keys are gone too; mu follows tau and the SGD momentum is fixed,
# so an echo that still holds either exits 2 on it
@pytest.mark.parametrize("key", ["pipeline.seed", "sfcm.seed", "network.input_size",
                                 "levelset.grad_floor", "denoise.k_hard", "denoise.k_wie",
                                 "denoise.n_hard", "denoise.n_wie", "denoise.step",
                                 "denoise.search_radius", "denoise.lambda_3d",
                                 "denoise.tau_hard", "denoise.tau_wie", "levelset.mu",
                                 "train.momentum"])
@pytest.mark.parametrize("source", ["set", "config"])
def test_the_removed_seed_keys_exit_2(phantom_pgm, tmp_path, capsys, key, source):
    out = tmp_path / "out"
    if source == "set":
        given = ["--set", f"{key}=3"]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = 3\n")
        given = ["--config", str(config)]
    assert main(["segment", str(phantom_pgm), "-o", str(out), *given]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "unknown config key" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("segment", "--gt"),
    ("segment", "--verbose"),
    ("preprocess", "--seed=3"),
    ("segment", "--seed=3"),
    ("train", "--sigma=5"),
    ("evaluate", "--sigma=5"),
    ("evaluate", "--seed=3"),
    # every setting has one name, its config key, given with --config or --set
    ("preprocess", "--sigma=5"),
    ("segment", "--sigma=5"),
    ("train", "--seed=3"),
    ("train", "--desk"),
    ("train", "--epochs=1"),
    ("train", "--augment"),
    # the checkpoint fixes the seed and the profile, and films are scored
    # one at a time, so evaluate reads no config value
    ("evaluate", "--set=train.seed=9"),
    ("evaluate", "--config=config.echo"),
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(phantom_pgm, tmp_path, capsys,
                                                              monkeypatch, command, flag):
    monkeypatch.setattr("mammocad.cli.load_item", lambda *args: pytest.fail("decoded"))
    data, info = tiny_training_dir(tmp_path)
    out = tmp_path / "out"
    argv = {"preprocess": [str(phantom_pgm), "-o", str(out)],
            "segment": [str(phantom_pgm), "-o", str(out), "--info", str(info)],
            "train": ["--data", str(data), "--info", str(info), "-o", str(out / "model.bin")],
            "evaluate": ["--model", str(tmp_path / "model.bin"), "--data", str(data),
                         "--info", str(info), "-o", str(out / "report.json")]}[command]
    assert main([command, *argv, flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:dataset has")
def test_pgm_errors_name_the_file(tmp_path, capsys):
    from mammocad.cnn.network import Network, NetworkConfig, save_checkpoint

    model = tmp_path / "model.bin"
    save_checkpoint(Network(NetworkConfig(desk=True)), model)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n64 64\n255\n" + bytes(10))
    assert main(["classify", "--model", str(model), str(short)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "short.pgm" in err and "found 10" in err

    data, info = tiny_training_dir(tmp_path)
    (data / "mdb007.pgm").write_bytes(b"P5\n64 64\n255\n" + bytes(10))
    assert main(["train", "--data", str(data), "--info", str(info),
                 "-o", str(tmp_path / "m" / "model.bin"), "--set", "network.desk=true",
                 "--set", "train.epochs=1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "mdb007.pgm" in err and "found 10" in err


def test_a_bad_lesion_radius_exits_2_naming_the_line(tmp_path, capsys):
    data, info = tiny_training_dir(tmp_path)
    info.write_text(info.read_text().replace("32 32 12", "30 30 -5", 1))
    assert main(["train", "--data", str(data), "--info", str(info),
                 "-o", str(tmp_path / "model.bin"), "--set", "network.desk=true"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 6" in err and "radius -5" in err


@pytest.mark.filterwarnings("ignore:dataset has")
def test_a_tie_is_normal_in_classify_evaluate_and_predict(tmp_path, capsys):
    from mammocad.cnn.network import Network, NetworkConfig, save_checkpoint

    # a fresh desk network scores an all-zero film exactly [0.5, 0.5]
    network = Network(NetworkConfig(desk=True))
    probs, labels = network.predict([np.zeros((64, 64))])
    assert probs[0].tolist() == [0.5, 0.5] and labels.tolist() == [0]
    model = tmp_path / "model.bin"
    save_checkpoint(network, model)
    data, info = tiny_training_dir(tmp_path)
    for film in data.iterdir():
        film.write_bytes(write_pgm(np.zeros((64, 64))))

    assert main(["classify", "--model", str(model), str(data / "mdb001.pgm")]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == "normal"
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--info", str(info)]) == 0
    report = json.loads(capsys.readouterr().out)
    # every held-out film called normal: no abnormal one found, every normal one kept
    assert (report["sensitivity"], report["specificity"]) == (0.0, 1.0)


def test_python_m_mammocad_runs_the_cli(phantom_pgm, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(mammocad.__file__).parents[1]))
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "mammocad", "segment", str(phantom_pgm), "-o", str(out),
         "--set", "pipeline.sigma=5", "--set", "levelset.iterations=5"],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["sfcm_iterations"] >= 1
    assert (out / "mask.pgm").exists()
    bad = subprocess.run([sys.executable, "-m", "mammocad", "no-such-command"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert bad.returncode == 1
