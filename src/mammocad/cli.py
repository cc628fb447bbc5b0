"""Command-line entry points.

Subcommands: preprocess, train, classify, segment, evaluate. Exit code
0 on success, 1 for usage errors, 2 for runtime or data errors. Flags
override config-file values; the effective configuration is echoed
into the output directory for provenance.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import PipelineConfig, apply_assignments, format_config, parse_assignments
from .core import mask_contour, read_pgm_file, write_pgm, write_ppm_overlay
from .dataset import combined_ground_truth, group_records, image_label, load_item, parse_info
from .cnn.network import load_checkpoint, save_checkpoint
from .cnn.train import HELD_OUT_FRACTION, score_dataset, stratified_split, train, write_history
from .metrics import compute_metrics, confusion, dice, roc_auc
from .pipeline import preprocess_image, segment_image


def _add_config_flags(sub):
    sub.add_argument("--config", help="pipeline config file (section.key = value lines)")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="SECTION.KEY=VALUE", help="override one config value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mammocad", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("preprocess", help="denoise and enhance one image")
    p.add_argument("image", help="input PGM file")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--sigma", type=float, help="assumed noise std on the 8-bit scale")
    _add_config_flags(p)
    p.set_defaults(func=cmd_preprocess)

    p = commands.add_parser("train", help="train the normal/abnormal classifier")
    p.add_argument("--data", required=True, help="directory with <id>.pgm images")
    p.add_argument("--info", required=True, help="annotation file")
    p.add_argument("-o", "--output", required=True, help="checkpoint path (model.bin)")
    p.add_argument("--desk", action="store_true",
                   help="quarter-width 64x64 profile for desk-scale runs")
    p.add_argument("--epochs", type=int)
    p.add_argument("--augment", action="store_true")
    p.add_argument("--seed", type=int, help="training seed (train.seed)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("classify", help="label images with a trained model")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("images", nargs="+", help="input PGM files")
    p.set_defaults(func=cmd_classify)

    p = commands.add_parser("segment", help="segment the tumor region of one image")
    p.add_argument("image", help="input PGM file")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--info", help="annotation file; reports Dice against the lesion circle")
    p.add_argument("--sigma", type=float, help="assumed noise std on the 8-bit scale")
    _add_config_flags(p)
    p.set_defaults(func=cmd_segment)

    p = commands.add_parser("evaluate", help="metric report on the films the model held out")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="directory with <id>.pgm images")
    p.add_argument("--info", required=True, help="annotation file")
    p.add_argument("-o", "--output", help="also write the JSON report here")
    _add_config_flags(p)
    p.set_defaults(func=cmd_evaluate)
    return parser


# the dedicated flags and the config keys they assign
_FLAG_KEYS = {"sigma": "pipeline.sigma", "seed": "train.seed", "desk": "network.desk",
              "epochs": "train.epochs", "augment": "train.augment"}


def _assignments(args) -> list[tuple[str, str]]:
    """The config file's, then --set's, then the dedicated flags' assignments."""
    assignments = []
    if args.config:
        assignments += parse_assignments(Path(args.config).read_text())
    for item in args.overrides:
        if "=" not in item:
            raise ValueError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        dotted, value = item.split("=", 1)
        assignments.append((dotted.strip(), value.strip()))
    for flag, key in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        # an unset flag is None, an unset switch False; 0 is a value
        if value is not None and value is not False:
            assignments.append((key, str(value)))
    return assignments


def load_pipeline_config(args) -> PipelineConfig:
    """The config the assignments give; a later assignment to a key wins."""
    return apply_assignments(PipelineConfig(), _assignments(args))


def _write_outputs(out_dir: Path, config: PipelineConfig, outputs: dict):
    """Write a finished run's files, then `config.echo`, which a failed run never leaves."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in outputs.items():
        (out_dir / name).write_bytes(data)
    (out_dir / "config.echo").write_text(format_config(config))


def cmd_preprocess(args) -> int:
    config = load_pipeline_config(args)
    result = preprocess_image(read_pgm_file(args.image), config)
    out_dir = Path(args.output)
    _write_outputs(out_dir, config, {"denoised.pgm": write_pgm(result.denoised),
                                     "enhanced.pgm": write_pgm(result.enhanced),
                                     "pectoral_removed.pgm": write_pgm(result.final)})
    print(f"wrote 3 stages to {out_dir}")
    return 0


def _films(data_dir, groups):
    """(image, label) of each image's records, each film decoded as it is read."""
    items = (load_item(data_dir, recs) for recs in groups)
    return ((item.image, item.label) for item in items)


def cmd_train(args) -> int:
    config = load_pipeline_config(args)
    model_path = Path(args.output)
    groups = group_records(parse_info(Path(args.info).read_text()))
    # train keeps only its input-size copy of each film; --augment keeps the 8-bit film
    network, history = train(_films(args.data, groups), config.network, config.train)
    model_path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(network, model_path)
    write_history(history, model_path.with_suffix(".history.jsonl"))
    _write_outputs(model_path.parent, config, {})
    last = history[-1]
    print(json.dumps({"model": str(model_path), "epochs": len(history),
                      "final_train_loss": last["train_loss"],
                      "test_accuracy": last["test_accuracy"]}, sort_keys=True))
    return 0


def cmd_classify(args) -> int:
    network = load_checkpoint(args.model)
    for path in args.images:
        [(p_abnormal, abnormal, _)] = score_dataset(network, [(read_pgm_file(path), 0)])
        print(json.dumps({"path": str(path), "label": "abnormal" if abnormal else "normal",
                          "p_abnormal": p_abnormal,
                          "p_normal": 1.0 - p_abnormal}, sort_keys=True))
    return 0


def cmd_segment(args) -> int:
    config = load_pipeline_config(args)
    image = read_pgm_file(args.image)
    truth = None
    if args.info:
        stem = Path(args.image).stem
        records = [r for r in parse_info(Path(args.info).read_text()) if r.id == stem]
        if not records:
            raise ValueError(f"no annotation for image id {stem!r}")
        if all(r.center is None for r in records):
            raise ValueError(f"image id {stem!r} has no lesion circle to score the mask against")
        # refuses a lesion circle off the film before anything is written
        truth = combined_ground_truth(records, image.shape)

    result = segment_image(image, config)
    span = np.ptp(result.phi)
    phi_view = (result.phi - result.phi.min()) / span if span > 0 else np.zeros_like(result.phi)
    _write_outputs(Path(args.output), config, {
        "mask.pgm": write_pgm(result.mask),
        "overlay.ppm": write_ppm_overlay(image, mask_contour(result.mask)),
        "membership.pgm": write_pgm(result.membership),
        "phi.pgm": write_pgm(phi_view)})

    summary = {
        "image": str(args.image),
        "mask_area": int(result.mask.sum()),
        "sfcm_iterations": result.sfcm_iterations,
        "levelset_iterations": result.levelset_iterations,
    }
    if truth is not None:
        summary["dice"] = dice(result.mask, truth)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    assignments = _assignments(args)
    config = apply_assignments(PipelineConfig(), assignments)   # read for train.batch_size
    network = load_checkpoint(args.model)
    # the checkpoint fixes the seed and the profile; an assigned other value is refused
    assigned = {key for key, _ in assignments}
    for key, value, recorded in (("train.seed", config.train.seed, network.seed),
                                 ("network.desk", config.network.desk, network.config.desk)):
        if key in assigned and value != recorded:
            raise ValueError(f"{key} = {value} differs from the checkpoint's {recorded}")
    # the split needs the labels and the training seed; decode just the held-out films
    groups = group_records(parse_info(Path(args.info).read_text()))
    labels = [image_label(recs) for recs in groups]
    rng = np.random.default_rng(network.seed)
    _, test_idx = stratified_split(labels, HELD_OUT_FRACTION, rng)
    # only one batch of films is alive at a time
    scored = score_dataset(network, _films(args.data, [groups[i] for i in test_idx]),
                           config.train.batch_size)
    report = compute_metrics(confusion((abnormal, truth) for _, abnormal, truth in scored))
    # the ROC is undefined when the held-out films are all one class
    if len({truth for _, _, truth in scored}) == 2:
        report = dataclasses.replace(report, auc=roc_auc((p, truth) for p, _, truth in scored))
    text = report.to_json()
    if args.output:
        report_path = Path(args.output)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(text + "\n")
    print(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error and 0 after --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
