"""What one round of each workload runs, and how its outputs are checked.

A workload's `setup` does the work a user pays before the first result:
building the configuration and decoding the input films. It returns
the round: a list of units. A unit runs one timed call into the
program, counts as `items` items, and has a check that runs after its
timing stops. A check returns (problems, quality), where quality holds
the dice and PSNR figures the traced run reports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from inputs import INFO_FILE, SPECS, Film, films

config = import_module("mammocad.config")
core = import_module("mammocad.core")
dataset = import_module("mammocad.dataset")
enhance = import_module("mammocad.enhance")
levelset = import_module("mammocad.levelset")
pipeline = import_module("mammocad.pipeline")
sfcm = import_module("mammocad.sfcm")
layers = import_module("mammocad.cnn.layers")
network = import_module("mammocad.cnn.network")
cnn_train = import_module("mammocad.cnn.train")


@dataclass
class Unit:
    items: int
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict]]


def _config(*assignments):
    return config.apply_assignments(config.PipelineConfig(), list(assignments))


def _decode(directory: Path, film: Film) -> np.ndarray:
    return core.read_pgm((directory / f"{film.ident}.pgm").read_bytes())


# --- segment-256: the full segmentation chain on noisy films -------------

def _check_segmentation(film: Film, noisy: np.ndarray, result) -> tuple[list[str], dict]:
    truth = film.truth()
    pre = result.preprocess
    problems, lesion_dice = checks.overlap_problems("lesion", result.mask, truth.lesion)
    problems += checks.overlap_problems("pectoral", pre.pectoral, truth.pectoral)[0]
    noisy_db = checks.psnr_db(noisy, truth.clean)
    denoised_db = checks.psnr_db(pre.denoised, truth.clean)
    if not denoised_db >= noisy_db + checks.MIN_PSNR_GAIN_DB:
        problems.append(f"denoised PSNR {denoised_db:.2f} dB is not "
                        f"{checks.MIN_PSNR_GAIN_DB} dB above the noisy {noisy_db:.2f} dB")
    problems += checks.tag_problems(pre.enhanced, truth.tag)
    return problems, {"levelset.dice": lesion_dice,
                      "denoise.psnr_gain_db": denoised_db - noisy_db}


def setup_segment(directory: Path, seed: int) -> list[Unit]:
    cfg = _config(("pipeline.sigma", str(SPECS["segment-256"].sigma)))
    units = []
    for film in films("segment-256", seed):
        image = _decode(directory, film)
        units.append(Unit(
            items=1,
            run=lambda image=image: pipeline.segment_image(image, cfg),
            check=lambda result, film=film, image=image:
                _check_segmentation(film, image, result)))
    return units


# --- sfcm-levelset-1024: every stage after the denoiser ------------------

@dataclass
class _AfterDenoise:
    cleaned: np.ndarray
    pectoral: np.ndarray
    memberships: np.ndarray
    phi: np.ndarray
    mask: np.ndarray


def _after_denoise(image, cfg) -> _AfterDenoise:
    """`pipeline.segment_image` from the median filter on, stage by stage."""
    filtered = enhance.median_filter(image, cfg.enhance.median_window)
    normalized = enhance.normalize(filtered, cfg.enhance.r1, cfg.enhance.r2)
    cleaned = enhance.remove_artifacts(normalized)
    final, pectoral = enhance.remove_pectoral(cleaned, cfg.enhance)
    memberships, centers, _ = sfcm.sfcm_run(final, cfg.sfcm_config())
    r_k = sfcm.tumor_membership_map(memberships, centers, final.shape)
    phi, _ = levelset.evolve(r_k, final, cfg.levelset)
    return _AfterDenoise(cleaned=cleaned, pectoral=pectoral, memberships=memberships,
                         phi=phi, mask=levelset.extract_mask(phi))


def _check_after_denoise(film: Film, out: _AfterDenoise) -> tuple[list[str], dict]:
    truth = film.truth()
    problems, lesion_dice = checks.overlap_problems("lesion", out.mask, truth.lesion)
    problems += checks.overlap_problems("pectoral", out.pectoral, truth.pectoral)[0]
    problems += checks.tag_problems(out.cleaned, truth.tag)
    column_error = float(np.abs(out.memberships.sum(axis=0) - 1.0).max())
    if not column_error <= 1e-9:
        problems.append(f"membership columns miss 1 by up to {column_error:.2e}")
    if not np.array_equal(out.mask, out.phi > 0):
        problems.append("mask differs from phi > 0")
    return problems, {"levelset.dice": lesion_dice}


def setup_sfcm_levelset(directory: Path, seed: int) -> list[Unit]:
    cfg = _config(("pipeline.sigma", str(SPECS["sfcm-levelset-1024"].sigma)))
    units = []
    for film in films("sfcm-levelset-1024", seed):
        image = _decode(directory, film)
        units.append(Unit(
            items=1,
            run=lambda image=image: _after_denoise(image, cfg),
            check=lambda out, film=film: _check_after_denoise(film, out)))
    return units


# --- train-*: one epoch of SGD, then the checkpoint ----------------------

AUGMENT_VARIANTS = 16               # build_augmented_set: 4 rotations x 4 crops


def _sgd_items(labels, train_cfg) -> int:
    """Images one epoch should feed to SGD: the program's own 80/20 split
    of these labels, times the variants per film when augmenting, less a
    last batch of one, which `train` skips. The check compares it with
    the count `train` really fed."""
    rng = np.random.default_rng(train_cfg.seed)
    train_idx, _ = cnn_train.stratified_split(labels, 0.2, rng)
    n = len(train_idx) * (AUGMENT_VARIANTS if train_cfg.augment else 1)
    return n - (n % train_cfg.batch_size == 1)


def _count_fed_images() -> list[int]:
    """Count the images `train` feeds to SGD. It calls softmax_predict
    once per batch, on that batch's logits; the returned one-item list
    holds the running count."""
    fed = [0]
    predict = cnn_train.softmax_predict

    def counted(logits):
        fed[0] += len(logits)
        return predict(logits)

    cnn_train.softmax_predict = counted
    return fed


def _probe_batch(images, input_size: int, count: int) -> np.ndarray:
    """A few films cut down to the network input by plain striding."""
    batch = []
    for image in images[:count]:
        stride = image.shape[0] // input_size
        batch.append(image[::stride, ::stride][:input_size, :input_size])
    return np.stack(batch)[:, None]


def _check_training(output, items: int, checkpoint: Path, images, labels
                    ) -> tuple[list[str], dict]:
    trained, history, fed = output
    problems = [] if fed == items else [f"SGD saw {fed} images, not the {items} counted"]
    losses = [record["train_loss"] for record in history]
    if not losses or not all(loss is not None and np.isfinite(loss) for loss in losses):
        problems.append(f"epoch losses are not all finite: {losses}")

    reloaded = network.load_checkpoint(checkpoint)
    size = trained.config.input_size
    probe = _probe_batch(images, size, 4)
    if not np.array_equal(trained.predict(list(probe[:, 0]))[0],
                          reloaded.predict(list(probe[:, 0]))[0]):
        problems.append("reloaded checkpoint predicts differently")

    # gradient check on the reloaded copy: training-mode forward moves the
    # batch-norm running statistics, which the trained network keeps
    x = probe[:2]
    y = np.array(labels[:2])

    def loss():
        probs, _ = layers.softmax_predict(reloaded.forward(x, train=True))
        return layers.cross_entropy(probs, y)[0]

    probs, _ = layers.softmax_predict(reloaded.forward(x, train=True))
    reloaded.backward(layers.cross_entropy(probs, y)[1])
    params, grads = reloaded.named_params(), reloaded.named_grads()
    problems += checks.gradient_problems(
        loss, {name: (params[name], grads[name]) for name in sorted(params)
               if name.endswith(".weight")})
    return problems, {}


def _setup_training(directory: Path, *assignments) -> list[Unit]:
    cfg = _config(("train.epochs", "1"), *assignments)
    with warnings.catch_warnings():
        # the phantom set is smaller than the 322-film archive on purpose
        warnings.filterwarnings("ignore", message="dataset has")
        loaded = dataset.load_dataset(directory, directory / INFO_FILE)
    data = [(item.image, item.label) for item in loaded]
    net_cfg, train_cfg = cfg.network_config(), cfg.train_config()
    checkpoint = directory / "model.bin"
    items = _sgd_items([label for _, label in data], train_cfg)
    fed = _count_fed_images()

    def run():
        fed[0] = 0
        trained, history = cnn_train.train(data, net_cfg, train_cfg)
        network.save_checkpoint(trained, checkpoint)
        return trained, history, fed[0]

    # one abnormal and one normal film first, for the two-image gradient batch
    images = [data[1][0], data[0][0]] + [image for image, _ in data[2:4]]
    labels = [data[1][1], data[0][1]]
    return [Unit(items=items, run=run, check=lambda output:
                 _check_training(output, items, checkpoint, images, labels))]


def setup_train_full(directory: Path, seed: int) -> list[Unit]:
    return _setup_training(directory)


def setup_train_desk_augment(directory: Path, seed: int) -> list[Unit]:
    return _setup_training(directory, ("network.desk", "true"), ("train.augment", "true"))


SETUPS = {
    "segment-256": setup_segment,
    "sfcm-levelset-1024": setup_sfcm_levelset,
    "train-full": setup_train_full,
    "train-desk-augment": setup_train_desk_augment,
}
