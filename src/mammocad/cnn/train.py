"""Training loop: stratified split, mini-batch SGD with momentum.

Dataset items are (image, label) pairs with label 1 for abnormal.
Runs are strictly sequential and reproducible for a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..core import Film, as_gray, resize_bilinear
from ..metrics import compute_metrics, confusion
from .augment import build_augmented_set
from .layers import cross_entropy, sgd_step, softmax_predict
from .network import Network, NetworkConfig


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 20
    batch_size: int = 32
    momentum: float = 0.9
    seed: int = 0
    augment: bool = False

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.batch_size < 2:
            raise ValueError("batch size must be at least 2 (batch statistics)")
        if self.seed < 0:
            raise ValueError(f"train.seed must be non-negative, got {self.seed}")
        if self.seed >= 2 ** 64:    # the checkpoint stores it as a u64
            raise ValueError(f"train.seed must be below 2**64, got {self.seed}")


HELD_OUT_FRACTION = 0.2     # of each class, held out by `train` and scored by `evaluate`


def stratified_split(labels, test_fraction, rng):
    """Index split keeping the class ratio; at least one test item per class."""
    labels = np.asarray(labels)
    train_idx, test_idx = [], []
    for value in np.unique(labels):
        members = np.flatnonzero(labels == value)
        members = members[rng.permutation(len(members))]
        n_test = max(1, round(test_fraction * len(members))) if len(members) > 1 else 0
        test_idx.extend(members[:n_test])
        train_idx.extend(members[n_test:])
    return sorted(train_idx), sorted(test_idx)


def _sized(image, size):
    img = as_gray(image)
    if img.shape == (size, size):
        return img
    return resize_bilinear(img, size, size)


def _whole(image):
    """A decoded `Film` as it is, one byte per pixel (it is 2-D and finite
    by construction); anything else as `as_gray` checks and makes it."""
    return image if isinstance(image, Film) else as_gray(image)


def train(dataset, network_config: NetworkConfig = NetworkConfig(),
          train_config: TrainConfig = TrainConfig()):
    """Fit the classifier; returns (network, history).

    The dataset is split 80/20 per class by the seed; history carries
    one record per epoch with the mean train loss and test accuracy.
    `dataset` is any iterable of (image, label) pairs, read once. Each
    film is cut to the input size as it is read, so a lazy iterable keeps
    no full-resolution film alive. Augmentation keeps the whole films
    until its set is built: each rotation is evaluated only where the
    crops read a film, but a crop can fall anywhere on it, and corners
    are filled with the mean of all the films. A decoded `Film` is kept
    at one byte per pixel and widened to float64 one film at a time.
    """
    size = network_config.input_size
    keep = _whole if train_config.augment else (lambda im: _sized(im, size))
    items = [(keep(im), int(lab)) for im, lab in dataset]
    if not items:
        raise ValueError("empty dataset")
    labels = [lab for _, lab in items]
    if len(set(labels)) < 2:
        raise ValueError("training needs both classes present")

    rng = np.random.default_rng(train_config.seed)
    train_idx, test_idx = stratified_split(labels, HELD_OUT_FRACTION, rng)
    train_items = [items[i] for i in train_idx]
    test_items = [items[i] for i in test_idx]
    del items   # the whole films of an augmented run die with the two lists below
    if train_config.augment:
        train_items = build_augmented_set(train_items, rng, size)
        test_items = [(_sized(im, size), lab) for im, lab in test_items]
    train_labels = np.array([lab for _, lab in train_items])

    network = Network(network_config, seed=train_config.seed)
    velocity = None
    history = []
    n = len(train_items)
    for epoch in range(1, train_config.epochs + 1):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, train_config.batch_size):
            batch = order[start:start + train_config.batch_size]
            if len(batch) < 2:
                continue  # batch statistics need at least two samples
            x = np.stack([train_items[i][0] for i in batch])[:, None]
            y = train_labels[batch]
            logits = network.forward(x, train=True)
            probs, _ = softmax_predict(logits)
            loss, grad = cross_entropy(probs, y)
            network.backward(grad)
            velocity = sgd_step(network.named_params(), network.named_grads(),
                                train_config.learning_rate, train_config.momentum, velocity)
            losses.append(loss)
        scored = score_dataset(network, test_items, train_config.batch_size)
        pairs = [(abnormal, truth) for _, abnormal, truth in scored]
        history.append({
            "epoch": epoch,
            "train_loss": float(np.mean(losses)) if losses else None,
            # the accuracy `evaluate` reports
            "test_accuracy": compute_metrics(confusion(pairs)).accuracy if pairs else None,
        })
    return network, history


def write_history(history, path) -> None:
    """One JSON record per line, one line per epoch."""
    with open(path, "w") as fh:
        for record in history:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def score_dataset(network: Network, items, batch_size: int = TrainConfig.batch_size):
    """(abnormal probability, predicted abnormal, truth) for each film.

    The prediction is `Network.predict`'s label, the one decision rule:
    abnormal only when its probability is the larger, so a tie is normal.
    `items` is any iterable of (image, label) pairs, read once. Films are
    taken, resized and scored `batch_size` at a time, so memory follows
    the batch, not the number of films. Batch norm uses its running
    statistics here, so chunking changes no prediction beyond float
    rounding in the batched products.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    items = iter(items)
    scored = []
    while chunk := list(islice(items, batch_size)):
        probs, labels = network.predict(
            [_sized(im, network.config.input_size) for im, _ in chunk])
        scored.extend((float(p[1]), bool(label), bool(truth))
                      for p, label, (_, truth) in zip(probs, labels, chunk))
    return scored
