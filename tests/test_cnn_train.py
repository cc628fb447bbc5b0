import importlib
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from mammocad.core import read_pgm, write_pgm
from mammocad.cnn.layers import BatchNorm2d
from mammocad.cnn.network import Network, NetworkConfig
from mammocad.cnn.train import (
    TrainConfig,
    held_out_split,
    score_dataset,
    stratified_split,
    train,
    write_history,
)


def blob_dataset(n_per_class=8, size=64, seed=0):
    """Separable classes: bright blob top-left vs bottom-right."""
    rng = np.random.default_rng(seed)
    items = []
    for label in (0, 1):
        for _ in range(n_per_class):
            img = 0.2 + 0.05 * rng.random((size, size))
            r0, c0 = (8, 8) if label == 0 else (size - 28, size - 28)
            img[r0:r0 + 20, c0:c0 + 20] += 0.5
            items.append((np.clip(img, 0, 1), label))
    return items


def test_defaults_match_training_setup():
    cfg = TrainConfig()
    assert cfg.learning_rate == 0.001
    assert cfg.epochs == 20
    assert cfg.batch_size == 32
    assert cfg.momentum == 0.9


@pytest.mark.parametrize("momentum", [-3.0, -1e-9, 1.0, 5.0, float("nan")])
def test_momentum_outside_the_unit_interval_is_refused(momentum):
    with pytest.raises(ValueError, match="train.momentum"):
        TrainConfig(momentum=momentum)


def test_stratified_split_ratio():
    labels = [0] * 40 + [1] * 10
    train_idx, test_idx = stratified_split(labels, 0.2, np.random.default_rng(0))
    assert len(train_idx) + len(test_idx) == 50
    assert sum(1 for i in test_idx if labels[i] == 0) == 8
    assert sum(1 for i in test_idx if labels[i] == 1) == 2
    assert not set(train_idx) & set(test_idx)


def test_single_class_rejected():
    items = [(np.zeros((64, 64)), 1) for _ in range(6)]
    with pytest.raises(ValueError):
        train(items, NetworkConfig(desk=True), TrainConfig(epochs=1))


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train([], NetworkConfig(desk=True), TrainConfig(epochs=1))


def test_loss_decreases_on_separable_data():
    items = blob_dataset(n_per_class=10)
    cfg = TrainConfig(epochs=3, batch_size=8, seed=1, learning_rate=0.01)
    _, history = train(items, NetworkConfig(desk=True), cfg)
    losses = [h["train_loss"] for h in history]
    assert len(losses) == 3
    for a, b in zip(losses, losses[1:]):
        assert b <= a


def test_history_records_epochs_and_accuracy():
    items = blob_dataset(n_per_class=6)
    _, history = train(items, NetworkConfig(desk=True),
                       TrainConfig(epochs=2, batch_size=8, seed=2))
    assert [h["epoch"] for h in history] == [1, 2]
    for h in history:
        assert 0.0 <= h["test_accuracy"] <= 1.0
        assert h["train_loss"] > 0.0


def test_train_deterministic_for_seed():
    items = blob_dataset(n_per_class=5)
    cfg = TrainConfig(epochs=2, batch_size=8, seed=3)
    net1, hist1 = train(items, NetworkConfig(desk=True), cfg)
    net2, hist2 = train(items, NetworkConfig(desk=True), cfg)
    assert hist1 == hist2
    for name, tensor in net1.named_params().items():
        np.testing.assert_array_equal(net2.named_params()[name], tensor)


def test_train_reads_a_lazy_dataset_like_a_list():
    items = blob_dataset(n_per_class=5, size=96)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=3)
    net1, hist1 = train(items, NetworkConfig(desk=True), cfg)
    net2, hist2 = train(iter(items), NetworkConfig(desk=True), cfg)
    assert hist1 == hist2
    for name, tensor in net1.named_params().items():
        assert net2.named_params()[name].tobytes() == tensor.tobytes()


def test_memorizes_eight_images():
    # overfit check: a tiny set must be learned perfectly
    items = blob_dataset(n_per_class=5)  # 8 train / 2 test after the split
    cfg = TrainConfig(epochs=200, batch_size=8, seed=4, learning_rate=0.01)
    net, history = train(items, NetworkConfig(desk=True), cfg)
    train_items = [items[i] for i in
                   stratified_split([l for _, l in items], 0.2,
                                    np.random.default_rng(cfg.seed))[0]]
    probs, labels = net.predict([im for im, _ in train_items])
    truth = np.array([l for _, l in train_items])
    accuracy = (labels == truth).mean()
    assert accuracy == 1.0
    assert any(h["train_loss"] < 0.1 for h in history)


def test_augmented_training_runs():
    items = blob_dataset(n_per_class=3, size=48)
    cfg = TrainConfig(epochs=1, batch_size=16, seed=5, augment=True)
    net, history = train(items, NetworkConfig(desk=True), cfg)
    assert len(history) == 1


@pytest.mark.parametrize("augment", [False, True])
@pytest.mark.parametrize("bad, message", [
    (np.full((64, 64), np.nan), "non-finite"),
    (np.zeros((64, 64, 1)), "2-D"),
], ids=["non-finite", "3-D"])
def test_a_bad_film_is_refused_before_the_split(augment, bad, message):
    # one class only: a film check made after the split would meet
    # "both classes" first
    items = [(bad, 1)] + [(np.zeros((64, 64)), 1) for _ in range(5)]
    with pytest.raises(ValueError, match=message):
        train(items, NetworkConfig(desk=True), TrainConfig(epochs=1, augment=augment))


def test_augmented_training_reads_decoded_films_like_their_arrays():
    items = blob_dataset(n_per_class=3, size=48)
    films = [(read_pgm(write_pgm(image)), label) for image, label in items]
    arrays = [(np.asarray(film), label) for film, label in films]
    cfg = TrainConfig(epochs=1, batch_size=16, seed=5, augment=True)
    net1, hist1 = train(films, NetworkConfig(desk=True), cfg)
    net2, hist2 = train(arrays, NetworkConfig(desk=True), cfg)
    assert hist1 == hist2
    for name, tensor in net1.named_params().items():
        assert net2.named_params()[name].tobytes() == tensor.tobytes()
    # training read the films without writing into their rasters
    assert all(np.asarray(film).tobytes() == array.tobytes()
               for (film, _), (array, _) in zip(films, arrays))


def test_augmented_training_frees_the_whole_films_before_the_first_step(monkeypatch):
    module = importlib.import_module("mammocad.cnn.train")
    refs = []

    def films():
        for image, label in blob_dataset(n_per_class=3, size=96):
            refs.append(weakref.ref(image))
            yield image, label

    alive = []
    step = module.sgd_step

    def counted_step(*args, **kwargs):
        if not alive:
            alive.append(sum(ref() is not None for ref in refs))
        return step(*args, **kwargs)

    monkeypatch.setattr(module, "sgd_step", counted_step)
    cfg = TrainConfig(epochs=1, batch_size=16, seed=5, augment=True)
    train(films(), NetworkConfig(desk=True), cfg)
    # the training films live only until the augmented set is built,
    # the held-out ones until they are cut to the input size
    assert len(refs) == 6 and alive == [0]


def test_a_last_batch_of_one_never_reaches_batch_norm(monkeypatch):
    # batch norm trusts train to hand it batch statistics of at least two
    # images: 10 training films in batches of 3 leave one over, which
    # train skips, so SGD sees one film fewer than the training part
    module = importlib.import_module("mammocad.cnn.train")
    items = blob_dataset(n_per_class=6)
    cfg = TrainConfig(epochs=1, batch_size=3, seed=6)
    n_train = len(held_out_split([label for _, label in items], cfg.seed)[0])
    assert n_train % cfg.batch_size == 1
    batches = {}
    forward = BatchNorm2d.forward

    def spied_forward(self, x, train=False):
        if train:
            batches.setdefault(id(self), []).append(len(x))
        return forward(self, x, train=train)

    steps = []
    step = module.sgd_step

    def counted_step(*args, **kwargs):
        steps.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(BatchNorm2d, "forward", spied_forward)
    monkeypatch.setattr(module, "sgd_step", counted_step)
    train(items, NetworkConfig(desk=True), cfg)
    assert len(batches) == 3        # the desk profile's batch-norm layers
    for sizes in batches.values():
        assert min(sizes) >= 2
        assert len(sizes) == len(steps)
        assert sum(sizes) == n_train - 1


def test_held_out_split_is_the_first_draw_of_the_seed():
    # train and evaluate both find the held-out films here
    labels = [0] * 7 + [1] * 5
    train_idx, test_idx, rng = held_out_split(labels, 9)
    expected = np.random.default_rng(9)
    assert (train_idx, test_idx) == stratified_split(labels, 0.2, expected)
    assert rng.integers(1 << 30) == expected.integers(1 << 30)


def test_write_history_jsonl(tmp_path):
    path = tmp_path / "history.jsonl"
    write_history([{"epoch": 1, "train_loss": 0.5, "test_accuracy": 0.75}], path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["epoch"] == 1


def test_score_dataset_probability_prediction_truth():
    items = blob_dataset(n_per_class=4)
    net, _ = train(items, NetworkConfig(desk=True), TrainConfig(epochs=1, batch_size=8, seed=6))
    scored = score_dataset(net, items)
    assert len(scored) == len(items)
    _, labels = net.predict([im for im, _ in items])
    for (prob, abnormal, truth), label, (_, lab) in zip(scored, labels, items):
        assert 0.0 <= prob <= 1.0
        assert abnormal is bool(label)
        assert truth is bool(lab)


def test_a_film_scores_the_same_in_a_list_alone_and_in_classify(tmp_path, capsys):
    from mammocad.cli import main
    from mammocad.cnn.network import save_checkpoint

    # 8-bit films, so classify reads back the bytes scored here
    items = [(read_pgm(write_pgm(im)), lab) for im, lab in blob_dataset(n_per_class=5, size=80)]
    net, _ = train(items, NetworkConfig(desk=True), TrainConfig(epochs=1, batch_size=4, seed=6))
    scored = score_dataset(net, items)
    assert scored == [triple for item in items for triple in score_dataset(net, [item])]
    model = tmp_path / "model.bin"
    save_checkpoint(net, model)
    paths = []
    for i, (im, _) in enumerate(items):
        paths.append(tmp_path / f"film{i}.pgm")
        paths[-1].write_bytes(write_pgm(im))
    capsys.readouterr()
    assert main(["classify", "--model", str(model), *map(str, paths)]) == 0
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["p_abnormal"], r["label"] == "abnormal") for r in printed] == [
        (p, abnormal) for p, abnormal, _ in scored]


def test_score_dataset_peak_memory_does_not_grow_with_the_film_count():
    net = Network(NetworkConfig(desk=True), seed=0)
    rng = np.random.default_rng(0)
    films = [(rng.random((80, 80)), i % 2) for i in range(32)]

    def peak(items):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            score_dataset(net, items)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    # scoring holds one film's input copy at a time; the bound, four of
    # them, leaves room for numpy's first-call allocations (up to about 40 KB)
    one_film = net.config.input_size ** 2 * 8
    assert peak(films) - peak(films[:8]) <= 4 * one_film


def test_training_peak_memory_does_not_grow_with_the_held_out_films():
    rng = np.random.default_rng(0)
    net_cfg, train_cfg = NetworkConfig(desk=True), TrainConfig(epochs=1, batch_size=2, seed=0)

    def peak(n_per_class):
        films = [(rng.random((64, 64)), i % 2) for i in range(2 * n_per_class)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train(films, net_cfg, train_cfg)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    # 2 and 16 held-out films at batch 2; the films are already
    # input-sized, so train keeps no copy of them
    one_chunk = train_cfg.batch_size * net_cfg.input_size ** 2 * 8
    bookkeeping = 64 * 1024
    assert peak(40) - peak(5) <= one_chunk + bookkeeping
