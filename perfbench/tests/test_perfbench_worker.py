"""The measuring loop counts failures, and the training workloads count
the images SGD really sees."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads  # noqa: E402
from phantom import make_phantom  # noqa: E402
from worker import run_rounds  # noqa: E402
from workloads import Unit  # noqa: E402


def _raise():
    raise RuntimeError("broken")


def test_a_unit_that_raises_fails_its_items_and_correct():
    ok = Unit(items=1, run=lambda: 1, check=lambda output: ([], {"levelset.dice": 1.0}))
    broken = Unit(items=2, run=_raise, check=lambda output: ([], {}))
    done = run_rounds([ok, broken, ok], seconds=0.0)
    assert (done.rounds, done.attempted, done.failed) == (1, 4, 2)
    assert done.problems and "RuntimeError('broken')" in done.problems[0]
    assert done.unit_rates[1] == 0.0 and done.unit_rates[0] > 0.0
    assert done.quality == {"levelset.dice": [1.0, 1.0]}


def test_a_check_that_fails_or_raises_fails_its_items():
    wrong = Unit(items=3, run=lambda: 1, check=lambda output: (["off by one"], {}))
    crashing = Unit(items=1, run=lambda: 1, check=lambda output: 1 / 0)
    done = run_rounds([wrong, crashing], seconds=0.0)
    assert (done.attempted, done.failed) == (4, 4)
    assert done.problems[0] == "off by one"
    assert "ZeroDivisionError" in done.problems[1]
    assert done.items_per_s == 0.0


def test_whole_rounds_until_the_time_is_spent():
    done = run_rounds([Unit(items=1, run=lambda: 1, check=lambda output: ([], {}))] * 2,
                      seconds=1e-4)
    assert done.rounds >= 1 and done.attempted == 2 * done.rounds
    assert done.failed == 0 and not done.problems


@pytest.mark.parametrize("augment, batch_size", [(True, 32), (False, 7)])
def test_sgd_item_count_matches_what_train_feeds(monkeypatch, augment, batch_size):
    # restore the program's softmax_predict after the counter wraps it
    monkeypatch.setattr(workloads.cnn_train, "softmax_predict",
                        workloads.cnn_train.softmax_predict)
    fed = workloads._count_fed_images()
    data = [(make_phantom(72, i, with_lesion=i % 2 == 1).clean, i % 2) for i in range(10)]
    net_cfg = workloads._config(("network.desk", "true")).network_config()
    train_cfg = workloads.cnn_train.TrainConfig(epochs=1, batch_size=batch_size,
                                                augment=augment)
    expected = workloads._sgd_items([label for _, label in data], train_cfg)
    workloads.cnn_train.train(data, net_cfg, train_cfg)
    # eight training films; without augmenting, the last batch of one is skipped
    assert expected == (128 if augment else 7)
    assert fed[0] == expected
