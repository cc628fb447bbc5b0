"""From-scratch convolutional classifier for normal/abnormal screening."""

from .augment import augment_with_params, build_augmented_set
from .layers import (
    BatchNorm2d,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ReLU,
    cross_entropy,
    sgd_step,
    softmax_predict,
)
from .network import CheckpointError, Network, NetworkConfig, load_checkpoint, save_checkpoint
from .train import TrainConfig, score_dataset, train, write_history

__all__ = [
    "BatchNorm2d", "CheckpointError", "Conv2d", "Dense", "Flatten", "MaxPool2d", "ReLU",
    "Network", "NetworkConfig", "TrainConfig",
    "augment_with_params", "build_augmented_set",
    "cross_entropy", "load_checkpoint", "save_checkpoint", "score_dataset",
    "sgd_step", "softmax_predict", "train", "write_history",
]
