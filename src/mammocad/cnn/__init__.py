"""From-scratch convolutional classifier for normal/abnormal screening."""

# callers import from the submodules; `train` stays re-exported because
# perfbench's probe runs `from mammocad.cnn import network, train` and
# calls `train(...)`, which would otherwise be the submodule
from .train import train

__all__ = ["train"]
