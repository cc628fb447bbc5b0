"""CNN layers built as a network builds them, for tests that check one layer."""

import numpy as np

from mammocad.cnn.layers import BatchNorm2d, Conv2d, Dense


def conv_layer(in_channels, out_channels, kernel, rng=None, **settings):
    """A conv layer with He-normal weights and zero bias, drawn as a
    network draws them (from seed 0 when no generator is given)."""
    rng = rng if rng is not None else np.random.default_rng(0)
    shape = (out_channels, in_channels, kernel, kernel)
    weight = rng.normal(0.0, np.sqrt(2.0 / (in_channels * kernel * kernel)), shape)
    return Conv2d(weight, np.zeros(out_channels), **settings)


def dense_layer(in_features, out_features, rng=None):
    """A dense layer with He-normal weights and zero bias."""
    rng = rng if rng is not None else np.random.default_rng(0)
    weight = rng.normal(0.0, np.sqrt(2.0 / in_features), (in_features, out_features))
    return Dense(weight, np.zeros(out_features))


def batchnorm_layer(channels):
    """A batch-norm layer at unit scale, zero shift and fresh statistics."""
    return BatchNorm2d(np.ones(channels), np.zeros(channels), np.zeros(channels),
                       np.ones(channels))
