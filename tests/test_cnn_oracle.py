"""Conv and max-pool layers against the implementations they replaced.

The oracles below are the earlier `Conv2d` and `MaxPool2d`: the conv
cached its im2col columns and built the column gradient in (channel,
kernel offset) order, and the pool scattered through four index planes.
The layers must agree with them byte for byte, forward output and every
gradient, since checkpoints are pinned bit-exactly.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from mammocad.cnn.layers import Conv2d, MaxPool2d
from mammocad.cnn.network import Network, NetworkConfig


def conv_layer(in_channels, out_channels, kernel, rng, **settings):
    """A conv layer with He-normal weights and zero bias, drawn as a network draws them."""
    shape = (out_channels, in_channels, kernel, kernel)
    weight = rng.normal(0.0, np.sqrt(2.0 / (in_channels * kernel * kernel)), shape)
    return Conv2d(weight, np.zeros(out_channels), **settings)


def oracle_conv(weight, bias, stride, padding, x, grad):
    """(output, input gradient, weight gradient, bias gradient)."""
    n, _, h, w = x.shape
    o, c, k, _ = weight.shape
    s, p = stride, padding
    ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, -1)
    out = cols @ weight.reshape(o, -1).T + bias
    out = out.reshape(n, ho, wo, o).transpose(0, 3, 1, 2)

    g = grad.transpose(0, 2, 3, 1).reshape(n * ho * wo, o)
    grad_weight = (g.T @ cols).reshape(weight.shape)
    grad_bias = g.sum(axis=0)
    gcols = (g @ weight.reshape(o, -1)).reshape(n, ho, wo, c, k, k)
    gxp = np.zeros(xp.shape)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i:i + s * ho:s, j:j + s * wo:s] += \
                gcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return out, gxp[:, :, p:p + h, p:p + w], grad_weight, grad_bias


def oracle_pool(window, stride, x, grad):
    """(output, input gradient); the first maximum of a window takes its gradient."""
    k, s = window, stride
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    flat = win.reshape(*win.shape[:4], k * k)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    gx = np.zeros(x.shape)
    ni, ci, hi, wi = np.indices(idx.shape)
    np.add.at(gx, (ni, ci, hi * s + idx // k, wi * s + idx % k), grad)
    return out, gx


def assert_same_bytes(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), what


def profile_cases(config, batch):
    """(layer, input shape) for each conv and pool of a network profile."""
    net = Network(config, seed=5)
    shape = (batch, 1, config.input_size, config.input_size)
    cases = []
    for layer in net.layers:
        if isinstance(layer, (Conv2d, MaxPool2d)):
            cases.append((layer, shape))
            shape = layer.forward(np.zeros(shape)).shape
    return cases


def check_layer(layer, x_shape, seed, ties=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape)
    if ties:   # coarse values: many windows hold their maximum twice
        x = np.round(x * 2) / 2
    out = layer.forward(x, train=True)
    grad = rng.normal(size=out.shape)
    gx = layer.backward(grad)
    if isinstance(layer, Conv2d):
        want = oracle_conv(layer.weight, layer.bias, layer.stride, layer.padding, x, grad)
        got = (out, gx, layer.grad_weight, layer.grad_bias)
        names = ("output", "input gradient", "grad_weight", "grad_bias")
    else:
        want = oracle_pool(layer.window, layer.stride, x, grad)
        got = (out, gx)
        names = ("output", "input gradient")
    for g, w, name in zip(got, want, names):
        assert_same_bytes(g, w, f"{type(layer).__name__} {x_shape}: {name}")


def test_full_profile_layers_match_the_oracle():
    for i, (layer, shape) in enumerate(profile_cases(NetworkConfig(), batch=2)):
        check_layer(layer, shape, seed=i)


@pytest.mark.parametrize("batch", [2, 4, 10, 32])
def test_desk_profile_layers_match_the_oracle(batch):
    for i, (layer, shape) in enumerate(profile_cases(NetworkConfig.desk(), batch)):
        check_layer(layer, shape, seed=100 * batch + i)


@pytest.mark.parametrize("make_layer, shape", [
    # the strided, padded and pooled cases of acceptance criterion 7
    (lambda rng: conv_layer(3, 4, 3, rng=rng), (1, 3, 8, 8)),
    (lambda rng: conv_layer(2, 3, 5, stride=2, padding=2, rng=rng), (2, 2, 9, 9)),
    (lambda rng: MaxPool2d(3, 2), (2, 3, 9, 9)),
    # a first layer's geometry: stride 4, kernel 11, rows that do not tile
    (lambda rng: conv_layer(2, 5, 11, stride=4, padding=3, rng=rng), (3, 2, 41, 38)),
])
def test_small_cases_match_the_oracle(make_layer, shape):
    check_layer(make_layer(np.random.default_rng(7)), shape, seed=8)


@pytest.mark.parametrize("window, stride", [(3, 2), (2, 2), (3, 1), (16, 3)])
def test_pool_ties_and_overlaps_match_the_oracle(window, stride):
    check_layer(MaxPool2d(window, stride), (2, 3, 33, 35), seed=9, ties=True)


def test_pool_rejects_windows_its_index_cannot_name():
    MaxPool2d(16, 2)
    with pytest.raises(ValueError, match="uint8"):
        MaxPool2d(17, 2)
