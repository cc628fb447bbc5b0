import numpy as np
import pytest

from mammocad.cnn.layers import (
    Flatten,
    MaxPool2d,
    ReLU,
    cross_entropy,
    sgd_step,
    softmax_predict,
    window_positions,
)

from cnn_builders import batchnorm_layer, conv_layer, dense_layer

STEP = 1e-3
TOL = 1e-4


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return (np.abs(a - b) / denom).max()


def fd_gradient(scalar_fn, x, step=STEP):
    """Central finite differences of a scalar function, element by element."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = scalar_fn()
        flat[i] = keep - step
        lo = scalar_fn()
        flat[i] = keep
        out[i] = (hi - lo) / (2 * step)
    return grad


def check_layer_gradients(layer, x, train=False):
    """Compare analytic input/parameter gradients against finite differences."""
    rng = np.random.default_rng(99)
    probe = rng.normal(size=layer.forward(x, train=train).shape)

    def loss():
        return float((layer.forward(x, train=train) * probe).sum())

    grad_in = layer.backward(probe)  # also refreshes parameter gradients
    assert rel_err(grad_in, fd_gradient(loss, x)) < TOL
    for name, param in layer.params().items():
        analytic = layer.grads()[name]
        assert rel_err(analytic, fd_gradient(loss, param)) < TOL, name


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.random((2, 3, 5, 5))
    conv = conv_layer(3, 3, 1, rng=rng)
    conv.weight = np.eye(3).reshape(3, 3, 1, 1).astype(float)
    conv.bias = np.zeros(3)
    np.testing.assert_allclose(conv.forward(x), x)


def test_conv_zero_kernel_yields_bias():
    rng = np.random.default_rng(1)
    x = rng.random((1, 2, 6, 6))
    conv = conv_layer(2, 4, 3, rng=rng)
    conv.weight = np.zeros_like(conv.weight)
    conv.bias = np.array([0.1, -0.2, 0.3, 0.4])
    out = conv.forward(x)
    for o in range(4):
        np.testing.assert_allclose(out[:, o], conv.bias[o])


def test_conv_output_shape_formula():
    assert window_positions(64, 11, 4, 2) == 15
    assert window_positions(256, 11, 4, 2) == 63
    conv = conv_layer(1, 8, 11, stride=4, padding=2)
    assert conv.forward(np.zeros((1, 1, 64, 64))).shape == (1, 8, 15, 15)


def test_conv_rejects_channel_mismatch():
    conv = conv_layer(3, 4, 3)
    with pytest.raises(ValueError):
        conv.forward(np.zeros((1, 2, 8, 8)))


def test_conv_gradients():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 3, 8, 8))
    check_layer_gradients(conv_layer(3, 4, 3, rng=rng), x)


def test_conv_gradients_strided_padded():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 2, 9, 9))
    check_layer_gradients(conv_layer(2, 3, 3, stride=2, padding=1, rng=rng), x)


def test_maxpool_constant_input():
    pool = MaxPool2d(3, 2)
    x = np.full((1, 2, 7, 7), 0.5)
    np.testing.assert_array_equal(pool.forward(x), np.full((1, 2, 3, 3), 0.5))


def test_maxpool_ramp_takes_bottom_right():
    pool = MaxPool2d(2, 2)
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    out = pool.forward(x)
    np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])


def test_maxpool_window_too_large():
    with pytest.raises(ValueError):
        MaxPool2d(5, 2).forward(np.zeros((1, 1, 4, 4)))


def test_maxpool_tie_routes_to_first():
    pool = MaxPool2d(2, 2)
    x = np.zeros((1, 1, 2, 2))
    pool.forward(x)
    gx = pool.backward(np.ones((1, 1, 1, 1)))
    np.testing.assert_array_equal(gx[0, 0], [[1, 0], [0, 0]])


def test_maxpool_gradients():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 9, 9))  # continuous values: ties have measure zero
    check_layer_gradients(MaxPool2d(3, 2), x)


def test_batchnorm_train_statistics():
    rng = np.random.default_rng(5)
    bn = batchnorm_layer(3)
    x = rng.normal(loc=2.0, scale=3.0, size=(4, 3, 5, 5))
    y = bn.forward(x, train=True)
    np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
    np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-4)


def test_batchnorm_gamma_zero_gives_beta():
    bn = batchnorm_layer(2)
    bn.gamma = np.zeros(2)
    bn.beta = np.array([1.5, -0.5])
    rng = np.random.default_rng(6)
    y = bn.forward(rng.normal(size=(3, 2, 4, 4)), train=True)
    np.testing.assert_allclose(y[:, 0], 1.5)
    np.testing.assert_allclose(y[:, 1], -0.5)


def test_batchnorm_rejects_batch_of_one():
    with pytest.raises(ValueError):
        batchnorm_layer(2).forward(np.zeros((1, 2, 4, 4)), train=True)


def test_batchnorm_running_stats_updated():
    bn = batchnorm_layer(1)
    x = np.ones((2, 1, 2, 2)) * 4.0
    bn.forward(x, train=True)
    np.testing.assert_allclose(bn.running_mean, [0.9 * 0.0 + 0.1 * 4.0])
    y = bn.forward(x, train=False)
    expected = bn.gamma[0] * (4.0 - bn.running_mean[0]) / np.sqrt(bn.running_var[0] + bn.EPS)
    np.testing.assert_allclose(y, expected)


def test_batchnorm_gradients_train_mode():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 2, 3, 3))
    check_layer_gradients(batchnorm_layer(2), x, train=True)


def test_batchnorm_backward_needs_a_training_forward():
    bn = batchnorm_layer(2)
    x = np.arange(100.0).reshape(2, 2, 5, 5)
    bn.forward(x, train=False)
    with pytest.raises(RuntimeError, match="backward needs a forward pass first"):
        bn.backward(np.ones_like(x))
    bn.forward(x, train=True)
    bn.forward(x, train=False)  # an eval forward drops the training forward's cache
    assert bn._cache is None
    with pytest.raises(RuntimeError, match="backward needs a forward pass first"):
        bn.backward(np.ones_like(x))


def test_dense_identity_passthrough():
    dense = dense_layer(4, 4)
    dense.weight = np.eye(4)
    dense.bias = np.zeros(4)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 4))
    np.testing.assert_allclose(dense.forward(x), x)


def test_dense_zero_weights_give_bias():
    dense = dense_layer(5, 2)
    dense.weight = np.zeros((5, 2))
    dense.bias = np.array([0.3, -0.7])
    out = dense.forward(np.ones((4, 5)))
    np.testing.assert_allclose(out, np.tile(dense.bias, (4, 1)))


def test_dense_shape_mismatch():
    with pytest.raises(ValueError):
        dense_layer(5, 2).forward(np.zeros((1, 4)))


def test_dense_gradients():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 6))
    check_layer_gradients(dense_layer(6, 3, rng=rng), x)


def test_relu_gradients():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 3, 4, 4))
    x = np.where(np.abs(x) < 0.05, 0.1, x)  # stay clear of the kink
    check_layer_gradients(ReLU(), x)


def test_flatten_round_trip():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 4, 5))
    f = Flatten()
    y = f.forward(x)
    assert y.shape == (2, 60)
    np.testing.assert_array_equal(f.backward(y), x)


@pytest.mark.parametrize("layer, x", [
    (conv_layer(2, 3, 3), np.ones((2, 2, 5, 5))),
    (MaxPool2d(3, 2), np.ones((2, 2, 5, 5))),
    (batchnorm_layer(2), np.arange(100.0).reshape(2, 2, 5, 5)),
    (ReLU(), np.ones((2, 3))),
    (Flatten(), np.ones((2, 2, 5, 5))),
    (dense_layer(3, 2), np.ones((2, 3))),
], ids=["conv", "pool", "batchnorm", "relu", "flatten", "dense"])
def test_backward_needs_a_forward_pass(layer, x):
    with pytest.raises(RuntimeError, match="backward needs a forward pass first"):
        layer.backward(np.ones((2, 2)))
    grad = np.ones(layer.forward(x, train=True).shape)
    layer.backward(grad)
    with pytest.raises(RuntimeError, match="backward needs a forward pass first"):
        layer.backward(grad)  # the forward cache is consumed


@pytest.mark.parametrize("make, x", [
    (lambda: conv_layer(2, 3, 3), np.arange(100.0).reshape(2, 2, 5, 5) % 7),
    (lambda: MaxPool2d(3, 2), np.arange(100.0).reshape(2, 2, 5, 5) % 7),
    (lambda: batchnorm_layer(2), np.arange(100.0).reshape(2, 2, 5, 5)),
    (ReLU, np.arange(6.0).reshape(2, 3) - 2),
    (Flatten, np.ones((2, 2, 5, 5))),
    (lambda: dense_layer(3, 2), np.arange(6.0).reshape(2, 3)),
], ids=["conv", "pool", "batchnorm", "relu", "flatten", "dense"])
def test_backward_without_input_gradient(make, x):
    full, partial = make(), make()
    grad = np.random.default_rng(12).normal(size=full.forward(x, train=True).shape)
    partial.forward(x, train=True)
    assert full.backward(grad).shape == x.shape
    assert partial.backward(grad, input_grad=False) is None
    assert partial._cache is None
    for name, value in full.grads().items():
        assert partial.grads()[name].tobytes() == value.tobytes(), name


def test_softmax_symmetric_tie():
    probs, labels = softmax_predict(np.array([[0.0, 0.0]]))
    np.testing.assert_allclose(probs, [[0.5, 0.5]])
    assert labels.tolist() == [0]


def test_softmax_shift_invariance():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(1, 5))
    p1, _ = softmax_predict(z)
    p2, _ = softmax_predict(z + 123.456)
    np.testing.assert_allclose(p1, p2, atol=1e-12)
    assert abs(p1.sum() - 1.0) < 1e-12


def test_softmax_known_values():
    probs, labels = softmax_predict(np.array([[1.0, 3.0]]))
    e2 = np.exp(2.0)
    np.testing.assert_allclose(probs, [[1 / (1 + e2), e2 / (1 + e2)]], atol=1e-12)
    np.testing.assert_allclose(probs, [[0.1192, 0.8808]], atol=1e-4)
    assert labels.tolist() == [1]


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError):
        softmax_predict(np.array([np.inf, 0.0]))


def test_cross_entropy_certain_prediction():
    loss, _ = cross_entropy(np.array([[1.0, 0.0]]), np.array([0]))
    assert loss == 0.0


def test_cross_entropy_uniform_two_class():
    loss, _ = cross_entropy(np.array([[0.5, 0.5]]), np.array([1]))
    assert abs(loss - np.log(2)) < 1e-12


def test_cross_entropy_logit_gradient_matches_fd():
    rng = np.random.default_rng(13)
    logits = rng.normal(size=(3, 4))
    labels = np.array([0, 2, 3])

    def loss_fn():
        p, _ = softmax_predict(logits)
        return cross_entropy(p, labels)[0]

    probs, _ = softmax_predict(logits)
    _, analytic = cross_entropy(probs, labels)
    assert rel_err(analytic, fd_gradient(loss_fn, logits)) < TOL


def test_sgd_zero_gradient_no_change():
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.zeros(2)}
    sgd_step(params, grads, 0.1)
    np.testing.assert_array_equal(params["w"], [1.0, 2.0])


def test_sgd_plain_step_without_momentum():
    w = np.array([1.0])
    params = {"w": w}
    grads = {"w": np.array([0.5])}
    sgd_step(params, grads, 0.1, momentum=0.0)
    assert params["w"] is w  # updated in place
    np.testing.assert_allclose(w, [1.0 - 0.05])


def test_sgd_two_steps_with_momentum_hand_check():
    params = {"w": np.array([1.0])}
    v = None
    v = sgd_step(params, {"w": np.array([1.0])}, 0.1, 0.9, v)
    # v = 1.0, w = 1 - 0.1
    np.testing.assert_allclose(params["w"], [0.9])
    v = sgd_step(params, {"w": np.array([1.0])}, 0.1, 0.9, v)
    # v = 0.9*1 + 1 = 1.9, w = 0.9 - 0.19
    np.testing.assert_allclose(params["w"], [0.71])
    np.testing.assert_allclose(v["w"], [1.9])


def test_sgd_shape_mismatch_rejected():
    params = {"a": np.zeros(2), "w": np.zeros(2)}
    with pytest.raises(ValueError):
        sgd_step(params, {"a": np.ones(2), "w": np.zeros(3)}, 0.1)
    np.testing.assert_array_equal(params["a"], [0.0, 0.0])  # nothing updated
