"""Network layers with exact analytic gradients.

Activations are float64 arrays in NCHW layout. A training forward
(`train=True`) caches what the layer's backward pass needs; backward
consumes that cache, stores parameter gradients on the layer and
returns the gradient with respect to the input, or None when called
with `input_grad=False`. An eval forward caches nothing and drops any
cache left behind, so a backward after it is refused, and no layer
holds activations between training steps or after inference. A layer
is built from the tensors it holds; the network draws their initial
values or reads them from a checkpoint of the profile's shapes. A layer
trusts its input: `Network` builds every layer from its profile's
`layer_plan` and feeds it inputs of the profile's size, and `train`
gives batch norm training batches of at least 2.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Layer:
    """What every layer shares: a forward cache that backward consumes,
    and named parameters, gradients and checkpointed state, none by
    default. A kind names its trained tensors in PARAMS, each with its
    gradient in `grad_<name>`, and its other checkpointed ones in STATE."""

    PARAMS = ()
    STATE = ()
    _cache = None

    def _pop_cache(self):
        """The forward cache, emptied so backward consumes it once."""
        cache = self._cache
        if cache is None:
            raise RuntimeError("backward needs a forward pass first")
        self._cache = None
        return cache

    def params(self):
        return {name: getattr(self, name) for name in self.PARAMS}

    def grads(self):
        return {name: getattr(self, "grad_" + name) for name in self.PARAMS}

    def state(self):
        return {name: getattr(self, name) for name in self.STATE}


def window_positions(size, window, stride, padding=0):
    """How many places a window takes as it slides at `stride` over an
    extent of `size`, zero-padded by `padding` on each side."""
    return (size + 2 * padding - window) // stride + 1


class Conv2d(Layer):
    """2-D cross-correlation with zero padding and stride; the weight is
    (out channels, in channels, kernel, kernel)."""

    PARAMS = ("weight", "bias")

    def __init__(self, weight, bias, stride=1, padding=0):
        self.weight = weight
        self.bias = bias
        self.stride = stride
        self.padding = padding
        self.grad_weight = None
        self.grad_bias = None

    def _columns(self, xp, ho, wo):
        """im2col: one row per output pixel, columns in (channel, kernel
        row, kernel column) order, matching `weight.reshape(o, -1)`."""
        n = xp.shape[0]
        k, s = self.weight.shape[2], self.stride
        win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        return win.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, -1)

    def forward(self, x, train=False):
        n, _, h, w = x.shape
        o, _, k, _ = self.weight.shape
        s, p = self.stride, self.padding
        ho, wo = window_positions(h, k, s, p), window_positions(w, k, s, p)
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        out = self._columns(xp, ho, wo) @ self.weight.reshape(o, -1).T + self.bias
        # the columns are rebuilt in backward: caching them would keep an
        # im2col buffer (k*k times the padded input) alive between steps
        self._cache = (x.shape, xp) if train else None
        return out.reshape(n, ho, wo, o).transpose(0, 3, 1, 2)

    def backward(self, grad, input_grad=True):
        x_shape, xp = self._pop_cache()
        n, _, h, w = x_shape
        o, c, k, _ = self.weight.shape
        s, p = self.stride, self.padding
        ho, wo = grad.shape[2], grad.shape[3]
        g = grad.transpose(0, 2, 3, 1).reshape(n * ho * wo, o)
        cols = self._columns(xp, ho, wo)
        self.grad_weight = (g.T @ cols).reshape(self.weight.shape)
        del cols  # one im2col-sized buffer at a time
        self.grad_bias = g.sum(axis=0)
        if not input_grad:
            return None
        # weight columns in (kernel offset, channel) order, so each offset's
        # column gradient is a contiguous run of channels; the product is
        # the same one as with (channel, offset) columns, permuted
        wk = self.weight.reshape(o, c, k * k).transpose(0, 2, 1).reshape(o, -1)
        gcols = (g @ wk).reshape(n, ho, wo, k, k, c)
        gxp = np.zeros((n, xp.shape[2], xp.shape[3], c))
        for i in range(k):
            for j in range(k):
                gxp[:, i:i + s * ho:s, j:j + s * wo:s] += gcols[:, :, :, i, j]
        return np.ascontiguousarray(gxp[:, p:p + h, p:p + w].transpose(0, 3, 1, 2))


# the widest pool window whose positions a uint8 index can name
MAX_POOL_WINDOW = 16


class MaxPool2d(Layer):
    """Windowed maximum; gradients route to the first maximum per window."""

    def __init__(self, window=3, stride=2):
        if window > MAX_POOL_WINDOW:
            raise ValueError(f"pool window {window} has more positions than a "
                             "uint8 window index can name")
        self.window = window
        self.stride = stride

    def forward(self, x, train=False):
        k, s = self.window, self.stride
        win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        flat = win.reshape(*win.shape[:4], k * k)
        idx = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        self._cache = (x.shape, idx.astype(np.uint8)) if train else None
        return out

    def backward(self, grad, input_grad=True):
        x_shape, idx = self._pop_cache()
        if not input_grad:
            return None
        k, s = self.window, self.stride
        n, c, h, w = x_shape
        _, _, ho, wo = idx.shape
        # flat input offset of each window's maximum: plane, window origin,
        # then the position inside the window
        plane = np.arange(n * c).reshape(n, c, 1, 1) * (h * w)
        origin = (np.arange(ho) * (s * w))[:, None] + np.arange(wo) * s
        inside = (idx // k).astype(np.intp) * w + idx % k
        gx = np.zeros(n * c * h * w)
        # add.at visits indices in C order, so overlapping windows sum in
        # a fixed order
        np.add.at(gx, (plane + origin + inside).ravel(), grad.ravel())
        return gx.reshape(x_shape)


class BatchNorm2d(Layer):
    """Per-channel normalization with running statistics for inference."""

    PARAMS = ("gamma", "beta")
    STATE = ("running_mean", "running_var")
    MOMENTUM = 0.9
    EPS = 1e-5

    def __init__(self, gamma, beta, running_mean, running_var):
        self.gamma = gamma
        self.beta = beta
        self.running_mean = running_mean
        self.running_var = running_var
        self.grad_gamma = None
        self.grad_beta = None

    def forward(self, x, train=False):
        if train:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = self.MOMENTUM * self.running_mean + (1 - self.MOMENTUM) * mean
            self.running_var = self.MOMENTUM * self.running_var + (1 - self.MOMENTUM) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = (xhat, inv_std) if train else None
        return self.gamma[None, :, None, None] * xhat + self.beta[None, :, None, None]

    def backward(self, grad, input_grad=True):
        xhat, inv_std = self._pop_cache()
        self.grad_gamma = (grad * xhat).sum(axis=(0, 2, 3))
        self.grad_beta = grad.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        m = grad.shape[0] * grad.shape[2] * grad.shape[3]
        correction = (self.grad_beta[None, :, None, None]
                      + xhat * self.grad_gamma[None, :, None, None]) / m
        return (self.gamma * inv_std)[None, :, None, None] * (grad - correction)


class ReLU(Layer):
    def forward(self, x, train=False):
        positive = x > 0
        self._cache = positive if train else None
        return np.where(positive, x, 0.0)

    def backward(self, grad, input_grad=True):
        positive = self._pop_cache()
        return np.where(positive, grad, 0.0) if input_grad else None


class Flatten(Layer):
    def forward(self, x, train=False):
        self._cache = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad, input_grad=True):
        shape = self._pop_cache()
        return grad.reshape(shape) if input_grad else None


class Dense(Layer):
    """Affine map on flattened features; the weight is (in, out)."""

    PARAMS = ("weight", "bias")

    def __init__(self, weight, bias):
        self.weight = weight
        self.bias = bias
        self.grad_weight = None
        self.grad_bias = None

    def forward(self, x, train=False):
        self._cache = x if train else None
        return x @ self.weight + self.bias

    def backward(self, grad, input_grad=True):
        x = self._pop_cache()
        self.grad_weight = x.T @ grad
        self.grad_bias = grad.sum(axis=0)
        return grad @ self.weight.T if input_grad else None


def softmax_predict(logits):
    """Class probabilities and argmax labels (ties go to the lowest index)
    of an (N, classes) batch; max-subtraction keeps the exponentials finite.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("logits must be finite")
    shifted = arr - arr.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    return probs, probs.argmax(axis=1)


def cross_entropy(probs, labels):
    """Mean negative log-likelihood of an (N, classes) batch and its
    gradient w.r.t. the logits.

    The probability of the true class is clamped at 1e-12 before the
    log; for softmax outputs the logit gradient is (p - onehot) / N.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n = p.shape[0]
    picked = np.clip(p[np.arange(n), y], 1e-12, None)
    loss = float(-np.log(picked).mean())
    grad = p.copy()
    grad[np.arange(n), y] -= 1.0
    grad /= n
    return loss, grad


def sgd_step(params, grads, learning_rate, momentum=0.9, velocity=None):
    """Momentum update in place: v <- m*v + grad; param <- param - lr*v.

    Updates the parameter arrays and the velocity in place and returns
    the velocity; pass it back in on the next call. The network names
    the parameters and gradients from the same layers.
    """
    if velocity is None:
        velocity = {k: np.zeros_like(p) for k, p in params.items()}
    for k, p in params.items():
        v = velocity[k]
        v *= momentum
        v += grads[k]
        p -= learning_rate * v
    return velocity
