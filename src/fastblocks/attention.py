"""Normalization-based attention: gates derived from batch-norm scale factors.

The weight of unit i is |gamma_i| / sum_j |gamma_j|, so units whose BN scale
survived training largest get the strongest gates, with no extra fully
connected or pooling machinery. The channel module normalizes over channels;
the spatial module is a reshape around it that folds (h, w) into the channel
axis, making each pixel position a unit with statistics over batch x channel.

Each function runs on its gate layer (`layers.NAMChannel`, `layers.NAMSpatial`)
with the `BNParams` the layer holds as `gate.bn`, and gates the raw input:

    out = x * sigmoid(w ⊙ BN(x))

A training forward computes this in the BN output's buffer, which it owns:
it scales BN(x) by w and squashes it there, caches (x, s, mean, var) on the
gate, s being the squashed gate, and writes its output to one more buffer.
BN(x) is not kept: the backward rebuilds it from x and the cached batch
statistics with the forward's own operations (`batchnorm_rebuild`), and w
from gamma, so its results are those of kept copies.

An eval forward normalizes with the running statistics, so its gate is a
fixed per-unit affine map of x followed by the squash. With
scale = gamma / sqrt(var + eps), a = w * scale and b = w * (beta - mean * scale):

    out = x * sigmoid(a ⊙ x + b) = x / (1 + exp(-(a ⊙ x + b)))

It runs in one buffer of dtype `np.result_type(x, gamma)`, in five passes:
multiply, add, exp, add one, divide. Where exp overflows, x / inf = ±0 is
the limit. It reports the 8 MACs per element that `kinds` gives the gate.
Its rounding differs from the composition above, within a relative 1e-14
where |a ⊙ x + b| <= 10 (see the tests).

The backward consumes the gate's cache, so a second backward needs a new
training forward, and sets the gate's grads under its params() keys. The
forward never writes x. The backward writes batch norm's input gradient
into the cached x only when `build_model` has marked the gate `in_place`,
because nothing else holds its input, and x has that gradient's dtype.

The gamma gradient flows through both the normalization and the weight
vector, so the whole module is exactly differentiable.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .tensor_ops import (
    Tensor4,
    as_tensor4,
    batchnorm,
    batchnorm_grad,
    batchnorm_rebuild,
    elementwise_mul,
    exact_out,
    record_macs,
    sigmoid,
)


def nam_weights(scales: np.ndarray) -> np.ndarray:
    """Normalized attention weights |s_i| / sum_j |s_j|.

    Nonnegative, sums to 1, invariant to scaling of `scales`. An all-zero
    vector carries no signal and is rejected.
    """
    s = np.abs(np.asarray(scales, dtype=np.float64))
    if s.ndim != 1 or s.size == 0:
        raise ValidationError("nam_weights expects a nonempty 1-D vector")
    total = s.sum()
    if total == 0.0:
        raise DegenerateInputError("nam_weights: all scale factors are zero")
    return s / total


def _gate_forward(gate, x: Tensor4, training: bool) -> Tensor4:
    """The gate on x, its (n, units, h, w) BN input: cached in training, folded in eval."""
    bn = gate.bn
    w = nam_weights(bn.gamma)  # first: an all-zero gamma raises before batchnorm moves the running statistics
    if training:
        y, mean, var = batchnorm(x, bn, training)
        g = elementwise_mul(y, w[None, :, None, None], out=y)
        s = sigmoid(g, out=g)
        gate._cache = (x, s, mean, var)
        return elementwise_mul(x, s)
    gate._cache = None
    scale = bn.gamma / np.sqrt(bn.running_var + bn.eps)
    a = w * scale
    b = w * (bn.beta - bn.running_mean * scale)
    # -(a ⊙ x + b) as (-a) ⊙ x - b: negation is exact, so these are the same values.
    out = np.multiply(x, -a[None, :, None, None], dtype=np.result_type(x, bn.gamma))
    out -= b[None, :, None, None]
    with np.errstate(over="ignore"):  # exp(+big) = inf, and x / inf = ±0 is the gate's limit
        np.exp(out, out=out)
    out += 1.0
    np.divide(x, out, out=out)
    record_macs(8 * x.size)
    return out


def _gate_backward(gate, grad_out: Tensor4) -> Tensor4:
    """Backward of _gate_forward: consumes the gate's cache, sets its grads
    and returns grad_x, written into the cached x if the gate may (`in_place`)."""
    x, s, mean, var = gate._take()
    bn = gate.bn
    w = nam_weights(bn.gamma)  # the forward's weights: gamma has not changed since
    # Owned buffers, evaluated in the order of the formulas
    # dg = grad_out * x * s * (1 - s), dw = sum(dg * y), dy = dg * w and
    # grad_x = grad_out * s + dx_bn, so the results are those of the formulas.
    dtype = np.result_type(grad_out, x, s)
    dg = np.multiply(grad_out, x, out=np.empty(x.shape, dtype))
    dg *= s
    tmp = np.subtract(1.0, s, out=np.empty(x.shape, dtype))
    dg *= tmp
    tmp = batchnorm_rebuild(x, bn, mean, var, out=tmp)  # y = BN(x), as the forward made it
    dw = np.multiply(dg, tmp, out=tmp).sum(axis=(0, 2, 3))
    del tmp  # freed before batch norm's backward allocates its own buffer
    dg *= w[None, :, None, None]
    into_x = exact_out(x, x, dg, bn.gamma) if gate.in_place else None
    dx_bn, dgamma, dbeta = batchnorm_grad(x, bn, mean, var, dg, out=into_x)
    # w_i = |gamma_i| / S differentiates to sign(gamma_j) * (delta_ij - w_i) / S.
    total = np.abs(bn.gamma).sum()
    dgamma_w = np.sign(bn.gamma) * (dw - np.dot(w, dw)) / total
    dx_bn += np.multiply(grad_out, s, out=dg)
    gate._grads = dict(zip(gate.params(), (dgamma + dgamma_w, dbeta)))
    return dx_bn


def nam_channel_forward(gate, x: Tensor4, training: bool = True) -> Tensor4:
    """Channel gate out = x * sigmoid(w_c * BN(x)) with a `layers.NAMChannel`'s parameters and cache."""
    x = as_tensor4(x)
    if x.shape[1] != gate.bn.channels:
        raise ValidationError(f"input channel dim {x.shape[1]} does not match NAM channels {gate.bn.channels}")
    return _gate_forward(gate, x, training)


def nam_channel_grad(gate, grad_out: Tensor4) -> Tensor4:
    return _gate_backward(gate, grad_out)


def nam_spatial_forward(gate, x: Tensor4, training: bool = True) -> Tensor4:
    """Spatial gate of a `layers.NAMSpatial`: each of the h*w positions is a BN unit."""
    x = as_tensor4(x)
    n, c, h, w = x.shape
    if (h, w) != (gate.h, gate.w):
        raise ValidationError(f"input spatial dims {(h, w)} do not match nam_spatial {(gate.h, gate.w)}")
    if h * w != gate.bn.channels:
        raise ValidationError(f"input map {h}x{w} has {h * w} positions, NAM spatial BN has {gate.bn.channels}")
    return _gate_forward(gate, x.reshape(n * c, h * w, 1, 1), training).reshape(x.shape)


def nam_spatial_grad(gate, grad_out: Tensor4) -> Tensor4:
    n, c, h, w = grad_out.shape
    return _gate_backward(gate, grad_out.reshape(n * c, h * w, 1, 1)).reshape(grad_out.shape)
