"""Normalization-based attention: gates derived from batch-norm scale factors.

The weight of unit i is |gamma_i| / sum_j |gamma_j|, so units whose BN scale
survived training largest get the strongest gates, with no extra fully
connected or pooling machinery. The channel module normalizes over channels;
the spatial module treats every pixel position as a unit by folding (h, w)
into the channel axis and sharing statistics over batch x channel.

Each gate takes the `BNParams` its layer holds as `self.bn` (`layers.NAMChannel`,
`layers.NAMSpatial`) and gates the raw input:

    out = x * sigmoid(w ⊙ BN(x))

A training forward computes this in the BN output's buffer, which it owns:
it scales BN(x) by w and squashes it there, keeps the squashed gate s for
the backward and writes its output to one more buffer. BN(x) is not kept:
the backward rebuilds it from x and the cached batch statistics with the
forward's own operations (`batchnorm_rebuild`), so its results are those of
a kept copy.

An eval forward normalizes with the running statistics, so its gate is a
fixed per-unit affine map of x followed by the squash. With
scale = gamma / sqrt(var + eps), a = w * scale and b = w * (beta - mean * scale):

    out = x * sigmoid(a ⊙ x + b) = x / (1 + exp(-(a ⊙ x + b)))

It runs in one buffer of dtype `np.result_type(x, gamma)`, in five passes:
multiply, add, exp, add one, divide. Where exp overflows, x / inf = ±0 is
the limit. It reports the 8 MACs per element that `kinds` gives the gate.
Its rounding differs from the composition above, within a relative 1e-14
where |a ⊙ x + b| <= 10 (see the tests).

The gate layers consume their cache in backward, so a second backward needs
a new training forward. The forward never writes x. The backward writes
into the cached x and s only when `in_place` is passed, which a layer does
when `build_model` has marked it because nothing else holds its input:
batch norm's input gradient then goes into x, and grad_out * s into s. The
functional forms default to leaving both alone.

The gamma gradient flows through both the normalization and the weight
vector, so the whole module is exactly differentiable.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .tensor_ops import (
    BNParams,
    Tensor4,
    as_tensor4,
    batchnorm,
    batchnorm_grad,
    batchnorm_rebuild,
    elementwise_mul,
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


def _nam_forward(x: Tensor4, bn: BNParams, training: bool):
    """Shared gating pipeline on an (n, units, h, w) tensor; no cache when not training."""
    if not training:
        return _nam_eval(x, bn), None
    y, mean, var = batchnorm(x, bn, training)
    w = nam_weights(bn.gamma)
    g = elementwise_mul(y, w[None, :, None, None], out=y)
    s = sigmoid(g, out=g)
    return elementwise_mul(x, s), (x, w, s, mean, var)


def _nam_eval(x: Tensor4, bn: BNParams) -> Tensor4:
    """The eval gate folded into x / (1 + exp(-(a ⊙ x + b))), in one new buffer."""
    scale = bn.gamma / np.sqrt(bn.running_var + bn.eps)
    w = nam_weights(bn.gamma)
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


def _nam_backward(cache, bn: BNParams, grad_out: Tensor4, in_place: bool = False):
    """Backward of _nam_forward. Returns (grad_x, grad_gamma, grad_beta).

    in_place: the cached x and s are the caller's to overwrite; batch norm's
    input gradient is then written into x, and grad_out * s into s.
    """
    x, w, s, mean, var = cache
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
    own = in_place and x.dtype == s.dtype == dtype  # writing into x or s must not round
    dx_bn, dgamma, dbeta = batchnorm_grad(x, bn, mean, var, dg, out=x if own else None)
    # w_i = |gamma_i| / S differentiates to sign(gamma_j) * (delta_ij - w_i) / S.
    total = np.abs(bn.gamma).sum()
    dgamma_w = np.sign(bn.gamma) * (dw - np.dot(w, dw)) / total
    dx_bn += np.multiply(grad_out, s, out=s if own else dg)
    return dx_bn, dgamma + dgamma_w, dbeta


def nam_channel_forward(x: Tensor4, bn: BNParams, training: bool = True):
    """Channel gate out = x * sigmoid(w_c * BN(x)) and its backward cache; None when not training."""
    x = as_tensor4(x)
    if x.shape[1] != bn.channels:
        raise ValidationError(f"input channel dim {x.shape[1]} does not match NAM channels {bn.channels}")
    return _nam_forward(x, bn, training)


def nam_channel_grad(cache, bn: BNParams, grad_out: Tensor4, in_place: bool = False):
    return _nam_backward(cache, bn, grad_out, in_place)


def nam_spatial_forward(x: Tensor4, bn: BNParams, training: bool = True):
    """Spatial gate: each of the h*w positions is a BN unit, statistics over batch x channel."""
    x = as_tensor4(x)
    n, c, h, w = x.shape
    if h * w != bn.channels:
        raise ValidationError(f"input map {h}x{w} has {h * w} positions, NAM spatial BN has {bn.channels}")
    xt = x.reshape(n * c, h * w, 1, 1)
    out, cache = _nam_forward(xt, bn, training)
    return out.reshape(n, c, h, w), (cache, (n, c, h, w)) if training else None


def nam_spatial_grad(cache, bn: BNParams, grad_out: Tensor4, in_place: bool = False):
    inner, (n, c, h, w) = cache
    gt = grad_out.reshape(n * c, h * w, 1, 1)
    gx, dgamma, dbeta = _nam_backward(inner, bn, gt, in_place)
    return gx.reshape(n, c, h, w), dgamma, dbeta
