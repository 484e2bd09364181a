"""Normalization-based attention: gates derived from batch-norm scale factors.

The weight of unit i is |gamma_i| / sum_j |gamma_j|, so units whose BN scale
survived training largest get the strongest gates, with no extra fully
connected or pooling machinery. The channel module normalizes over channels;
the spatial module is a reshape around it that folds (h, w) into the channel
axis, making each pixel position a unit with statistics over batch x channel.

Each function runs on its gate layer (`layers.NAMChannel`, `layers.NAMSpatial`)
with the `BNParams` the layer holds as `gate.bn`, and gates the raw input:

    out = x * sigmoid(w ⊙ BN(x)) = x / (1 + exp(z)),    z = -w ⊙ BN(x)

z is the batch norm of x with gamma and beta scaled by -w: one `batchnorm`
call in both modes, on the batch statistics in training (folding them into
gate.bn's running ones) and on the running ones in eval. exp and add one
follow in z's buffer, of dtype `np.result_type(x, gamma)`. Eval then divides
x by it there, five passes in all; training turns it into the squashed gate
s = 1 / (1 + exp(z)), caches (x, s, mean, var) on the gate, x being the
caller's, and writes x * s to one more buffer. BN(x) is neither kept nor
rebuilt by the backward; w is recomputed from gamma. Where exp overflows,
x / inf = ±0 is the limit. The gate reports the 8 MACs per element of
`kinds`, batch norm's 2 and its own 6, and is within a relative 1e-14 of
the composition above where |w ⊙ BN(x)| <= 10 (see the tests).

The backward is batch norm's, run on dg = (1 - s) * s * grad_out * x with
the BN scale gamma * w, plus grad_out * s. With xhat = (x - mean) /
sqrt(var + eps), the two per-unit sums `tensor_ops.batchnorm_grad` returns
as its scale and shift gradients, S1 = sum(dg * xhat) and S0 = sum(dg), give

    dw = gamma * S1 + beta * S0      (dw = sum(dg * BN(x)))
    dgamma_bn = w * S1,  dbeta = w * S0

It builds dg in one new buffer and grad_out * s in s, and centres x once,
into the cached x when `build_model` has marked the gate `in_place`
(nothing else holds its input) and x has grad_x's dtype, else into a
second new buffer; `batchnorm_grad` turns that centred map into grad_x. It
consumes the gate's cache, so a second backward needs a new training
forward, checks that grad_out has the forward input's shape, and sets the
gate's grads under its params() keys. The forward never writes x.

The gamma gradient flows through both the normalization and the weight
vector, so the whole module is exactly differentiable.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .tensor_ops import Tensor4, as_tensor4, batchnorm, batchnorm_grad, exact_out, record_macs


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


def _gate_forward(gate, x: Tensor4, units: tuple, training: bool) -> Tensor4:
    """The gate on x, read in `units`, its (n, units, h, w) BN layout: cached in training."""
    bn = gate.bn
    w = nam_weights(bn.gamma)  # first: an all-zero gamma raises before batchnorm moves the running statistics
    u = x.reshape(units)
    # z = -w ⊙ BN(x); the replaced params share bn's running statistics, which a training call updates.
    z, mean, var = batchnorm(u, replace(bn, gamma=-w * bn.gamma, beta=-w * bn.beta), training)
    with np.errstate(over="ignore"):  # exp(+big) = inf, and x / inf = ±0 is the gate's limit
        np.exp(z, out=z)
    z += 1.0
    record_macs(6 * u.size)
    if not training:
        gate._cache = None
        return np.divide(u, z, out=z).reshape(x.shape)
    s = np.divide(1.0, z, out=z)
    gate._cache = (x, s, mean, var)
    return np.multiply(u, s).reshape(x.shape)


def _gate_backward(gate, grad_out: Tensor4) -> Tensor4:
    """Backward of _gate_forward: consumes the gate's cache, sets its grads
    and returns grad_x, written into the cached x if the gate may (`in_place`)."""
    shape = gate._cached()[0].shape
    if grad_out.shape != shape:
        raise ValidationError(f"grad_out shape {grad_out.shape} != input shape {shape}")
    x, s, mean, var = gate._take()
    x, grad_out = x.reshape(s.shape), grad_out.reshape(s.shape)
    bn = gate.bn
    w = nam_weights(bn.gamma)  # the forward's weights: gamma has not changed since
    dg = np.subtract(1.0, s, out=np.empty(x.shape, np.result_type(grad_out, x, s)))
    dg *= s
    dg *= grad_out
    dg *= x
    direct = np.multiply(grad_out, s, out=exact_out(s, grad_out, s))
    dtype = np.result_type(x, dg, bn.gamma)
    xc = np.subtract(x, mean[None, :, None, None], out=exact_out(x, dtype) if gate.in_place else None, dtype=dtype)
    # dg through BN with scale gamma * w; the two sums come back as its scale and shift gradients.
    grad_x, sum_dg_xhat, sum_dg = batchnorm_grad(xc, replace(bn, gamma=bn.gamma * w), var, dg)
    dw = bn.gamma * sum_dg_xhat + bn.beta * sum_dg
    # w_i = |gamma_i| / S differentiates to sign(gamma_j) * (delta_ij - w_i) / S.
    dgamma_w = np.sign(bn.gamma) * (dw - np.dot(w, dw)) / np.abs(bn.gamma).sum()
    gate._grads = dict(zip(gate.params(), (w * sum_dg_xhat + dgamma_w, w * sum_dg)))
    grad_x += direct
    return grad_x.reshape(shape)


def nam_channel_forward(gate, x: Tensor4, training: bool = True) -> Tensor4:
    """Channel gate out = x * sigmoid(w_c * BN(x)) with a `layers.NAMChannel`'s parameters and cache."""
    x = as_tensor4(x)
    if x.shape[1] != gate.bn.channels:
        raise ValidationError(f"input channel dim {x.shape[1]} does not match NAM channels {gate.bn.channels}")
    return _gate_forward(gate, x, x.shape, training)


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
    return _gate_forward(gate, x, (n * c, h * w, 1, 1), training)


def nam_spatial_grad(gate, grad_out: Tensor4) -> Tensor4:
    return _gate_backward(gate, grad_out)
