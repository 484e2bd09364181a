"""Normalization-based attention: gates derived from batch-norm scale factors.

The weight of unit i is |gamma_i| / sum_j |gamma_j|, so units whose BN scale
survived training largest get the strongest gates, with no extra fully
connected or pooling machinery. The channel module normalizes over channels;
the spatial module treats every pixel position as a unit by folding (h, w)
into the channel axis and sharing statistics over batch x channel.

Both modules own their BN parameters and gate the raw input:

    out = x * sigmoid(w ⊙ BN(x))

The gamma gradient flows through both the normalization and the weight
vector, so the whole module is exactly differentiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .tensor_ops import (
    BNParams,
    Tensor4,
    as_tensor4,
    batchnorm,
    batchnorm_grad,
    batchnorm_grad_eval,
    elementwise_mul,
    sigmoid,
)


@dataclass
class NAMChannelParams:
    """Batch-norm parameters over the channel axis."""

    bn: BNParams

    @classmethod
    def identity(cls, channels: int, eps: float = 1e-5) -> "NAMChannelParams":
        return cls(bn=BNParams.identity(channels, eps))


@dataclass
class NAMSpatialParams:
    """Batch-norm parameters over the h*w position axis of an (h, w) map."""

    bn: BNParams
    h: int
    w: int

    def __post_init__(self):
        if self.h < 1 or self.w < 1:
            raise ValidationError("NAMSpatialParams h and w must be >= 1")
        if self.bn.channels != self.h * self.w:
            raise ValidationError(
                f"NAMSpatialParams bn length {self.bn.channels} != h*w = {self.h * self.w}"
            )

    @classmethod
    def identity(cls, h: int, w: int, eps: float = 1e-5) -> "NAMSpatialParams":
        return cls(bn=BNParams.identity(h * w, eps), h=h, w=w)


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
    """Shared gating pipeline on an (n, units, h, w) tensor."""
    y, mean, var = batchnorm(x, bn, training)
    w = nam_weights(bn.gamma)
    g = elementwise_mul(y, w[None, :, None, None])
    s = sigmoid(g)
    out = elementwise_mul(x, s)
    cache = (x, y, w, s, mean, var, training)
    return out, cache


def _nam_backward(cache, bn: BNParams, grad_out: Tensor4):
    """Backward of _nam_forward. Returns (grad_x, grad_gamma, grad_beta)."""
    x, y, w, s, mean, var, training = cache
    ds = grad_out * x
    dg = ds * s * (1.0 - s)
    dy = dg * w[None, :, None, None]
    dw = (dg * y).sum(axis=(0, 2, 3))
    if training:
        dx_bn, dgamma, dbeta = batchnorm_grad(x, bn, mean, var, dy)
    else:
        dx_bn, dgamma, dbeta = batchnorm_grad_eval(x, bn, dy)
    # w_i = |gamma_i| / S differentiates to sign(gamma_j) * (delta_ij - w_i) / S.
    total = np.abs(bn.gamma).sum()
    dgamma_w = np.sign(bn.gamma) * (dw - np.dot(w, dw)) / total
    grad_x = grad_out * s + dx_bn
    return grad_x, dgamma + dgamma_w, dbeta


def nam_channel(x: Tensor4, params: NAMChannelParams, training: bool = True) -> Tensor4:
    """Channel attention: per-channel gates from BN scale factors.

    out[n,c,h,w] = x[n,c,h,w] * sigmoid(w_c * BN(x)[n,c,h,w]).
    """
    return nam_channel_forward(x, params, training)[0]


def nam_spatial(x: Tensor4, params: NAMSpatialParams, training: bool = True) -> Tensor4:
    """Spatial attention: per-position gates, statistics over batch x channel."""
    return nam_spatial_forward(x, params, training)[0]


def nam_channel_forward(x: Tensor4, params: NAMChannelParams, training: bool = True):
    """nam_channel returning the backward cache."""
    x = as_tensor4(x)
    if x.shape[1] != params.bn.channels:
        raise ValidationError(
            f"input channel dim {x.shape[1]} does not match NAM channels {params.bn.channels}"
        )
    return _nam_forward(x, params.bn, training)


def nam_channel_grad(cache, params: NAMChannelParams, grad_out: Tensor4):
    return _nam_backward(cache, params.bn, grad_out)


def nam_spatial_forward(x: Tensor4, params: NAMSpatialParams, training: bool = True):
    x = as_tensor4(x)
    n, c, h, w = x.shape
    if (h, w) != (params.h, params.w):
        raise ValidationError(
            f"input spatial dims {(h, w)} do not match NAMSpatialParams {(params.h, params.w)}"
        )
    xt = x.reshape(n * c, h * w, 1, 1)
    out, cache = _nam_forward(xt, params.bn, training)
    return out.reshape(n, c, h, w), (cache, (n, c, h, w))


def nam_spatial_grad(cache, params: NAMSpatialParams, grad_out: Tensor4):
    inner, (n, c, h, w) = cache
    gt = grad_out.reshape(n * c, h * w, 1, 1)
    gx, dgamma, dbeta = _nam_backward(inner, params.bn, gt)
    return gx.reshape(n, c, h, w), dgamma, dbeta
