"""Efficient convolutional building blocks.

Partial convolution (pconv) applies a k x k convolution to the first c_p of
c channels and passes the remaining c - c_p through untouched, so its cost
falls with the square of the partial ratio p = c_p / c relative to a full
convolution over the same map. Pointwise convolution (pwconv) is per-pixel
channel mixing, a 1x1 `conv2d`; pconv runs `conv2d` on a channel slice. A
FasterNet block chains pconv -> pwconv (expand) -> BN -> relu -> pwconv
(project) around an identity skip:

    out = x + pw2(relu(bn(pw1(pconv(x)))))

`layers.FasterNetBlock` holds the parameters in its part layers `pconv`,
`pw1`, `bn1` and `pw2`. `fasternet_block_forward` and `fasternet_block_grad`
run the kernels on them over maps the block owns, and alone decide which
maps are kept, rebuilt or overwritten. ReLU runs in place on bn1's output;
the skip is added into pw2's output, and its gradient into the pconv branch's.

pconv convolves x's first c_p channels and concatenates the other c - c_p
after them, unchanged; its backward concatenates the convolved channels'
input gradient with grad_out's other channels. A map is written in place
only where that lowers a workload's peak memory. An eval forward keeps
nothing; its peak is pw1's output and bn1's, four maps of x's size at the
default expansion e = 2.

A training forward caches x (the caller's), pconv's c_p convolved channels
of t0 = pconv(x) (the rest are x's own), t1 = pw1(t0) and bn1's batch
statistics: one hidden-width map. The backward consumes that cache. It
centres t1 once, in place, rebuilds t3 = relu(bn1(t1)) from it by one
scale, one shift and `np.maximum`, and t0 by concatenating the convolved
channels with x's others, both equal to the forward's maps bit for bit,
and reads the relu mask from t3 before pw2's backward. pw2 and bn1 write
their input gradients into t3 and the centred t1, which nothing reads
afterwards, unless that would round them (`exact_out`). The caller's x
and grad_out are never written.

Initialization draws weights from uniform [-sqrt(6/fan_in), +sqrt(6/fan_in)]
with fan_in = c_in * k^2; biases start at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import ValidationError
from .tensor_ops import (
    ConvSpec,
    Tensor4,
    as_tensor4,
    batchnorm,
    batchnorm_grad,
    conv2d,
    conv2d_grad,
    exact_out,
    relu,
    residual_add,
)


@dataclass(frozen=True)
class PConvSpec:
    """Partial convolution over the first c_p of c channels.

    k must be odd; padding (k-1)/2 preserves the spatial extent. No bias.
    """

    c: int
    c_p: int
    k: int = 3

    def __post_init__(self):
        if self.c < 1:
            raise ValidationError(f"PConvSpec.c must be >= 1, got {self.c}")
        if not 1 <= self.c_p <= self.c:
            raise ValidationError(f"PConvSpec.c_p must satisfy 1 <= c_p <= c, got c_p={self.c_p} c={self.c}")
        if self.k < 1 or self.k % 2 == 0:
            raise ValidationError(f"PConvSpec.k must be odd and >= 1, got {self.k}")

    @property
    def padding(self) -> int:
        return (self.k - 1) // 2

    @property
    def partial_ratio(self) -> float:
        """p = c_p / c; the FLOPs reduction factor vs a full conv is p**2."""
        return self.c_p / self.c

    def conv_spec(self) -> ConvSpec:
        return ConvSpec(c_in=self.c_p, c_out=self.c_p, k=self.k, stride=1, padding=self.padding)


@dataclass(frozen=True)
class PWConvSpec:
    """Pointwise (1x1) convolution: per-pixel linear map over channels."""

    c_in: int
    c_out: int

    def __post_init__(self):
        if self.c_in < 1 or self.c_out < 1:
            raise ValidationError("PWConvSpec channel counts must be >= 1")


def pconv(x: Tensor4, weights: np.ndarray, spec: PConvSpec) -> Tensor4:
    """Convolve channels [0, c_p); concatenate channels [c_p, c) after them bit-identically."""
    x = as_tensor4(x)
    if x.shape[1] != spec.c:
        raise ValidationError(f"input channel dim {x.shape[1]} does not match PConvSpec.c {spec.c}")
    return np.concatenate([conv2d(x[:, : spec.c_p], weights, None, spec.conv_spec()), x[:, spec.c_p :]], axis=1)


def pconv_grad(
    x: Tensor4, weights: np.ndarray, spec: PConvSpec, grad_out: Tensor4
) -> tuple[Tensor4, np.ndarray]:
    """Backward of pconv: the convolved channels' gradient, then grad_out's
    pass-through channels unchanged."""
    x = as_tensor4(x)
    if grad_out.shape != x.shape:
        raise ValidationError(f"grad_out shape {grad_out.shape} != input shape {x.shape}")
    c_p = spec.c_p
    grad_x, gw, _ = conv2d_grad(x[:, :c_p], weights, spec.conv_spec(), grad_out[:, :c_p])
    return np.concatenate([grad_x, grad_out[:, c_p:]], axis=1), gw


def _as_1x1(weights: np.ndarray) -> tuple[np.ndarray, ConvSpec]:
    """Pointwise (c_out, c_in) weights as a 1x1 `conv2d` kernel and its spec."""
    if weights.ndim != 2:
        raise ValidationError(f"pwconv weights must be 2-D (c_out, c_in), got shape {weights.shape}")
    return weights[:, :, None, None], ConvSpec(weights.shape[1], weights.shape[0], 1)


def pwconv(x: Tensor4, weights: np.ndarray, bias: np.ndarray | None) -> Tensor4:
    """Per-pixel channel mixing: out[n,o,h,w] = sum_i w[o,i] * x[n,i,h,w] + b[o]."""
    kernel, spec = _as_1x1(weights)
    return conv2d(x, kernel, bias, spec)


def pwconv_grad(
    x: Tensor4, weights: np.ndarray, grad_out: Tensor4, out: Tensor4 | None = None
) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    """Gradients of sum(grad_out * pwconv(x, w, b)) w.r.t. x, w, b; grad_x goes into `out` as in `conv2d_grad`."""
    kernel, spec = _as_1x1(weights)
    grad_x, grad_kernel, grad_b = conv2d_grad(x, kernel, spec, grad_out, out=out)
    return grad_x, grad_kernel[:, :, 0, 0], grad_b


@dataclass(frozen=True)
class FasterNetBlockSpec:
    """Channel count c, partial width c_p, pconv kernel k, expansion e."""

    c: int
    c_p: int
    k: int = 3
    e: int = 2

    def __post_init__(self):
        PConvSpec(self.c, self.c_p, self.k)  # reuse its range checks
        if self.e < 1:
            raise ValidationError(f"FasterNetBlockSpec.e must be >= 1, got {self.e}")

    def pconv_spec(self) -> PConvSpec:
        return PConvSpec(self.c, self.c_p, self.k)

    @property
    def hidden(self) -> int:
        return self.e * self.c


def fasternet_block_forward(block, x: Tensor4, training: bool = True) -> Tensor4:
    """out = x + pw2(relu(bn1(pw1(pconv(x))))) with a `layers.FasterNetBlock`'s parameters and cache."""
    c_p, bn = block.spec.c_p, block.bn1.bn
    t0 = pconv(x, block.pconv.weight, block.pconv.spec)
    t1 = pwconv(t0, block.pw1.weight, block.pw1.bias)
    convolved = t0[:, :c_p].copy() if training else None  # the rest of t0 is x's own
    del t0  # freed before bn1 allocates its output
    t2, mean, var = batchnorm(t1, bn, training)
    block._cache = (x, convolved, t1, mean, var) if training else None
    del t1
    t4 = pwconv(relu(t2, out=t2), block.pw2.weight, block.pw2.bias)
    return residual_add(x, t4, out=t4)


def fasternet_block_grad(block, grad_out: Tensor4) -> Tensor4:
    """Backward of the block: consumes its cache, sets its grads under its
    params() keys and returns grad_x. pw2's input is rebuilt from t1 and
    pw1's from x; pw2 and bn1 write their input gradients into their inputs.
    """
    x, convolved, t1, mean, var = block._take()
    c_p, bn = block.spec.c_p, block.bn1.bn
    # t1 is centred once, in place unless that would round bn1's input gradient.
    dtype = np.result_type(t1, grad_out, block.pw2.weight, bn.gamma)
    t1 = np.subtract(t1, mean[None, :, None, None], out=exact_out(t1, dtype), dtype=dtype)
    t3 = t1 * (bn.gamma / np.sqrt(var + bn.eps))[None, :, None, None]
    t3 += bn.beta[None, :, None, None]
    np.maximum(t3, 0.0, out=t3)  # relu(bn1(t1)), as the forward made it
    mask = t3 > 0  # relu's backward; relu(t2) > 0 exactly where t2 > 0
    grad, gw2, gb2 = pwconv_grad(t3, block.pw2.weight, grad_out, out=exact_out(t3, grad_out, block.pw2.weight))
    grad *= mask
    del t3, mask
    grad, ggamma, gbeta = batchnorm_grad(t1, bn, var, grad)
    del t1
    t0 = np.concatenate([convolved, x[:, c_p:]], axis=1)  # pconv(x), as the forward made it
    del convolved
    grad, gw1, gb1 = pwconv_grad(t0, block.pw1.weight, grad)
    del t0
    grad, gpc = pconv_grad(x, block.pconv.weight, block.pconv.spec, grad)
    grad += grad_out  # the skip's gradient
    block._grads = dict(zip(block.params(), (gpc, gw1, gb1, ggamma, gbeta, gw2, gb2)))
    return grad


def _uniform_fan_in(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """U[-sqrt(6/fan_in), +sqrt(6/fan_in)] with fan_in = prod(shape[1:])."""
    bound = np.sqrt(6.0 / prod(shape[1:]))
    return rng.uniform(-bound, bound, size=shape)


def init_params(spec, seed_or_rng=0):
    """Deterministically initialize parameters for a layer spec.

    The one initializer: each weighted layer's constructor draws its
    parameters here. ConvSpec -> (kernel, bias); PWConvSpec -> (weights,
    bias); PConvSpec -> weights. A FasterNet block's parts draw theirs in
    order from one Generator: pconv, then pw1, then pw2. Weights ~
    U[-sqrt(6/fan_in), +sqrt(6/fan_in)] with fan_in = c_in * k^2; biases zero.
    Accepts an integer seed or an existing numpy Generator, which
    `np.random.default_rng` returns unchanged.
    """
    rng = np.random.default_rng(seed_or_rng)
    if isinstance(spec, ConvSpec):
        return _uniform_fan_in(rng, (spec.c_out, spec.c_in, spec.k, spec.k)), np.zeros(spec.c_out)
    if isinstance(spec, PWConvSpec):
        return _uniform_fan_in(rng, (spec.c_out, spec.c_in)), np.zeros(spec.c_out)
    if isinstance(spec, PConvSpec):
        return _uniform_fan_in(rng, (spec.c_p, spec.c_p, spec.k, spec.k))
    raise ValidationError(f"init_params does not know spec type {type(spec).__name__}")
