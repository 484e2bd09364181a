"""Rank-4 tensor kernels: 2-D convolution, batch normalization, activations.

Tensors are plain numpy arrays of shape (n, c, h, w), C-contiguous float64
unless the caller chooses otherwise. Every operation here is a pure function
of its arguments; exact analytic backward passes live next to each forward.

Convolution is cross-correlation (no kernel flip) with zero padding and an
integer stride, so a k=1 convolution with weight w scales the input by w.
Output spatial dims must satisfy (h + 2p - k) / s + 1 exactly; anything else
is a validation error rather than a silent floor.

Multiply-accumulate counting: within a `count_macs()` block every forward op
reports the work it actually performed, derived from the operand shapes at
the call site (one MAC = one FLOP, bias adds excluded for conv, 2/element for
batch norm, 1/element for relu and elementwise multiply/add, 4/element for
sigmoid). This is the measured side of the two-route cost check; the
closed-form side lives in `complexity`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError

# A rank-4 (n, c, h, w) array. Kept as an alias: the library treats numpy as
# the tensor substrate rather than wrapping it.
Tensor4 = np.ndarray

_counters: ContextVar[tuple["MacCounter", ...]] = ContextVar(
    "fastblocks_mac_counters", default=()
)


class MacCounter:
    """Accumulates multiply-accumulate counts reported by executing ops."""

    __slots__ = ("macs",)

    def __init__(self) -> None:
        self.macs = 0

    def add(self, n: int) -> None:
        self.macs += int(n)


@contextmanager
def count_macs():
    """Context manager yielding a MacCounter fed by every op run inside it.

    Nested counters each see the ops executed in their own scope.
    """
    counter = MacCounter()
    token = _counters.set(_counters.get() + (counter,))
    try:
        yield counter
    finally:
        _counters.reset(token)


def record_macs(n: int) -> None:
    """Report `n` multiply-accumulates to all active counters."""
    active = _counters.get()
    if active:
        for counter in active:
            counter.add(n)


def as_tensor4(x, name: str = "input") -> Tensor4:
    """Validate that `x` is a rank-4 array with all dims >= 1."""
    arr = np.asarray(x)
    if arr.ndim != 4:
        raise ValidationError(f"{name} must have rank 4 (n, c, h, w), got rank {arr.ndim}")
    if min(arr.shape) < 1:
        raise ValidationError(f"{name} has an empty dimension: shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class ConvSpec:
    """Static description of a 2-D convolution.

    k is the square kernel size; stride and padding are symmetric.
    """

    c_in: int
    c_out: int
    k: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        for attr in ("c_in", "c_out", "k", "stride"):
            if getattr(self, attr) < 1:
                raise ValidationError(f"ConvSpec.{attr} must be >= 1, got {getattr(self, attr)}")
        if self.padding < 0:
            raise ValidationError(f"ConvSpec.padding must be >= 0, got {self.padding}")

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        """Exact output spatial dims; raises if the division is not integral."""
        out = []
        for name, size in (("height", h), ("width", w)):
            span = size + 2 * self.padding - self.k
            if span < 0 or span % self.stride != 0:
                raise ValidationError(
                    f"conv output {name} is not a positive integer: "
                    f"({size} + 2*{self.padding} - {self.k}) / {self.stride} + 1"
                )
            out.append(span // self.stride + 1)
        return out[0], out[1]


@dataclass
class BNParams:
    """Learnable scale/shift plus running statistics for batch norm.

    All four vectors have one entry per normalized unit (channels for the
    standard layout). `running_var` must be nonnegative and eps positive.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5

    # Weight of the newest training batch in the running statistics.
    momentum = 0.1

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        self.running_mean = np.asarray(self.running_mean, dtype=np.float64)
        self.running_var = np.asarray(self.running_var, dtype=np.float64)
        c = self.gamma.shape
        for name in ("beta", "running_mean", "running_var"):
            if getattr(self, name).shape != c:
                raise ValidationError(f"BNParams.{name} shape {getattr(self, name).shape} != gamma shape {c}")
        if self.gamma.ndim != 1:
            raise ValidationError("BNParams vectors must be 1-D")
        if np.any(self.running_var < 0):
            raise ValidationError("BNParams.running_var must be nonnegative")
        if not self.eps > 0:
            raise ValidationError(f"BNParams.eps must be positive, got {self.eps}")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def update_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Fold one training batch's mean and variance into the running stats."""
        m = self.momentum
        self.running_mean *= 1.0 - m
        self.running_mean += m * mean
        self.running_var *= 1.0 - m
        self.running_var += m * var

    @classmethod
    def identity(cls, channels: int, eps: float = 1e-5) -> "BNParams":
        """gamma=1, beta=0, running stats (0, 1): the standard initialization."""
        return cls(
            gamma=np.ones(channels),
            beta=np.zeros(channels),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
            eps=eps,
        )


def _check_conv_args(x: Tensor4, kernel: np.ndarray, bias, spec: ConvSpec):
    x = as_tensor4(x)
    if x.shape[1] != spec.c_in:
        raise ValidationError(
            f"input channel dim {x.shape[1]} does not match ConvSpec.c_in {spec.c_in}"
        )
    expect = (spec.c_out, spec.c_in, spec.k, spec.k)
    if kernel.shape != expect:
        raise ValidationError(f"kernel shape {kernel.shape} != expected {expect}")
    if bias is not None and bias.shape != (spec.c_out,):
        raise ValidationError(f"bias shape {bias.shape} != ({spec.c_out},)")
    return x


def _windows(x: Tensor4, spec: ConvSpec, h_out: int, w_out: int) -> np.ndarray:
    """Strided (n, c_in, h_out, w_out, k, k) view over the zero-padded input."""
    p, s = spec.padding, spec.stride
    if p:
        x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = sliding_window_view(x, (spec.k, spec.k), axis=(2, 3))
    return win[:, :, ::s, ::s]


def conv2d(x: Tensor4, kernel: np.ndarray, bias: np.ndarray | None, spec: ConvSpec) -> Tensor4:
    """2-D cross-correlation with zero padding and integer stride.

    x: (n, c_in, h, w); kernel: (c_out, c_in, k, k); bias: (c_out,) or None.
    Returns (n, c_out, h_out, w_out).
    """
    x = _check_conv_args(x, kernel, bias, spec)
    n, _, h, w = x.shape
    h_out, w_out = spec.out_hw(h, w)
    win = _windows(x, spec, h_out, w_out)
    out = np.einsum("oiab,nihwab->nohw", kernel, win, optimize=True)
    record_macs(n * h_out * w_out * kernel.size)
    if bias is not None:
        out = out + bias[None, :, None, None]
    return out


def conv2d_grad(
    x: Tensor4, kernel: np.ndarray, spec: ConvSpec, grad_out: Tensor4
) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    """Gradients of sum(grad_out * conv2d(x, ...)) w.r.t. input, kernel, bias."""
    x = _check_conv_args(x, kernel, None, spec)
    n, _, h, w = x.shape
    h_out, w_out = spec.out_hw(h, w)
    if grad_out.shape != (n, spec.c_out, h_out, w_out):
        raise ValidationError(
            f"grad_out shape {grad_out.shape} != expected {(n, spec.c_out, h_out, w_out)}"
        )
    win = _windows(x, spec, h_out, w_out)
    grad_kernel = np.einsum("nohw,nihwab->oiab", grad_out, win, optimize=True)
    grad_bias = grad_out.sum(axis=(0, 2, 3))

    # Scatter the per-window gradients back onto the padded input plane.
    p, s, k = spec.padding, spec.stride, spec.k
    dwin = np.einsum("nohw,oiab->nihwab", grad_out, kernel, optimize=True)
    dxp = np.zeros((n, spec.c_in, h + 2 * p, w + 2 * p), dtype=np.float64)
    for a in range(k):
        for b in range(k):
            dxp[:, :, a : a + s * h_out : s, b : b + s * w_out : s] += dwin[:, :, :, :, a, b]
    grad_x = dxp[:, :, p : p + h, p : p + w] if p else dxp
    return grad_x, grad_kernel, grad_bias


def batchnorm(
    x: Tensor4, params: BNParams, training: bool
) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    """Per-channel batch normalization: gamma * (x - mu) / sqrt(var + eps) + beta.

    Training mode computes mu/var over (n, h, w) per channel with the
    population divisor n*h*w; eval mode consumes the running statistics.
    Returns (out, mean, var) where mean/var are the statistics actually used.
    Pure: running stats are not updated here (see layers.BatchNorm).
    """
    x = as_tensor4(x)
    if x.shape[1] != params.channels:
        raise ValidationError(
            f"input channel dim {x.shape[1]} does not match BNParams channels {params.channels}"
        )
    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
    else:
        mean = params.running_mean.copy()
        var = params.running_var.copy()
    inv = 1.0 / np.sqrt(var + params.eps)
    xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
    out = params.gamma[None, :, None, None] * xhat + params.beta[None, :, None, None]
    record_macs(2 * x.size)
    return out, mean, var


def batchnorm_grad(
    x: Tensor4,
    params: BNParams,
    batch_mean: np.ndarray,
    batch_var: np.ndarray,
    grad_out: Tensor4,
) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    """Training-mode batch norm backward, differentiating through the batch stats.

    batch_mean/batch_var must be the values returned by the forward pass.
    Returns (grad_x, grad_gamma, grad_beta).
    """
    x = as_tensor4(x)
    if grad_out.shape != x.shape:
        raise ValidationError(f"grad_out shape {grad_out.shape} != input shape {x.shape}")
    n, c, h, w = x.shape
    m = n * h * w
    inv = 1.0 / np.sqrt(batch_var + params.eps)
    xhat = (x - batch_mean[None, :, None, None]) * inv[None, :, None, None]
    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    dxhat = grad_out * params.gamma[None, :, None, None]
    grad_x = (inv[None, :, None, None] / m) * (
        m * dxhat
        - dxhat.sum(axis=(0, 2, 3))[None, :, None, None]
        - xhat * (dxhat * xhat).sum(axis=(0, 2, 3))[None, :, None, None]
    )
    return grad_x, grad_gamma, grad_beta


def batchnorm_grad_eval(
    x: Tensor4, params: BNParams, grad_out: Tensor4
) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    """Eval-mode backward: running stats are constants, so BN is a plain affine map."""
    inv = 1.0 / np.sqrt(params.running_var + params.eps)
    xhat = (x - params.running_mean[None, :, None, None]) * inv[None, :, None, None]
    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    grad_x = grad_out * (params.gamma * inv)[None, :, None, None]
    return grad_x, grad_gamma, grad_beta


def relu(x: np.ndarray) -> np.ndarray:
    """max(x, 0)."""
    record_macs(x.size)
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Subgradient convention: slope 0 at x <= 0."""
    return grad_out * (x > 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic; counted as 4 FLOPs per element."""
    record_macs(4 * x.size)
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def elementwise_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hadamard product, counted as 1 MAC per output element."""
    out = a * b
    record_macs(out.size)
    return out


def residual_add(a: Tensor4, b: Tensor4) -> Tensor4:
    """Shape-checked skip-connection add, counted as 1 FLOP per element."""
    if a.shape != b.shape:
        raise ValidationError(f"residual add shape mismatch: {a.shape} vs {b.shape}")
    record_macs(a.size)
    return a + b
