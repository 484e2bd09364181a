"""Rank-4 tensor kernels: 2-D convolution, batch normalization, activations.

Tensors are plain numpy arrays of shape (n, c, h, w), C-contiguous float64
unless the caller chooses otherwise. Every operation here is a pure function
of its arguments, except that a training `batchnorm` updates the running
statistics in its `BNParams`. Exact backward passes live next to each forward.

Convolution is cross-correlation (no kernel flip) with zero padding and an
integer stride, so a k=1 convolution with weight w scales the input by w.
Output spatial dims must satisfy (h + 2p - k) / s + 1 exactly; anything else
is a validation error rather than a silent floor. `conv2d`, the one
convolution kernel (pconv and pwconv delegate to it), is a matmul over the
im2col matrix of the input, built one tile at a time: a block of output rows
of one sample, or a group of whole samples, holding at most `TILE_BYTES` of
columns, or 16x the weights' bytes when that is more, so that each GEMM
re-reads its weights at most once per 16x their size. Every tile's columns
are copied into one workspace, allocated once per call at the size of the
largest tile, and each tile's GEMM writes straight into the preallocated
output. A 1x1, stride-1, unpadded conv reads x itself as its columns, in one
tile and without a copy.

`conv2d_grad` runs through the same tiles, so it builds no full im2col
matrix or column gradient, and sums the kernel gradient tile by tile. For
stride 1 with p <= k-1 and c_out <= c_in (or k = 1), the input gradient is
a convolution of grad_out with the kernel flipped and its channel axes
swapped at padding k-1-p. Each tile of grad_out's columns then serves both
GEMMs: flipped kernel @ columns is that tile of the input gradient, and x's
pixels @ columns^T its share of the kernel gradient, with every offset
flipped; x gets no im2col. A widening conv (c_out > c_in), whose transposed
columns would be c_out/c_in times the input, and any other stride or
padding tile x's columns for the kernel gradient and run a col2im: each
tile's column gradient W^T @ grad_out is scatter-added onto the padded
input, one kernel offset at a time, or, when k == s and p == 0 and the
windows tile the input, copied back by one reshape. Backward kernels
report no MACs.

Batch norm is memory-bound, so it is written to make few passes over
activation-sized arrays rather than to mirror the formula term by term. A
training forward centres the input once into the output buffer, takes the
variance from that buffer with one einsum, then scales and shifts it in
place. The training backward needs two per-channel reductions, sum(g) and
sum(g * xhat), and rewrites the centred input x - mean, which its caller
makes once in a buffer it owns, into the closed-form input gradient. Eval
mode folds the running statistics into a per-channel scale and shift. Work
buffers take the promoted dtype of the operands (float64 parameters make a
float32 input's output float64) and never alias a caller's array, except
`batchnorm_grad`'s centred input.

Multiply-accumulate counting: within a `count_macs()` block every forward op
reports the work it actually performed, derived from the operand shapes at
the call site (one MAC = one FLOP, bias adds excluded for conv, 2/element for
batch norm, 1/element for relu and elementwise multiply/add, 4/element for
sigmoid). A count is that of the formula, not of the passes that run it:
sigmoid takes 7, and a NAM gate (`attention`) reports in both modes the
8/element that `kinds` gives BN -> * w -> sigmoid -> * x, 2 through its one
batch norm and 6 for its own three or four passes. This is the measured side
of the two-route cost check; the closed-form side lives in `complexity`.

`relu`, `residual_add` and `conv2d_grad` take numpy's `out=`: a caller
that owns a buffer (a map nothing else holds, or a backward's dead input)
can have the result written there instead of allocating, with the values
and MAC report of a new array. Each refuses an `out` of another shape or
dtype than its result's, so that a write never rounds. `relu` and
`residual_add` may write into an operand; `conv2d_grad` may write into `x`
but not into anything overlapping grad_out (see `exact_out`), and
`batchnorm_grad` refuses a centred input it cannot turn into the gradient
in the same way. The other kernels allocate their results.
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


def as_tensor4(x) -> Tensor4:
    """Validate that `x` is a rank-4 array with all dims >= 1."""
    arr = np.asarray(x)
    if arr.ndim != 4:
        raise ValidationError(f"input must have rank 4 (n, c, h, w), got rank {arr.ndim}")
    if min(arr.shape) < 1:
        raise ValidationError(f"input has an empty dimension: shape {arr.shape}")
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
        for name in ("gamma", "beta", "running_mean", "running_var"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, value)
            if value.shape != self.gamma.shape:
                raise ValidationError(f"BNParams.{name} shape {value.shape} != gamma shape {self.gamma.shape}")
        if self.gamma.ndim != 1 or not self.gamma.size:
            raise ValidationError("BNParams vectors must be 1-D and nonempty")
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
    def identity(cls, channels: int) -> "BNParams":
        """gamma=1, beta=0, running stats (0, 1), eps 1e-5: the standard initialization."""
        if channels < 1:
            raise ValidationError(f"batch norm needs at least one unit, got {channels}")
        return cls(
            gamma=np.ones(channels),
            beta=np.zeros(channels),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
        )


def exact_out(buf: np.ndarray, *operands) -> np.ndarray | None:
    """`buf` as a kernel's `out=` if it has the dtype the kernel computes from
    `operands`, so that the write cannot round; else None (the kernel allocates)."""
    return buf if buf.dtype == np.result_type(*operands) else None


def _check_out(name: str, out: np.ndarray | None, shape: tuple, dtype, operand=None, what: str = "") -> None:
    """Refuse a result buffer `out` (`name`) of the wrong shape or dtype, or overlapping `operand` (`what`) if given."""
    if out is None:
        return
    if out.shape != shape or out.dtype != dtype:
        raise ValidationError(f"{name} is {out.dtype}{out.shape}, expected {dtype}{shape}")
    if operand is not None and np.may_share_memory(out, operand):
        raise ValidationError(f"{name} must not overlap {what}")


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


# Bytes of im2col matrix built per conv2d tile, unless 16x the weights is
# more (see conv2d): small enough that a tile is
# still in cache when its GEMM reads it back, instead of a round trip through
# DRAM. Chosen by timing the convs of the 640x640 configs on one core with a
# 2 MB L2: 2-8 MB tiles ran alike, 16 MB and whole matrices ran slower.
TILE_BYTES = 4 * 2**20


def _windows(x: Tensor4, spec: ConvSpec) -> np.ndarray:
    """(n, c_in, k, k, h_out, w_out) view of the padded input: the im2col matrix before its reshape."""
    p, s, k = spec.padding, spec.stride, spec.k
    if p:
        x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    return sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s].transpose(0, 1, 4, 5, 2, 3)


def _tiles(n: int, h_out: int, row_bytes: int, weight_bytes: int):
    """(first sample, end sample, first row, end row) blocks of the output,
    each with at most TILE_BYTES of columns, or 16x the weights' bytes if
    more, as each tile's GEMM re-reads the weights (one output row if a row
    holds more): a block of rows of one sample, or a group of whole samples
    when one sample's columns fit. row_bytes=0 asks for one tile."""
    rows = max(TILE_BYTES, 16 * weight_bytes) // row_bytes if row_bytes else n * h_out
    if rows >= h_out:
        group = rows // h_out
        for s0 in range(0, n, group):
            yield s0, min(s0 + group, n), 0, h_out
    else:
        rows = max(rows, 1)
        for s0 in range(n):
            for r0 in range(0, h_out, rows):
                yield s0, s0 + 1, r0, min(r0 + rows, h_out)


def _column_tiles(x: Tensor4, spec: ConvSpec, weight_bytes: int):
    """(first sample, end sample, first column, end column, cols) for each tile
    of x's im2col matrix, `cols` being that tile's (samples, c_in*k*k,
    output pixels) columns.

    A 1x1, stride-1, unpadded conv's columns are a view of x: one tile, no
    copy. Any other conv is tiled by `_tiles`, and every tile is copied into
    one workspace, which the next tile overwrites: a caller must be done
    with `cols` before it asks for the next tile.
    """
    n, _, h, w = x.shape
    h_out, w_out = spec.out_hw(h, w)
    win = _windows(x, spec)
    view = spec.k == 1 and spec.stride == 1 and spec.padding == 0
    depth = spec.c_in * spec.k * spec.k
    row_bytes = 0 if view else depth * w_out * x.itemsize
    tiles = list(_tiles(n, h_out, row_bytes, weight_bytes))
    if not view:
        workspace = np.empty(max((s1 - s0) * (r1 - r0) for s0, s1, r0, r1 in tiles) * depth * w_out, win.dtype)
    for s0, s1, r0, r1 in tiles:
        cols = win[s0:s1, ..., r0:r1, :]
        if not view:
            np.copyto(workspace[: cols.size].reshape(cols.shape), cols)
            cols = workspace[: cols.size]
        yield s0, s1, r0 * w_out, r1 * w_out, cols.reshape(s1 - s0, depth, (r1 - r0) * w_out)


def conv2d(x: Tensor4, kernel: np.ndarray, bias: np.ndarray | None, spec: ConvSpec) -> Tensor4:
    """2-D cross-correlation with zero padding and integer stride.

    x: (n, c_in, h, w); kernel: (c_out, c_in, k, k); bias: (c_out,) or None.
    Returns a new (n, c_out, h_out, w_out) array of dtype
    `np.result_type(x, kernel, bias)`.
    """
    x = _check_conv_args(x, kernel, bias, spec)
    operands = (x, kernel) if bias is None else (x, kernel, bias)
    dtype = np.result_type(*operands)
    n, _, h, w = x.shape
    h_out, w_out = spec.out_hw(h, w)
    out = np.empty((n, spec.c_out, h_out, w_out), dtype)
    # Each tile's GEMM writes straight into the output, through a view.
    flat, weights = out.reshape(n, spec.c_out, h_out * w_out), kernel.reshape(spec.c_out, -1)
    for s0, s1, c0, c1, cols in _column_tiles(x, spec, weights.nbytes):
        np.matmul(weights, cols, out=flat[s0:s1, :, c0:c1])
    if bias is not None:
        out += bias[None, :, None, None]
    record_macs(n * h_out * w_out * kernel.size)
    return out


def conv2d_grad(
    x: Tensor4, kernel: np.ndarray, spec: ConvSpec, grad_out: Tensor4, out: Tensor4 | None = None
) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    """Gradients of sum(grad_out * conv2d(x, ...)) w.r.t. input, kernel, bias.

    All three have dtype `np.result_type(grad_out, kernel)`; the kernel
    gradient is summed in `np.result_type(grad_out, kernel, x)`. The input
    gradient is written into `out` when given, of x's shape and that dtype:
    `x` itself (each tile of x is read before it is written), but nothing
    overlapping `grad_out`. The flipped-kernel path writes there directly
    when each of its channel maps is contiguous and copies otherwise; the
    disjoint-window path always writes there directly, and the col2im copies.
    """
    x = _check_conv_args(x, kernel, None, spec)
    n, c_in, h, w = x.shape
    h_out, w_out = spec.out_hw(h, w)
    if grad_out.shape != (n, spec.c_out, h_out, w_out):
        raise ValidationError(
            f"grad_out shape {grad_out.shape} != expected {(n, spec.c_out, h_out, w_out)}"
        )
    grad_out = grad_out.astype(np.result_type(grad_out, kernel), copy=False)
    _check_out("conv2d_grad out", out, x.shape, grad_out.dtype, grad_out, "grad_out")
    g = grad_out.reshape(n, spec.c_out, h_out * w_out)
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    p, s, k = spec.padding, spec.stride, spec.k
    if s == 1 and p <= k - 1 and (spec.c_out <= c_in or k == 1):
        # The input gradient is grad_out convolved with the kernel flipped and
        # its channel axes swapped, at padding k-1-p: a forward conv through
        # the same tiles. Its columns are c_out/c_in times the input, so a
        # widening conv runs the col2im below (a 1x1 is a view either way).
        # Each tile of those columns also gives the kernel gradient, as x's
        # pixels times them: (c_in, c_out, k, k) with every offset flipped.
        # The tile's kernel gradient is summed before its input gradient is
        # written, because out may be x.
        flipped = np.ascontiguousarray(kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(c_in, -1)
        grad_x = out if out is not None and out[0, 0].flags.c_contiguous else np.empty(x.shape, g.dtype)
        flat, pixels = grad_x.reshape(n, c_in, h * w), x.reshape(n, c_in, h * w)
        grad_kernel = np.zeros((c_in, spec.c_out * k * k), np.result_type(g, x))
        for s0, s1, c0, c1, cols in _column_tiles(grad_out, ConvSpec(spec.c_out, c_in, k, 1, k - 1 - p), flipped.nbytes):
            grad_kernel += (pixels[s0:s1, :, c0:c1] @ cols.transpose(0, 2, 1)).sum(axis=0)
            np.matmul(flipped, cols, out=flat[s0:s1, :, c0:c1])
        del cols  # the last tile's view would keep the workspace alive
        grad_kernel = grad_kernel.reshape(c_in, spec.c_out, k, k)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    else:
        grad_kernel = np.zeros((spec.c_out, c_in * k * k), np.result_type(g, x))
        for s0, s1, c0, c1, cols in _column_tiles(x, spec, kernel.nbytes):
            grad_kernel += (g[s0:s1, :, c0:c1] @ cols.transpose(0, 2, 1)).sum(axis=0)
        del cols
        grad_kernel = grad_kernel.reshape(kernel.shape)
        weights_t = kernel.reshape(spec.c_out, -1).T
        tiles = _tiles(n, h_out, c_in * k * k * w_out * g.itemsize, kernel.nbytes)
        if k == s and p == 0:
            # The windows tile x, so each pixel takes one offset: each tile's
            # column gradient W^T @ g is copied back by a reshape.
            grad_x = np.empty(x.shape, g.dtype) if out is None else out
            blocks = grad_x.reshape(n, c_in, h_out, k, w_out, k)  # splits axes: a view of any out
            for s0, s1, r0, r1 in tiles:
                dwin = (weights_t @ g[s0:s1, :, r0 * w_out : r1 * w_out]).reshape(s1 - s0, c_in, k, k, r1 - r0, w_out)
                blocks[s0:s1, :, r0:r1] = dwin.transpose(0, 1, 4, 2, 5, 3)
        else:
            # col2im by tiles of output rows: scatter-add each kernel offset of
            # a tile's column gradient W^T @ g onto the padded input, last tile
            # first, so that each pixel sums its offsets in (a, b) order however
            # the rows are tiled.
            dxp = np.zeros((n, c_in, h + 2 * p, w + 2 * p), dtype=g.dtype)
            for s0, s1, r0, r1 in reversed(list(tiles)):
                dwin = (weights_t @ g[s0:s1, :, r0 * w_out : r1 * w_out]).reshape(s1 - s0, c_in, k, k, r1 - r0, w_out)
                for a in range(k):
                    for b in range(k):
                        dxp[s0:s1, :, a + s * r0 : a + s * r1 : s, b : b + s * w_out : s] += dwin[:, :, a, b]
            grad_x = dxp[:, :, p : p + h, p : p + w] if p else dxp
    if out is not None and grad_x is not out:  # a path that cannot write into out
        np.copyto(out, grad_x)
        grad_x = out
    return grad_x, np.ascontiguousarray(grad_kernel, g.dtype), grad_bias


def batchnorm(x: Tensor4, params: BNParams, training: bool) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    """Per-channel batch normalization: gamma * (x - mu) / sqrt(var + eps) + beta.

    Training mode computes mu/var over (n, h, w) per channel with the
    population divisor n*h*w; eval mode consumes the running statistics.
    Returns (out, mean, var) where mean/var are the statistics actually used.
    A training call also folds mean/var into params' running statistics.
    `out` is a new array of dtype `np.result_type(x, params.gamma)`.
    """
    x = as_tensor4(x)
    if x.shape[1] != params.channels:
        raise ValidationError(
            f"input channel dim {x.shape[1]} does not match BNParams channels {params.channels}"
        )
    dtype = np.result_type(x, params.gamma)
    if training:
        mean = x.mean(axis=(0, 2, 3), dtype=dtype)
        out = np.subtract(x, mean[None, :, None, None], dtype=dtype)
        n, _, h, w = x.shape
        var = np.einsum("nchw,nchw->c", out, out) / (n * h * w)
        params.update_running(mean, var)
        out *= (params.gamma / np.sqrt(var + params.eps))[None, :, None, None]
        out += params.beta[None, :, None, None]
    else:
        mean = params.running_mean.copy()
        var = params.running_var.copy()
        scale = params.gamma / np.sqrt(var + params.eps)
        out = np.multiply(x, scale[None, :, None, None], dtype=dtype)
        out += (params.beta - mean * scale)[None, :, None, None]
    record_macs(2 * x.size)
    return out, mean, var


def batchnorm_grad(
    xc: Tensor4, params: BNParams, batch_var: np.ndarray, grad_out: Tensor4
) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    """Training-mode batch norm backward, differentiating through the batch stats.

    xc is the input centred by the forward's batch mean, x - mu, and
    batch_var the variance the forward returned. With inv = 1/sqrt(var + eps),
    xhat = xc * inv and m = n*h*w, the closed form is
    grad_x = gamma * inv * (g - sum(g)/m - xhat * sum(g*xhat)/m);
    sum(g) and sum(g*xhat) are also grad_beta and grad_gamma. It runs as those
    two per-channel reductions plus in-place passes that turn xc into grad_x,
    so xc must have grad_x's dtype, `np.result_type(xc, grad_out, params.gamma)`,
    and must not overlap grad_out. Returns (grad_x, grad_gamma, grad_beta),
    grad_x being xc.
    """
    xc = as_tensor4(xc)
    if grad_out.shape != xc.shape:
        raise ValidationError(f"grad_out shape {grad_out.shape} != input shape {xc.shape}")
    _check_out("batchnorm_grad xc", xc, xc.shape, np.result_type(xc, grad_out, params.gamma), grad_out, "grad_out")
    n, _, h, w = xc.shape
    m = n * h * w
    inv = 1.0 / np.sqrt(batch_var + params.eps)
    grad_beta = np.einsum("nchw->c", grad_out, dtype=xc.dtype)
    grad_gamma = np.einsum("nchw,nchw->c", grad_out, xc) * inv
    # xc * inv * grad_gamma / m is the xhat term; the buffer becomes grad_x.
    xc *= (-inv * grad_gamma / m)[None, :, None, None]
    xc += grad_out
    xc -= (grad_beta / m)[None, :, None, None]
    xc *= (params.gamma * inv)[None, :, None, None]
    return xc, grad_gamma, grad_beta


def batchnorm_grad_eval(
    x: Tensor4, params: BNParams, grad_out: Tensor4
) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    """Eval-mode backward, BN being affine in x; no caller in the package: kept as perfbench/spans.py names it."""
    inv = 1.0 / np.sqrt(params.running_var + params.eps)
    xhat = (x - params.running_mean[None, :, None, None]) * inv[None, :, None, None]
    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    grad_x = grad_out * (params.gamma * inv)[None, :, None, None]
    return grad_x, grad_gamma, grad_beta


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), written into `out` when given: an array of x's shape and of the result's dtype, x itself for one."""
    _check_out("relu out", out, x.shape, np.result_type(x, 0.0))
    record_macs(x.size)
    return np.maximum(x, 0.0, out=out)


def relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Subgradient convention: slope 0 at x <= 0."""
    return grad_out * (x > 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic from one e = exp(-|x|): 1/(1+e) for x >= 0, e/(1+e) below; 4 FLOPs per element.

    e is built in the new output array; the only temporaries are the sign
    mask and the numerator max(e, x >= 0): 1 where x >= 0 (there e <= 1),
    e below, and NaN where x is NaN.
    """
    record_macs(4 * x.size)
    nonneg = x >= 0
    e = np.abs(x, dtype=np.result_type(x, 1.0))
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, nonneg)
    e += 1.0
    return np.divide(num, e, out=e)


def elementwise_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hadamard product, 1 MAC per output element; no caller in the package: kept as perfbench/spans.py names it."""
    out = np.multiply(a, b)
    record_macs(out.size)
    return out


def residual_add(a: Tensor4, b: Tensor4, out: Tensor4 | None = None) -> Tensor4:
    """Shape-checked skip-connection add, counted as 1 FLOP per element; `out` as in `relu`, a or b itself for one."""
    if a.shape != b.shape:
        raise ValidationError(f"residual add shape mismatch: {a.shape} vs {b.shape}")
    _check_out("residual_add out", out, a.shape, np.result_type(a, b))
    record_macs(a.size)
    return np.add(a, b, out=out)
