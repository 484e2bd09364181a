"""Stateful layer objects wrapping the functional kernels.

Each layer is built from its shape alone (a spec, or channel and map sizes)
and, if it has weights, a seed or Generator for `blocks.init_params`; its
`name` starts as its `kind`, and `build_model` renames it after its
`analyze_graph` row (`000:conv`). A training forward caches what an exact
backward pass needs; an eval forward (training=False) is the inference path
and keeps nothing, so backward needs a training forward first. A layer's
cache stays until its next forward replaces it, except that the NAM gates
and a `FasterNetBlock` consume theirs in backward.

A ReLU or NAM gate is marked `in_place` when nothing else holds its input,
so that it may overwrite it. In `build_model` an item owns its input unless
it is the first item (the caller's input) or directly follows
`residual_begin` (the skip's) or a `ReLU` (which caches its output); it
marks the ReLUs and NAM gates that own theirs. A marked ReLU writes its
output into its input and caches that; a marked gate's backward may write
its input gradient into its cached input. No other layer reads the mark, and
one built outside a model is never marked. A NAM gate and a `FasterNetBlock`
run through functions that take the layer itself (`attention.nam_*`,
`blocks.fasternet_block_*`), keep its cache, set its grads and decide alone
which maps they overwrite. Each layer exposes its learnable arrays through
params()/param_grads() and knows how to apply a plain gradient-descent
update; the gradient checker and the model runner operate on these objects.
`BatchNorm`, `NAMChannel` and `NAMSpatial` hold their `BNParams` as
`self.bn`; a `FasterNetBlock` holds its parameters in `PConv`, `PWConv` and
`BatchNorm` part layers, so its `BNParams` are `block.bn1.bn`.
"""

from __future__ import annotations

import numpy as np

from . import attention, blocks
from .errors import ValidationError
from .tensor_ops import (
    BNParams,
    ConvSpec,
    Tensor4,
    as_tensor4,
    batchnorm,
    batchnorm_grad,
    conv2d,
    conv2d_grad,
    record_macs,
    relu,
    relu_grad,
)


class Layer:
    """Base: a training forward caches, backward reads the cache and fills grads."""

    kind = "?"
    # What the last forward kept for backward; None after an eval forward.
    # Most layers' backward leaves it in place: when every layer dropped its
    # cache there, the heap was empty between demo training steps, glibc
    # returned the memory to the OS, and the next forward faulted it back in
    # (about 13,000 minor faults per step, against about 1,400). The NAM
    # gates and a `FasterNetBlock`, whose caches held the demo step's peak,
    # are consumed by their backward.
    _cache = None
    # Set on a ReLU or NAM gate whose input nothing else holds (see the module
    # docstring): the layer may overwrite its input once it is done with it.
    in_place = False

    def __init__(self):
        self.name = self.kind
        self._grads: dict[str, np.ndarray] = {}

    def forward(self, x: Tensor4, training: bool = True) -> Tensor4:
        raise NotImplementedError

    def backward(self, grad_out: Tensor4) -> Tensor4:
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def param_grads(self) -> dict[str, np.ndarray]:
        return self._grads

    def _cached(self):
        if self._cache is None:
            raise ValidationError(f"layer '{self.name}': backward needs a training-mode forward first")
        return self._cache

    def _take(self):
        """The cache, handed over to a backward that may overwrite it."""
        cache = self._cached()
        self._cache = None
        return cache

    def apply_gradients(self, lr: float) -> None:
        grads = self.param_grads()
        for key, value in self.params().items():
            if key not in grads:
                raise ValidationError(f"layer '{self.name}': apply_gradients needs a backward first")
            value -= lr * grads[key]


class Conv2d(Layer):
    kind = "conv"

    def __init__(self, spec: ConvSpec, rng=0):
        super().__init__()
        self.spec = spec
        self.weight, self.bias = blocks.init_params(spec, rng)

    def forward(self, x, training=True):
        self._cache = x if training else None
        return conv2d(x, self.weight, self.bias, self.spec)

    def backward(self, grad_out):
        gx, gw, gb = conv2d_grad(self._cached(), self.weight, self.spec, grad_out)
        self._grads = {"weight": gw, "bias": gb}
        return gx

    def params(self):
        return {"weight": self.weight, "bias": self.bias}


class BatchNorm(Layer):
    """Batch norm layer; a training forward updates the running stats (in `batchnorm`)."""

    kind = "bn"

    def __init__(self, channels: int):
        super().__init__()
        self.bn = BNParams.identity(channels)

    def forward(self, x, training=True):
        # Always a new output. Normalizing in place in eval, with the residual sums still
        # allocating, raised infer_640_yolov5s `peak_rss_mb` from 158.9 to 185.7 MB
        # (seeds 1-3, `--seconds 10`) through heap layout, not through more live maps.
        out, mean, var = batchnorm(x, self.bn, training)
        self._cache = (x, mean, var) if training else None
        return out

    def backward(self, grad_out):
        x, mean, var = self._cached()
        xc = np.subtract(x, mean[None, :, None, None], dtype=np.result_type(x, grad_out, self.bn.gamma))
        gx, ggamma, gbeta = batchnorm_grad(xc, self.bn, var, grad_out)
        self._grads = {"gamma": ggamma, "beta": gbeta}
        return gx

    def params(self):
        return {"gamma": self.bn.gamma, "beta": self.bn.beta}


class ReLU(Layer):
    """max(x, 0); caches its output, which is > 0 exactly where x is."""

    kind = "relu"

    def forward(self, x, training=True):
        out = relu(x, out=x if self.in_place else None)
        self._cache = out if training else None
        return out

    def backward(self, grad_out):
        return relu_grad(self._cached(), grad_out)


class PConv(Layer):
    kind = "pconv"

    def __init__(self, spec: blocks.PConvSpec, rng=0):
        super().__init__()
        self.spec = spec
        self.weight = blocks.init_params(spec, rng)

    def forward(self, x, training=True):
        self._cache = x if training else None
        return blocks.pconv(x, self.weight, self.spec)

    def backward(self, grad_out):
        gx, gw = blocks.pconv_grad(self._cached(), self.weight, self.spec, grad_out)
        self._grads = {"weight": gw}
        return gx

    def params(self):
        return {"weight": self.weight}


class PWConv(Layer):
    kind = "pwconv"

    def __init__(self, spec: blocks.PWConvSpec, rng=0):
        super().__init__()
        self.spec = spec
        self.weight, self.bias = blocks.init_params(spec, rng)

    def forward(self, x, training=True):
        self._cache = x if training else None
        return blocks.pwconv(x, self.weight, self.bias)

    def backward(self, grad_out):
        gx, gw, gb = blocks.pwconv_grad(self._cached(), self.weight, grad_out)
        self._grads = {"weight": gw, "bias": gb}
        return gx

    def params(self):
        return {"weight": self.weight, "bias": self.bias}


class FasterNetBlock(Layer):
    """x + pw2(relu(bn1(pw1(pconv(x))))) (see `blocks`); its part layers
    draw and hold the parameters, and the block runs their kernels itself."""

    kind = "fasternet"

    def __init__(self, spec: blocks.FasterNetBlockSpec, rng=0):
        super().__init__()
        self.spec = spec
        rng = np.random.default_rng(rng)
        self.pconv = PConv(spec.pconv_spec(), rng)
        self.pw1 = PWConv(blocks.PWConvSpec(spec.c, spec.hidden), rng)
        self.bn1 = BatchNorm(spec.hidden)
        self.pw2 = PWConv(blocks.PWConvSpec(spec.hidden, spec.c), rng)

    def forward(self, x, training=True):
        return blocks.fasternet_block_forward(self, x, training)

    def backward(self, grad_out):
        return blocks.fasternet_block_grad(self, grad_out)

    def params(self):
        return {
            "pconv_w": self.pconv.weight,
            "pw1_w": self.pw1.weight,
            "pw1_b": self.pw1.bias,
            "bn1_gamma": self.bn1.bn.gamma,
            "bn1_beta": self.bn1.bn.beta,
            "pw2_w": self.pw2.weight,
            "pw2_b": self.pw2.bias,
        }


class NAMChannel(Layer):
    kind = "nam_channel"

    def __init__(self, channels: int):
        super().__init__()
        self.bn = BNParams.identity(channels)

    def forward(self, x, training=True):
        return attention.nam_channel_forward(self, x, training)

    def backward(self, grad_out):
        return attention.nam_channel_grad(self, grad_out)

    def params(self):
        return {"gamma": self.bn.gamma, "beta": self.bn.beta}


class NAMSpatial(Layer):
    kind = "nam_spatial"

    def __init__(self, h: int, w: int):
        super().__init__()
        if h < 1 or w < 1:
            raise ValidationError(f"nam_spatial h and w must be >= 1, got {(h, w)}")
        self.h, self.w = h, w
        self.bn = BNParams.identity(h * w)

    def forward(self, x, training=True):
        return attention.nam_spatial_forward(self, x, training)

    def backward(self, grad_out):
        return attention.nam_spatial_grad(self, grad_out)

    def params(self):
        return {"gamma": self.bn.gamma, "beta": self.bn.beta}


class GapHead(Layer):
    """Global average pool over (h, w) followed by a pointwise conv to logits.

    Output keeps the rank-4 carrier: (n, classes, 1, 1).
    """

    kind = "gap_head"

    def __init__(self, c_in: int, classes: int, rng=0):
        super().__init__()
        if classes < 1:
            raise ValidationError(f"gap_head classes must be >= 1, got {classes}")
        self.c_in = c_in
        self.classes = classes
        self.weight, self.bias = blocks.init_params(blocks.PWConvSpec(c_in, classes), rng)

    def forward(self, x, training=True):
        x = as_tensor4(x)
        if x.shape[1] != self.c_in:
            raise ValidationError(f"input channel dim {x.shape[1]} does not match gap_head c_in {self.c_in}")
        pooled = x.mean(axis=(2, 3), keepdims=True)
        record_macs(x.size)  # pooling adds, 1 per element
        self._cache = (x.shape, pooled) if training else None
        return blocks.pwconv(pooled, self.weight, self.bias)

    def backward(self, grad_out):
        (n, c, h, w), pooled = self._cached()
        dpool, gw, gb = blocks.pwconv_grad(pooled, self.weight, grad_out)
        self._grads = {"weight": gw, "bias": gb}
        return np.broadcast_to(dpool / (h * w), (n, c, h, w)).copy()

    def params(self):
        return {"weight": self.weight, "bias": self.bias}
