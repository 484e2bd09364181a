"""Stateful layer objects wrapping the functional kernels.

Each layer caches what its forward pass needs for an exact backward pass,
exposes its learnable arrays through params()/param_grads(), and knows how to
apply a plain gradient-descent update. These objects are what the gradient
checker and the model runner operate on; the math itself lives in
tensor_ops / blocks / attention.
"""

from __future__ import annotations

import numpy as np

from . import attention, blocks
from .errors import ValidationError
from .tensor_ops import (
    BNParams,
    ConvSpec,
    Tensor4,
    batchnorm,
    batchnorm_grad,
    batchnorm_grad_eval,
    conv2d,
    conv2d_grad,
    record_macs,
    relu,
    relu_grad,
)


class Layer:
    """Base: forward caches, backward consumes the cache and fills grads."""

    kind = "?"

    def __init__(self, name: str):
        self.name = name
        self._grads: dict[str, np.ndarray] = {}

    def forward(self, x: Tensor4, training: bool = True) -> Tensor4:
        raise NotImplementedError

    def backward(self, grad_out: Tensor4) -> Tensor4:
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def param_grads(self) -> dict[str, np.ndarray]:
        return self._grads

    def apply_gradients(self, lr: float) -> None:
        grads = self.param_grads()
        for key, value in self.params().items():
            value -= lr * grads[key]


class Conv2d(Layer):
    kind = "conv"

    def __init__(self, spec: ConvSpec, weight=None, bias=None, rng=None, name: str = "conv"):
        super().__init__(name)
        self.spec = spec
        if weight is None:
            weight, bias = blocks.init_params(spec, rng if rng is not None else 0)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64) if bias is not None else np.zeros(spec.c_out)
        self._x = None

    def forward(self, x, training=True):
        self._x = x
        return conv2d(x, self.weight, self.bias, self.spec)

    def backward(self, grad_out):
        gx, gw, gb = conv2d_grad(self._x, self.weight, self.spec, grad_out)
        self._grads = {"weight": gw, "bias": gb}
        return gx

    def params(self):
        return {"weight": self.weight, "bias": self.bias}


class BatchNorm(Layer):
    """Batch norm layer; training forwards update the running stats in place."""

    kind = "bn"

    def __init__(self, channels: int, params: BNParams | None = None, name: str = "bn"):
        super().__init__(name)
        self.bn = params if params is not None else BNParams.identity(channels)
        self._cache = None

    def forward(self, x, training=True):
        out, mean, var = batchnorm(x, self.bn, training)
        if training:
            self.bn.update_running(mean, var)
        self._cache = (x, mean, var, training)
        return out

    def backward(self, grad_out):
        x, mean, var, training = self._cache
        if training:
            gx, ggamma, gbeta = batchnorm_grad(x, self.bn, mean, var, grad_out)
        else:
            gx, ggamma, gbeta = batchnorm_grad_eval(x, self.bn, grad_out)
        self._grads = {"gamma": ggamma, "beta": gbeta}
        return gx

    def params(self):
        return {"gamma": self.bn.gamma, "beta": self.bn.beta}


class ReLU(Layer):
    kind = "relu"

    def __init__(self, name: str = "relu"):
        super().__init__(name)
        self._x = None

    def forward(self, x, training=True):
        self._x = x
        return relu(x)

    def backward(self, grad_out):
        return relu_grad(self._x, grad_out)


class PConv(Layer):
    kind = "pconv"

    def __init__(self, spec: blocks.PConvSpec, weight=None, rng=None, name: str = "pconv"):
        super().__init__(name)
        self.spec = spec
        if weight is None:
            weight = blocks.init_params(spec, rng if rng is not None else 0)
        self.weight = np.asarray(weight, dtype=np.float64)
        self._x = None

    def forward(self, x, training=True):
        self._x = x
        return blocks.pconv(x, self.weight, self.spec)

    def backward(self, grad_out):
        gx, gw = blocks.pconv_grad(self._x, self.weight, self.spec, grad_out)
        self._grads = {"weight": gw}
        return gx

    def params(self):
        return {"weight": self.weight}


class PWConv(Layer):
    kind = "pwconv"

    def __init__(self, spec: blocks.PWConvSpec, weight=None, bias=None, rng=None, name: str = "pwconv"):
        super().__init__(name)
        self.spec = spec
        if weight is None:
            weight, bias = blocks.init_params(spec, rng if rng is not None else 0)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64) if bias is not None else np.zeros(spec.c_out)
        self._x = None

    def forward(self, x, training=True):
        self._x = x
        return blocks.pwconv(x, self.weight, self.bias)

    def backward(self, grad_out):
        gx, gw, gb = blocks.pwconv_grad(self._x, self.weight, grad_out)
        self._grads = {"weight": gw, "bias": gb}
        return gx

    def params(self):
        return {"weight": self.weight, "bias": self.bias}


class FasterNetBlock(Layer):
    kind = "fasternet"

    def __init__(
        self,
        spec: blocks.FasterNetBlockSpec,
        params: blocks.FasterNetBlockParams | None = None,
        rng=None,
        name: str = "fasternet",
    ):
        super().__init__(name)
        self.spec = spec
        self.block = (
            params if params is not None else blocks.init_params(spec, rng if rng is not None else 0)
        )
        self._cache = None

    def forward(self, x, training=True):
        out, self._cache = blocks.fasternet_block_forward(x, self.block, self.spec, training)
        if training:
            self.block.bn1.update_running(*self._cache[5:7])  # the cache's batch mean, var
        return out

    def backward(self, grad_out):
        gx, grads = blocks.fasternet_block_grad(self._cache, self.block, self.spec, grad_out)
        self._grads = grads
        return gx

    def params(self):
        b = self.block
        return {
            "pconv_w": b.pconv_w,
            "pw1_w": b.pw1_w,
            "pw1_b": b.pw1_b,
            "bn1_gamma": b.bn1.gamma,
            "bn1_beta": b.bn1.beta,
            "pw2_w": b.pw2_w,
            "pw2_b": b.pw2_b,
        }


class NAMChannel(Layer):
    kind = "nam_channel"

    def __init__(self, channels: int, params: attention.NAMChannelParams | None = None, name: str = "nam_channel"):
        super().__init__(name)
        self.nam = params if params is not None else attention.NAMChannelParams.identity(channels)
        self._cache = None

    def forward(self, x, training=True):
        out, self._cache = attention.nam_channel_forward(x, self.nam, training)
        if training:
            self.nam.bn.update_running(*self._cache[4:6])  # the cache's batch mean, var
        return out

    def backward(self, grad_out):
        gx, ggamma, gbeta = attention.nam_channel_grad(self._cache, self.nam, grad_out)
        self._grads = {"gamma": ggamma, "beta": gbeta}
        return gx

    def params(self):
        return {"gamma": self.nam.bn.gamma, "beta": self.nam.bn.beta}


class NAMSpatial(Layer):
    kind = "nam_spatial"

    def __init__(self, h: int, w: int, params: attention.NAMSpatialParams | None = None, name: str = "nam_spatial"):
        super().__init__(name)
        self.nam = params if params is not None else attention.NAMSpatialParams.identity(h, w)
        self._cache = None

    def forward(self, x, training=True):
        out, self._cache = attention.nam_spatial_forward(x, self.nam, training)
        if training:
            self.nam.bn.update_running(*self._cache[0][4:6])  # the cache's batch mean, var
        return out

    def backward(self, grad_out):
        gx, ggamma, gbeta = attention.nam_spatial_grad(self._cache, self.nam, grad_out)
        self._grads = {"gamma": ggamma, "beta": gbeta}
        return gx

    def params(self):
        return {"gamma": self.nam.bn.gamma, "beta": self.nam.bn.beta}


class GapHead(Layer):
    """Global average pool over (h, w) followed by a linear map to logits.

    Output keeps the rank-4 carrier: (n, classes, 1, 1).
    """

    kind = "gap_head"

    def __init__(self, c_in: int, classes: int, weight=None, bias=None, rng=None, name: str = "gap_head"):
        super().__init__(name)
        if classes < 1:
            raise ValidationError(f"gap_head classes must be >= 1, got {classes}")
        self.c_in = c_in
        self.classes = classes
        if weight is None:
            weight, bias = blocks.init_params(blocks.PWConvSpec(c_in, classes), rng if rng is not None else 0)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64) if bias is not None else np.zeros(classes)
        self._cache = None

    def forward(self, x, training=True):
        n, c, h, w = x.shape
        if c != self.c_in:
            raise ValidationError(f"input channel dim {c} does not match gap_head c_in {self.c_in}")
        pooled = x.mean(axis=(2, 3))
        record_macs(x.size)  # pooling adds, 1 per element
        logits = pooled @ self.weight.T + self.bias
        record_macs(n * self.weight.size)
        self._cache = (x.shape, pooled)
        return logits[:, :, None, None]

    def backward(self, grad_out):
        (n, c, h, w), pooled = self._cache
        g = grad_out[:, :, 0, 0]
        self._grads = {"weight": g.T @ pooled, "bias": g.sum(axis=0)}
        dpool = g @ self.weight
        return np.broadcast_to(dpool[:, :, None, None] / (h * w), (n, c, h, w)).copy()

    def params(self):
        return {"weight": self.weight, "bias": self.bias}
