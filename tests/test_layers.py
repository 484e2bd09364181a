"""Tests for the stateful layer wrappers: caching, parameter plumbing,
running statistics, and the gap head."""

import tracemalloc

import numpy as np
import pytest

from fastblocks import layers
from fastblocks.blocks import FasterNetBlockSpec, PWConvSpec, pconv, pwconv
from fastblocks.errors import ValidationError
from fastblocks.tensor_ops import BNParams, ConvSpec, batchnorm, count_macs

from fdcheck import fd_grad, max_rel_err


def test_apply_gradients_steps_against_the_gradient():
    rng = np.random.default_rng(0)
    layer = layers.PWConv(PWConvSpec(2, 2), rng=rng)
    x = rng.standard_normal((1, 2, 3, 3))
    before = layer.weight.copy()
    layer.forward(x)
    layer.backward(np.ones((1, 2, 3, 3)))
    grads = {k: v.copy() for k, v in layer.param_grads().items()}
    layer.apply_gradients(lr=0.5)
    assert np.allclose(layer.weight, before - 0.5 * grads["weight"])


def test_batchnorm_layer_updates_running_stats_with_momentum():
    layer = layers.BatchNorm(2)
    rng = np.random.default_rng(1)
    x = rng.normal(3.0, 2.0, size=(4, 2, 5, 5))
    batch_mean = x.mean(axis=(0, 2, 3))
    batch_var = x.var(axis=(0, 2, 3))
    layer.forward(x, training=True)
    assert np.allclose(layer.bn.running_mean, 0.1 * batch_mean)
    assert np.allclose(layer.bn.running_var, 0.9 * 1.0 + 0.1 * batch_var)

    # eval mode must leave them untouched
    frozen = layer.bn.running_mean.copy()
    layer.forward(x, training=False)
    assert np.array_equal(layer.bn.running_mean, frozen)


def _random_bn(rng, units):
    return BNParams(
        gamma=rng.uniform(0.5, 1.5, units),
        beta=rng.uniform(-0.5, 0.5, units),
        running_mean=rng.standard_normal(units),
        running_var=rng.uniform(0.5, 2.0, units),
    )


def _normalizing_call(kind, rng):
    """(run(training), the BNParams the call normalizes with, the input that BN sees).

    `batchnorm` is the tensor_ops kernel; the other kinds run through their layers.
    """
    x = rng.standard_normal((3, 4, 5, 5)) + 2.0
    if kind == "batchnorm":
        bn = _random_bn(rng, 4)
        return (lambda training: batchnorm(x, bn, training)), bn, x
    if kind == "fasternet_block":
        spec = FasterNetBlockSpec(4, 2)
        layer = layers.FasterNetBlock(spec, rng=rng)
        layer.bn1.bn = _random_bn(rng, spec.hidden)
        bn_in = pwconv(pconv(x, layer.pconv.weight, spec.pconv_spec()), layer.pw1.weight, layer.pw1.bias)
        return (lambda training: layer.forward(x, training)), layer.bn1.bn, bn_in
    if kind == "nam_channel":
        layer = layers.NAMChannel(4)
        layer.bn = _random_bn(rng, 4)
        return (lambda training: layer.forward(x, training)), layer.bn, x
    layer = layers.NAMSpatial(5, 5)
    layer.bn = _random_bn(rng, 25)
    return (lambda training: layer.forward(x, training)), layer.bn, x.reshape(12, 25, 1, 1)


@pytest.mark.parametrize("kind", ["batchnorm", "fasternet_block", "nam_channel", "nam_spatial"])
def test_functional_forms_update_running_stats_in_training_only(kind):
    run, bn, bn_in = _normalizing_call(kind, np.random.default_rng(4))
    mean0, var0 = bn.running_mean.copy(), bn.running_var.copy()
    run(False)
    assert np.array_equal(bn.running_mean, mean0)
    assert np.array_equal(bn.running_var, var0)
    run(True)
    assert np.allclose(bn.running_mean, 0.9 * mean0 + 0.1 * bn_in.mean(axis=(0, 2, 3)), rtol=0, atol=1e-12)
    assert np.allclose(bn.running_var, 0.9 * var0 + 0.1 * bn_in.var(axis=(0, 2, 3)), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "build",
    [
        lambda: BNParams.identity(0),
        lambda: layers.BatchNorm(0),
        lambda: layers.BatchNorm(-1),
        lambda: layers.NAMChannel(-2),
    ],
    ids=["identity(0)", "BatchNorm(0)", "BatchNorm(-1)", "NAMChannel(-2)"],
)
def test_batch_norm_without_units_is_rejected(build):
    with pytest.raises(ValidationError, match="at least one unit"):
        build()


def test_bn_params_reject_empty_vectors():
    with pytest.raises(ValidationError, match="nonempty"):
        BNParams(np.ones(0), np.zeros(0), np.zeros(0), np.ones(0))


def test_batchnorm_layer_backward_holds_one_map():
    # The layer centres its cached input into one new map, which batch norm's
    # backward turns into the input gradient in place. Beyond it, the peak
    # holds numpy's iteration buffer for a broadcast operand (np.getbufsize()
    # float64s, 64 KiB) and a few per-channel vectors.
    rng = np.random.default_rng(29)
    layer = layers.BatchNorm(8)
    x = rng.standard_normal((256, 8, 16, 16))  # 4 MiB
    grad_out = rng.standard_normal(x.shape)
    layer.forward(x)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grad_x = layer.backward(grad_out)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert grad_x.nbytes == x.nbytes
    assert peak <= x.nbytes + 8 * np.getbufsize() + 2**14


def test_batchnorm_layer_eval_uses_running_stats():
    params = BNParams(
        gamma=np.array([2.0]),
        beta=np.array([1.0]),
        running_mean=np.array([3.0]),
        running_var=np.array([4.0]),
        eps=1e-12,
    )
    layer = layers.BatchNorm(1)
    layer.bn = params
    x = np.full((1, 1, 1, 1), 5.0)
    out = layer.forward(x, training=False)
    assert abs(out[0, 0, 0, 0] - (2.0 * (5.0 - 3.0) / 2.0 + 1.0)) < 1e-9


class TestGapHead:
    def test_pool_then_linear(self):
        head = layers.GapHead(2, 3)
        head.weight[:] = np.eye(3, 2)
        head.bias[:] = [0.0, 0.0, 1.0]
        x = np.zeros((1, 2, 2, 2))
        x[0, 0] = [[1.0, 2.0], [3.0, 4.0]]  # mean 2.5
        x[0, 1] = 6.0
        out = head.forward(x)
        assert out.shape == (1, 3, 1, 1)
        assert np.allclose(out[0, :, 0, 0], [2.5, 6.0, 1.0])

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            layers.GapHead(2, 3).forward(np.zeros((1, 4, 2, 2)))

    def test_rank_3_input_rejected(self):
        with pytest.raises(ValidationError, match="rank 4"):
            layers.GapHead(2, 3).forward(np.zeros((2, 2, 2)))

    def test_classes_must_be_positive(self):
        with pytest.raises(ValidationError):
            layers.GapHead(2, 0)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        head = layers.GapHead(3, 2, rng=rng)
        x = rng.standard_normal((2, 3, 4, 4))
        v = rng.standard_normal((2, 2, 1, 1))

        def loss():
            return float(np.sum(v * head.forward(x)))

        head.forward(x)
        gx = head.backward(v)
        grads = head.param_grads()
        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-6
        assert max_rel_err(grads["weight"], fd_grad(loss, head.weight)) < 1e-6
        assert max_rel_err(grads["bias"], fd_grad(loss, head.bias)) < 1e-6

    def test_mac_count_covers_pool_and_linear(self):
        head = layers.GapHead(3, 4, rng=np.random.default_rng(3))
        x = np.zeros((2, 3, 5, 5))
        with count_macs() as counter:
            head.forward(x)
        assert counter.macs == x.size + 2 * 4 * 3


def test_default_construction_without_rng_is_deterministic():
    a = layers.Conv2d(ConvSpec(2, 2, 3))
    b = layers.Conv2d(ConvSpec(2, 2, 3))
    assert np.array_equal(a.weight, b.weight)


def test_layer_kind_tags():
    assert layers.Conv2d(ConvSpec(1, 1, 1)).kind == "conv"
    assert layers.BatchNorm(1).kind == "bn"
    assert layers.ReLU().kind == "relu"
    assert layers.GapHead(1, 1).kind == "gap_head"


@pytest.mark.parametrize("training", [True, False])
def test_standalone_relu_leaves_its_input_alone(training):
    x = np.random.default_rng(3).standard_normal((2, 3, 4, 4))
    before = x.copy()
    out = layers.ReLU().forward(x, training)
    assert np.array_equal(x, before)
    assert not np.shares_memory(out, x)
    assert np.array_equal(out, np.maximum(before, 0.0))


def test_relu_backward_masks_by_its_cached_output():
    # out > 0 exactly where x > 0, NaN included (max(NaN, 0) is NaN, not > 0)
    relu = layers.ReLU()
    x = np.array([-1.0, 0.0, 2.0, np.nan, -0.0, 3.0]).reshape(1, 6, 1, 1)
    out = relu.forward(x)
    assert relu._cache is out
    grad = relu.backward(np.full(x.shape, 5.0))
    assert grad.ravel().tolist() == [0.0, 0.0, 5.0, 0.0, 0.0, 5.0]
