"""Tests for partial convolution, pointwise convolution, the FasterNet block,
and parameter initialization."""

import tracemalloc

import numpy as np
import pytest

from fastblocks.blocks import (
    FasterNetBlockSpec,
    PConvSpec,
    PWConvSpec,
    init_params,
    pconv,
    pconv_grad,
    pwconv,
    pwconv_grad,
)
from fastblocks.config import parse_model_config
from fastblocks.errors import ValidationError
from fastblocks.layers import FasterNetBlock
from fastblocks.model import build_model
from fastblocks import blocks, tensor_ops
from fastblocks.tensor_ops import (
    ConvSpec,
    batchnorm,
    batchnorm_grad,
    conv2d,
    conv2d_grad,
    count_macs,
    relu,
    relu_grad,
)

from fdcheck import fd_grad, max_rel_err


# ---------------------------------------------------------------- pconv


class TestPConv:
    def test_pass_through_channels_bit_identical(self):
        rng = np.random.default_rng(0)
        spec = PConvSpec(c=4, c_p=2, k=3)
        x = rng.standard_normal((2, 4, 6, 6))
        w = rng.standard_normal((2, 2, 3, 3))
        out = pconv(x, w, spec)
        assert out.shape == x.shape
        assert np.array_equal(out[:, 2:], x[:, 2:])
        assert not np.array_equal(out[:, :2], x[:, :2])

    @pytest.mark.parametrize("n, c, c_p, k", [(1, 8, 2, 3), (3, 6, 3, 5), (2, 4, 4, 3), (3, 5, 2, 1)])
    def test_equals_the_allocating_copy_then_assign(self, n, c, c_p, k, monkeypatch):
        # pconv convolves straight into its output's first c_p channels and
        # copies only the rest; the values are those of copying all of x and
        # assigning a separately allocated conv over it.
        monkeypatch.setattr(tensor_ops, "TILE_BYTES", 4096)  # several tiles
        rng = np.random.default_rng(n + c + k)
        spec = PConvSpec(c, c_p, k)
        x = rng.standard_normal((n, c, 7, 6))
        w = rng.standard_normal((c_p, c_p, k, k))
        want = x.copy()
        want[:, :c_p] = conv2d(x[:, :c_p], w, None, spec.conv_spec())
        with count_macs() as counter:
            got = pconv(x, w, spec)
        assert np.array_equal(got, want)
        assert counter.macs == n * 7 * 6 * w.size

    def test_integer_input_matches_its_float_cast(self):
        x = np.arange(100).reshape(1, 4, 5, 5) % 3
        xf = x.astype(np.float64)
        spec = PConvSpec(4, 2, 3)
        w = init_params(spec, 0)
        assert np.array_equal(pconv(x, w, spec), pconv(xf, w, spec))
        model = build_model(parse_model_config("input 4 5 5\npconv c=4 cp=2 k=3\n"), seed=0)
        assert np.array_equal(model.forward(x, training=False), model.forward(xf, training=False))

    def test_integer_grad_out_matches_its_float_cast(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 4, 5, 5))
        g = np.arange(100).reshape(1, 4, 5, 5) % 3
        spec = PConvSpec(4, 2, 3)
        w = init_params(spec, 0)
        gx, gw = pconv_grad(x, w, spec, g)
        gx_f, gw_f = pconv_grad(x, w, spec, g.astype(np.float64))
        assert gx.dtype == np.float64
        assert np.array_equal(gx, gx_f)
        assert np.array_equal(gw, gw_f)

    def test_full_width_equals_conv2d(self):
        rng = np.random.default_rng(1)
        spec = PConvSpec(c=3, c_p=3, k=3)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((3, 3, 3, 3))
        full = conv2d(x, w, None, ConvSpec(3, 3, 3, stride=1, padding=1))
        assert np.max(np.abs(pconv(x, w, spec) - full)) < 1e-6

    def test_spatial_extent_preserved_for_any_odd_k(self):
        rng = np.random.default_rng(2)
        for k in (1, 3, 5):
            spec = PConvSpec(c=2, c_p=1, k=k)
            x = rng.standard_normal((1, 2, 7, 7))
            w = rng.standard_normal((1, 1, k, k))
            assert pconv(x, w, spec).shape == x.shape

    def test_partial_ratio(self):
        assert PConvSpec(4, 1).partial_ratio == 0.25
        assert PConvSpec(64, 16).partial_ratio == 0.25
        assert PConvSpec(5, 5).partial_ratio == 1.0

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            PConvSpec(c=4, c_p=5)  # c_p > c
        with pytest.raises(ValidationError):
            PConvSpec(c=4, c_p=0)
        with pytest.raises(ValidationError):
            PConvSpec(c=4, c_p=2, k=2)  # even kernel
        with pytest.raises(ValidationError):
            PConvSpec(c=0, c_p=0)

    def test_input_checks(self):
        spec = PConvSpec(c=4, c_p=2)
        with pytest.raises(ValidationError):
            pconv(np.zeros((1, 3, 4, 4)), np.zeros((2, 2, 3, 3)), spec)
        with pytest.raises(ValidationError):
            pconv(np.zeros((1, 4, 4, 4)), np.zeros((2, 2, 5, 5)), spec)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        spec = PConvSpec(c=4, c_p=2, k=3)
        x = rng.standard_normal((1, 4, 5, 5))
        w = rng.standard_normal((2, 2, 3, 3))
        v = rng.standard_normal(x.shape)

        def loss():
            return float(np.sum(v * pconv(x, w, spec)))

        gx, gw = pconv_grad(x, w, spec, v)
        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-6
        assert max_rel_err(gw, fd_grad(loss, w)) < 1e-6

    @pytest.mark.parametrize("n, c, c_p, k", [(1, 8, 2, 3), (3, 6, 3, 5), (2, 4, 4, 3), (3, 5, 2, 1)])
    def test_grad_equals_the_allocating_copy_then_assign(self, n, c, c_p, k, monkeypatch):
        # conv2d_grad writes the convolved channels' gradient straight into
        # grad_x; the values are those of copying all of grad_out and
        # assigning a separately allocated input gradient over it.
        monkeypatch.setattr(tensor_ops, "TILE_BYTES", 4096)  # several tiles
        rng = np.random.default_rng(n + c + k)
        spec = PConvSpec(c, c_p, k)
        x = rng.standard_normal((n, c, 7, 6))
        w = rng.standard_normal((c_p, c_p, k, k))
        grad_out = rng.standard_normal(x.shape)
        before = grad_out.copy()
        want = grad_out.copy()
        want[:, :c_p], want_w, _ = conv2d_grad(x[:, :c_p], w, spec.conv_spec(), np.ascontiguousarray(grad_out[:, :c_p]))
        got, got_w = pconv_grad(x, w, spec, grad_out)
        assert np.array_equal(got, want) and np.array_equal(got_w, want_w)
        assert np.array_equal(grad_out, before)

    def test_grad_peak_holds_no_copy_of_grad_out(self):
        # grad_x is allocated once, and conv2d_grad writes into its first c_p
        # channels: the call holds grad_x and conv2d_grad's workspaces. A
        # full copy of grad_out plus a separate c_p-channel gradient peaked
        # at 3.1 maps of x's size here.
        spec = PConvSpec(c=8, c_p=4)  # the demo's first pconv
        rng = np.random.default_rng(5)
        x = rng.standard_normal((256, 8, 16, 16))  # 4 MiB
        w = rng.standard_normal((4, 4, 3, 3))
        grad_out = rng.standard_normal(x.shape)
        pconv_grad(x, w, spec, grad_out)  # first calls allocate numpy's own caches
        tracemalloc.start()
        try:
            pconv_grad(x, w, spec, grad_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.nbytes

    def test_grad_pass_through_channels_unchanged(self):
        rng = np.random.default_rng(4)
        spec = PConvSpec(c=5, c_p=2, k=3)
        x = rng.standard_normal((2, 5, 4, 4))
        w = rng.standard_normal((2, 2, 3, 3))
        grad_out = rng.standard_normal(x.shape)
        gx, _ = pconv_grad(x, w, spec, grad_out)
        assert np.array_equal(gx[:, 2:], grad_out[:, 2:])


# ---------------------------------------------------------------- pwconv


class TestPWConv:
    def test_identity_weights(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4, 4))
        out = pwconv(x, np.eye(3), None)
        assert np.allclose(out, x)

    def test_ones_row_sums_channels(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 2, 3, 3))
        out = pwconv(x, np.ones((1, 2)), None)
        assert np.allclose(out[:, 0], x[:, 0] + x[:, 1])

    def test_zero_weights_broadcast_bias(self):
        x = np.ones((2, 3, 2, 2))
        bias = np.array([4.0, -1.0])
        out = pwconv(x, np.zeros((2, 3)), bias)
        assert np.allclose(out[:, 0], 4.0)
        assert np.allclose(out[:, 1], -1.0)

    def test_shape_checks(self):
        with pytest.raises(ValidationError):
            pwconv(np.zeros((1, 3, 2, 2)), np.zeros((2, 4)), None)
        with pytest.raises(ValidationError):
            pwconv(np.zeros((1, 3, 2, 2)), np.zeros((2, 3)), np.zeros(3))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        v = rng.standard_normal((2, 2, 4, 4))

        def loss():
            return float(np.sum(v * pwconv(x, w, b)))

        gx, gw, gb = pwconv_grad(x, w, v)
        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-6
        assert max_rel_err(gw, fd_grad(loss, w)) < 1e-6
        assert max_rel_err(gb, fd_grad(loss, b)) < 1e-6

    def test_is_a_1x1_conv2d_bit_for_bit(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        g = rng.standard_normal((2, 4, 4, 5))
        kernel, spec = w[:, :, None, None], ConvSpec(3, 4, 1)
        assert np.array_equal(pwconv(x, w, b), conv2d(x, kernel, b, spec))
        gx, gw, gb = pwconv_grad(x, w, g)
        cx, ck, cb = conv2d_grad(x, kernel, spec, g)
        assert np.array_equal(gx, cx)
        assert np.array_equal(gw, ck[:, :, 0, 0])
        assert np.array_equal(gb, cb)

    def test_integer_input_and_grad_out_match_their_float_casts(self):
        x = np.arange(60).reshape(1, 3, 4, 5) % 4
        g = np.arange(80).reshape(1, 4, 4, 5) % 3 - 1
        xf, gf = x.astype(np.float64), g.astype(np.float64)
        w, b = init_params(PWConvSpec(3, 4), 0)
        assert np.array_equal(pwconv(x, w, b), pwconv(xf, w, b))
        for got, want in zip(pwconv_grad(x, w, g), pwconv_grad(xf, w, gf)):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_macs_counted_once(self):
        x = np.ones((2, 3, 4, 5))
        with count_macs() as counter:
            pwconv(x, np.ones((6, 3)), np.zeros(6))
        assert counter.macs == 2 * 4 * 5 * 3 * 6


# ---------------------------------------------------------------- fasternet block


class TestFasterNetBlock:
    def test_shape_preserved(self):
        block = FasterNetBlock(FasterNetBlockSpec(c=8, c_p=2), rng=0)
        x = np.random.default_rng(8).standard_normal((1, 8, 16, 16))
        out = block.forward(x)
        assert out.shape == (1, 8, 16, 16)

    def test_zero_projection_reduces_to_identity(self):
        block = FasterNetBlock(FasterNetBlockSpec(c=4, c_p=2), rng=0)
        block.pw2.weight[:] = 0.0
        block.pw2.bias[:] = 0.0
        x = np.random.default_rng(9).standard_normal((2, 4, 5, 5))
        assert np.array_equal(block.forward(x), x)

    def test_hidden_width_is_expansion_times_channels(self):
        spec = FasterNetBlockSpec(c=6, c_p=2, e=3)
        assert spec.hidden == 18
        block = FasterNetBlock(spec, rng=0)
        assert block.pw1.weight.shape == (18, 6)
        assert block.pw2.weight.shape == (6, 18)
        assert block.bn1.bn.channels == 18

    def test_grad_keys_and_finite_differences(self):
        rng = np.random.default_rng(10)
        block = FasterNetBlock(FasterNetBlockSpec(c=4, c_p=2, k=3, e=2), rng=1)
        params = block.params()
        x = rng.standard_normal((2, 4, 4, 4)) + 0.3
        v = rng.standard_normal(x.shape)

        block.forward(x, training=True)
        gx = block.backward(v)
        grads = block.param_grads()
        assert list(grads) == list(params) == ["pconv_w", "pw1_w", "pw1_b", "bn1_gamma", "bn1_beta", "pw2_w", "pw2_b"]

        def loss():
            return float(np.sum(v * block.forward(x, training=True)))

        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-4
        for key in ("pconv_w", "pw1_b", "bn1_gamma", "pw2_w"):
            assert max_rel_err(grads[key], fd_grad(loss, params[key])) < 1e-4, key

    def test_eval_mode_uses_running_stats(self):
        block = FasterNetBlock(FasterNetBlockSpec(c=4, c_p=2), rng=0)
        x = np.random.default_rng(11).standard_normal((2, 4, 3, 3))
        train_out = block.forward(x, training=True)
        eval_out = block.forward(x, training=False)
        # fresh running stats (0, 1) differ from the batch statistics
        assert not np.allclose(train_out, eval_out)

    def test_grad_rejects_an_eval_mode_cache(self):
        block = FasterNetBlock(FasterNetBlockSpec(c=4, c_p=2), rng=0)
        x = np.random.default_rng(12).standard_normal((2, 4, 3, 3))
        block.forward(x, training=True)
        out = block.forward(x, training=False)
        assert block._cache is None
        with pytest.raises(ValidationError, match="layer 'fasternet'.*training-mode forward"):
            block.backward(np.ones_like(out))

    def test_backward_consumes_the_cache(self):
        block = FasterNetBlock(FasterNetBlockSpec(c=4, c_p=2), rng=0)
        x = np.random.default_rng(16).standard_normal((2, 4, 3, 3))
        out = block.forward(x)
        block.backward(np.ones_like(out))
        assert block._cache is None
        assert list(block.param_grads()) == list(block.params())
        with pytest.raises(ValidationError, match="layer 'fasternet'.*training-mode forward"):
            block.backward(np.ones_like(out))
        block.forward(x)  # a new training forward makes backward possible again
        block.backward(np.ones_like(out))

    @pytest.mark.parametrize("training", [True, False])
    def test_forward_leaves_the_input_alone(self, training):
        # ReLU and the skip add work in the block's own buffers, never in x.
        block = FasterNetBlock(FasterNetBlockSpec(c=4, c_p=2), rng=0)
        x = np.random.default_rng(13).standard_normal((2, 4, 5, 5))
        before = x.copy()
        out = block.forward(x, training=training)
        assert np.array_equal(x, before)
        assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_equals_the_allocating_formulas_and_leaves_grad_out_alone(self, dtype):
        # The backward rebuilds pw1's and pw2's inputs and masks and sums in
        # the buffers it owns; it must still compute the chain rule as
        # written, operation for operation. With float32 x and pconv/pw1
        # parameters, t0 and t1 are float32 and cannot hold the float64
        # gradients of pw1 and bn1: the backward must not round them there.
        spec = FasterNetBlockSpec(c=6, c_p=2)
        block = FasterNetBlock(spec, rng=3)
        for part in (block.pconv, block.pw1):
            part.weight = part.weight.astype(dtype)
        block.pw1.bias = block.pw1.bias.astype(dtype)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, 6, 5, 4)).astype(dtype)
        grad_out = rng.standard_normal(x.shape)
        before = grad_out.copy()
        block.forward(x)
        # The block caches x, the c_p convolved channels of t0 = pconv(x),
        # t1 = pw1(t0) and bn1's batch statistics, and nothing else.
        cached_x, convolved, t1, mean, var = block._cache
        assert cached_x is x
        t0 = pconv(x, block.pconv.weight, spec.pconv_spec())
        assert np.array_equal(convolved, t0[:, : spec.c_p])
        t1 = t1.copy()  # the backward overwrites it
        bn = block.bn1.bn
        scale = (bn.gamma / np.sqrt(var + bn.eps))[None, :, None, None]
        t3 = np.maximum((t1 - mean[None, :, None, None]) * scale + bn.beta[None, :, None, None], 0.0)
        grad_x = block.backward(grad_out)
        grads = block.param_grads()
        assert list(grads) == list(block.params())
        assert grad_x.dtype == np.float64
        assert np.array_equal(grad_out, before)
        assert not np.shares_memory(grad_x, grad_out)

        d3, gw2, gb2 = pwconv_grad(t3, block.pw2.weight, grad_out)
        d1, ggamma, gbeta = batchnorm_grad(t1 - mean[None, :, None, None], block.bn1.bn, var, relu_grad(t3, d3))
        d0, gw1, gb1 = pwconv_grad(t0, block.pw1.weight, d1)
        dx_branch, gpc = pconv_grad(x, block.pconv.weight, spec.pconv_spec(), d0)
        assert np.array_equal(grad_x, grad_out + dx_branch)
        want = {
            "pconv_w": gpc,
            "pw1_w": gw1,
            "pw1_b": gb1,
            "bn1_gamma": ggamma,
            "bn1_beta": gbeta,
            "pw2_w": gw2,
            "pw2_b": gb2,
        }
        for key, value in want.items():
            assert np.array_equal(grads[key], value), key

    def test_training_forward_holds_t1_and_the_convolved_channels_and_backward_peak_is_bounded(self):
        # The block keeps t1 = pw1(t0) (hidden channels) and pconv's c_p
        # convolved channels of t0; x is the caller's. t0's other channels
        # are x's own and relu(bn1(t1)) is rebuilt from bn1's cache, so
        # neither is kept. The backward writes pw2's, bn1's and pw1's input
        # gradients into their dead inputs.
        block = FasterNetBlock(FasterNetBlockSpec(c=8, c_p=4), rng=0)  # the demo's first block
        rng = np.random.default_rng(15)
        x = rng.standard_normal((256, 8, 16, 16))  # 4 MiB
        grad_out = rng.standard_normal(x.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = block.forward(x)
            held = tracemalloc.get_traced_memory()[0] - before - out.nbytes
            del out
            tracemalloc.reset_peak()
            block.backward(grad_out)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        t0_convolved, t1 = x.nbytes // 2, 2 * x.nbytes
        assert held <= t0_convolved + t1 + 2**16  # 10 MiB, plus small vectors such as bn1's batch statistics
        # 20 MiB, caches included; keeping t0 and relu(bn1(t1)) as well peaks at 29
        assert peak < 5 * x.nbytes

    def test_eval_forward_peak_holds_no_extra_map(self):
        # An eval forward keeps each map only until the next part has read
        # it, and bn1 normalizes pw1's output in place: the peak is pw1's or
        # pw2's input and output, 1 + 2 or 2 + 1 maps of x's size. A bn1
        # output of its own would add 12.5 MiB, a t0 kept through bn1 6.25.
        block = FasterNetBlock(FasterNetBlockSpec(c=128, c_p=32), rng=0)
        x = np.random.default_rng(17).standard_normal((1, 128, 80, 80))  # 6.25 MiB
        block.forward(x, training=False)  # first calls allocate numpy's own caches
        tracemalloc.start()
        try:
            block.forward(x, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * x.nbytes + 2**14

    def test_eval_forward_equals_the_allocating_composition(self):
        # The eval forward writes pconv's conv into its output and bn1's
        # output into pw1's; its values are those of the chain run with a new
        # array per step.
        spec = FasterNetBlockSpec(c=6, c_p=2, e=3)
        block = FasterNetBlock(spec, rng=4)
        rng = np.random.default_rng(18)
        bn = block.bn1.bn
        bn.running_mean[:] = rng.uniform(-1.0, 1.0, bn.channels)
        bn.running_var[:] = rng.uniform(0.5, 2.0, bn.channels)
        bn.gamma[:] = rng.uniform(0.5, 1.5, bn.channels)
        x = rng.standard_normal((3, 6, 5, 4))
        before = x.copy()
        t0 = x.copy()
        t0[:, : spec.c_p] = conv2d(x[:, : spec.c_p], block.pconv.weight, None, spec.pconv_spec().conv_spec())
        t1 = pwconv(t0, block.pw1.weight, block.pw1.bias)
        t2, _, _ = batchnorm(t1, bn, training=False)
        want = x + pwconv(relu(t2), block.pw2.weight, block.pw2.bias)
        assert np.array_equal(block.forward(x, training=False), want)
        assert np.array_equal(x, before)
        assert block._cache is None

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_eval_bn1_writes_into_pw1_output_only_when_that_cannot_round(self, dtype, monkeypatch):
        # With float32 x and pconv/pw1 weights, pw1's output t1 is float32
        # and bn1's float64 output must not be rounded into it; the block
        # still returns float64, equal to the chain run with a new array per step.
        spec = FasterNetBlockSpec(c=6, c_p=2)
        block = FasterNetBlock(spec, rng=5)
        for part in (block.pconv, block.pw1):
            part.weight = part.weight.astype(dtype)
        block.pw1.bias = block.pw1.bias.astype(dtype)
        bn = block.bn1.bn
        rng = np.random.default_rng(19)
        bn.running_mean[:] = rng.uniform(-1.0, 1.0, bn.channels)
        bn.running_var[:] = rng.uniform(0.5, 2.0, bn.channels)
        x = rng.standard_normal((2, 6, 4, 4)).astype(dtype)
        t0 = x.copy()
        t0[:, : spec.c_p] = conv2d(x[:, : spec.c_p], block.pconv.weight, None, spec.pconv_spec().conv_spec())
        t1 = pwconv(t0, block.pw1.weight, block.pw1.bias)
        t2, _, _ = batchnorm(t1, bn, training=False)
        want = x + pwconv(relu(t2), block.pw2.weight, block.pw2.bias)
        writes = []

        def spy(t, params, training, out=None):
            writes.append(out is t)
            return batchnorm(t, params, training, out=out)

        monkeypatch.setattr(blocks, "batchnorm", spy)
        got = block.forward(x, training=False)
        assert writes == [dtype == np.float64]
        assert got.dtype == np.float64 and np.array_equal(got, want)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            FasterNetBlockSpec(c=4, c_p=8)
        with pytest.raises(ValidationError):
            FasterNetBlockSpec(c=4, c_p=2, e=0)


# ---------------------------------------------------------------- init_params


class TestInitParams:
    def test_deterministic_in_seed(self):
        spec = ConvSpec(3, 4, 3)
        w1, b1 = init_params(spec, 42)
        w2, b2 = init_params(spec, 42)
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
        w3, _ = init_params(spec, 43)
        assert not np.array_equal(w1, w3)

    def test_biases_zero_and_bounds_respected(self):
        spec = ConvSpec(3, 4, 3)
        w, b = init_params(spec, 0)
        bound = np.sqrt(6.0 / (3 * 9))
        assert np.array_equal(b, np.zeros(4))
        assert np.all(np.abs(w) <= bound)

    def test_uniform_moment_matches_fan_in(self):
        # std of U[-a, a] is a / sqrt(3) with a = sqrt(6 / fan_in)
        spec = PWConvSpec(c_in=50, c_out=200)  # 10,000 draws
        w, _ = init_params(spec, 0)
        expect = np.sqrt(6.0 / 50) / np.sqrt(3.0)
        assert abs(w.std() - expect) / expect < 0.05

    def test_block_params_layout(self):
        spec = FasterNetBlockSpec(c=8, c_p=4, k=3, e=2)
        block = FasterNetBlock(spec, rng=0)
        params = block.params()
        assert params["pconv_w"].shape == (4, 4, 3, 3)
        assert params["pw1_w"].shape == (16, 8)
        assert np.array_equal(params["pw1_b"], np.zeros(16))
        assert np.array_equal(params["bn1_gamma"], np.ones(16))
        assert np.array_equal(params["bn1_beta"], np.zeros(16))
        assert np.array_equal(block.bn1.bn.running_mean, np.zeros(16))
        assert np.array_equal(block.bn1.bn.running_var, np.ones(16))
        assert params["pw2_w"].shape == (8, 16)
        assert np.array_equal(params["pw2_b"], np.zeros(8))
        # the parts draw in order from one Generator: pconv, pw1, pw2
        rng = np.random.default_rng(0)
        assert np.array_equal(params["pconv_w"], init_params(spec.pconv_spec(), rng))
        assert np.array_equal(params["pw1_w"], init_params(PWConvSpec(8, 16), rng)[0])
        assert np.array_equal(params["pw2_w"], init_params(PWConvSpec(16, 8), rng)[0])

    def test_shared_generator_advances(self):
        rng = np.random.default_rng(0)
        w1, _ = init_params(ConvSpec(2, 2, 3), rng)
        w2, _ = init_params(ConvSpec(2, 2, 3), rng)
        assert not np.array_equal(w1, w2)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValidationError):
            init_params(object())
        with pytest.raises(ValidationError, match="FasterNetBlockSpec"):
            init_params(FasterNetBlockSpec(c=4, c_p=2))  # a block's parts draw their own
