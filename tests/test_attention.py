"""Tests for the normalization-derived channel and spatial attention gates,
run through their layers, `NAMChannel` and `NAMSpatial`."""

import tracemalloc
import warnings

import numpy as np
import pytest

from fastblocks.attention import (
    nam_channel_forward,
    nam_channel_grad,
    nam_spatial_forward,
    nam_spatial_grad,
    nam_weights,
)
from fastblocks.errors import DegenerateInputError, ValidationError
from fastblocks.layers import NAMChannel, NAMSpatial
from fastblocks.tensor_ops import BNParams, batchnorm, batchnorm_grad, count_macs, sigmoid

from fdcheck import fd_grad, max_rel_err


def random_bn(rng, units):
    """BN params with scale factors clear of zero (|gamma| is kinked there)."""
    return BNParams(
        gamma=rng.uniform(0.5, 1.5, units) * rng.choice([-1.0, 1.0], units),
        beta=rng.uniform(-0.5, 0.5, units),
        running_mean=np.zeros(units),
        running_var=np.ones(units),
    )


def channel_gate(bn):
    gate = NAMChannel(bn.channels)
    gate.bn = bn
    return gate


def spatial_gate(bn, h, w):
    gate = NAMSpatial(h, w)
    gate.bn = bn
    return gate


# ---------------------------------------------------------------- nam_weights


class TestNamWeights:
    def test_equal_scales_split_evenly(self):
        assert np.allclose(nam_weights(np.array([1.0, 1.0, 1.0, 1.0])), 0.25)

    def test_direct_normalization(self):
        assert np.allclose(nam_weights(np.array([1.0, 3.0])), [0.25, 0.75])

    def test_negative_scales_count_by_magnitude(self):
        assert np.allclose(nam_weights(np.array([-1.0, 3.0])), [0.25, 0.75])

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            nam_weights(np.zeros(4))

    def test_empty_and_non_vector_rejected(self):
        with pytest.raises(ValidationError):
            nam_weights(np.array([]))
        with pytest.raises(ValidationError):
            nam_weights(np.ones((2, 2)))

    def test_sum_to_one_and_bounded_over_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            scales = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            if np.all(scales == 0.0):
                continue
            w = nam_weights(scales)
            assert abs(w.sum() - 1.0) < 1e-9
            assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            scales = rng.standard_normal(int(rng.integers(1, 20)))
            if np.all(scales == 0.0):
                continue
            k = float(rng.uniform(0.1, 100.0)) * float(rng.choice([-1.0, 1.0]))
            assert np.max(np.abs(nam_weights(k * scales) - nam_weights(scales))) < 1e-9


# ---------------------------------------------------------------- channel gate


class TestNamChannel:
    def test_shape_preserved(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 8, 5, 5))
        out = channel_gate(random_bn(rng, 8)).forward(x)
        assert out.shape == x.shape

    def test_gate_bounded_by_input(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = int(rng.integers(1, 8))
            x = rng.standard_normal((2, c, 4, 4)) * 3.0
            out = channel_gate(random_bn(rng, c)).forward(x)
            assert np.all(np.abs(out) <= np.abs(x) + 1e-12)

    def test_single_channel_hand_case(self):
        # c=1 forces weight 1; eval stats (0, 1) make BN near-identity, so
        # out = x * sigmoid(x): zero input stays exactly zero.
        gate = channel_gate(
            BNParams(
                gamma=np.array([1.0]),
                beta=np.array([0.0]),
                running_mean=np.array([0.0]),
                running_var=np.array([1.0]),
                eps=1e-12,
            )
        )
        x = np.zeros((1, 1, 1, 1))
        assert gate.forward(x, training=False)[0, 0, 0, 0] == 0.0
        x2 = np.full((1, 1, 1, 1), 2.0)
        expect = 2.0 / (1.0 + np.exp(-2.0))
        assert abs(gate.forward(x2, training=False)[0, 0, 0, 0] - expect) < 1e-9

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            NAMChannel(4).forward(np.zeros((1, 3, 2, 2)))

    def test_equal_gamma_commutes_with_channel_permutation(self):
        rng = np.random.default_rng(4)
        c = 5
        gate = channel_gate(
            BNParams(
                gamma=np.full(c, 0.7),
                beta=np.full(c, 0.1),
                running_mean=np.zeros(c),
                running_var=np.ones(c),
            )
        )
        x = rng.standard_normal((2, c, 3, 3))
        perm = rng.permutation(c)
        direct = gate.forward(x[:, perm])
        permuted = gate.forward(x)[:, perm]
        assert np.allclose(direct, permuted, atol=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        gate = channel_gate(random_bn(rng, 4))
        x = rng.standard_normal((2, 4, 3, 3))
        x += 0.1 * np.sign(x)
        v = rng.standard_normal(x.shape)

        gate.forward(x, training=True)
        gx = gate.backward(v)
        grads = gate.param_grads()

        def loss():
            return float(np.sum(v * gate.forward(x, training=True)))

        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-4
        assert max_rel_err(grads["gamma"], fd_grad(loss, gate.bn.gamma)) < 1e-4
        assert max_rel_err(grads["beta"], fd_grad(loss, gate.bn.beta)) < 1e-4


# ---------------------------------------------------------------- spatial gate


class TestNamSpatial:
    def test_shape_preserved(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 4, 5))
        out = spatial_gate(random_bn(rng, 20), 4, 5).forward(x)
        assert out.shape == x.shape

    def test_gate_bounded_by_input(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            x = rng.standard_normal((2, 3, h, w)) * 3.0
            out = spatial_gate(random_bn(rng, h * w), h, w).forward(x)
            assert np.all(np.abs(out) <= np.abs(x) + 1e-12)

    def test_spatial_size_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            NAMSpatial(2, 2).forward(np.zeros((1, 2, 3, 3)))

    @pytest.mark.parametrize("training", [True, False])
    def test_params_length_must_match_map(self, training):
        # a 2x3 gate whose BN has 5 units cannot gate its own map
        with pytest.raises(ValidationError, match="6 positions"):
            spatial_gate(BNParams.identity(5), 2, 3).forward(np.zeros((1, 1, 2, 3)), training=training)

    def test_layer_rejects_a_map_of_the_same_size_but_another_shape(self):
        # 2x8 has the 16 positions of a 4x4 gate; only the gate knows (h, w)
        with pytest.raises(ValidationError, match="spatial dims"):
            NAMSpatial(4, 4).forward(np.zeros((1, 1, 2, 8)))

    def test_forward_rejects_a_map_whose_size_is_not_the_bn_length(self):
        with pytest.raises(ValidationError, match="15 positions"):
            nam_spatial_forward(spatial_gate(BNParams.identity(16), 3, 5), np.zeros((1, 1, 3, 5)))

    def test_non_positive_map_rejected_at_construction(self):
        for h, w in [(0, 3), (2, -1)]:
            with pytest.raises(ValidationError):
                NAMSpatial(h, w)

    def test_single_position_reduces_to_channel_formula(self):
        # an (n, c, 1, 1) map has one spatial unit; folding it into the batch
        # must reproduce the channel module applied to (n*c, 1, 1, 1) data
        rng = np.random.default_rng(8)
        bn = random_bn(rng, 1)
        x = rng.standard_normal((3, 4, 1, 1))
        sp = spatial_gate(
            BNParams(bn.gamma.copy(), bn.beta.copy(), bn.running_mean.copy(), bn.running_var.copy()),
            1, 1,
        ).forward(x)
        ch = channel_gate(bn).forward(x.reshape(12, 1, 1, 1))
        assert np.allclose(sp, ch.reshape(3, 4, 1, 1), atol=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        gate = spatial_gate(random_bn(rng, 6), 2, 3)
        x = rng.standard_normal((2, 2, 2, 3))
        x += 0.1 * np.sign(x)
        v = rng.standard_normal(x.shape)

        gate.forward(x, training=True)
        gx = gate.backward(v)
        grads = gate.param_grads()

        def loss():
            return float(np.sum(v * gate.forward(x, training=True)))

        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-4
        assert max_rel_err(grads["gamma"], fd_grad(loss, gate.bn.gamma)) < 1e-4
        assert max_rel_err(grads["beta"], fd_grad(loss, gate.bn.beta)) < 1e-4


# ---------------------------------------------------------------- buffers


def gates(rng):
    """A channel and a spatial gate for an (n, 6, 4, 5) input."""
    return channel_gate(random_bn(rng, 6)), spatial_gate(random_bn(rng, 20), 4, 5)


@pytest.mark.parametrize("training", [True, False])
def test_gates_leave_the_input_alone(training):
    rng = np.random.default_rng(12)
    for gate in gates(rng):
        x = rng.standard_normal((3, 6, 4, 5))
        before = x.copy()
        out = gate.forward(x, training=training)
        assert np.array_equal(x, before)
        assert not np.shares_memory(out, x)


def test_a_forward_that_raises_leaves_the_running_statistics_alone():
    # nam_weights rejects an all-zero gamma; it must do so before batch norm
    # folds the batch into the running statistics.
    rng = np.random.default_rng(25)
    for gate in gates(rng):
        gate.bn.gamma[:] = 0.0
        mean, var = gate.bn.running_mean.copy(), gate.bn.running_var.copy()
        with pytest.raises(DegenerateInputError):
            gate.forward(rng.standard_normal((3, 6, 4, 5)) + 0.5)
        assert np.array_equal(gate.bn.running_mean, mean), gate.kind
        assert np.array_equal(gate.bn.running_var, var), gate.kind


def test_training_forward_keeps_the_gate_but_not_bn_of_x():
    # The cache is (x, s, mean, var): x is the caller's, so the forward
    # holds one new map, the gate s, besides its output; the backward needs
    # only x - mean of BN(x), and recomputes the weights w from gamma.
    rng = np.random.default_rng(13)
    for gate in gates(rng):
        x = rng.standard_normal((64, 6, 4, 5))
        gate.forward(x)  # first calls allocate numpy's own caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = gate.forward(x)
            held = tracemalloc.get_traced_memory()[0] - before - out.nbytes
        finally:
            tracemalloc.stop()
        assert x.nbytes <= held < x.nbytes + 2**12, gate.kind
        assert not np.shares_memory(out, x)


def eval_gates(rng, h=4, w=5, c=6):
    """A channel and a spatial gate with random running statistics, so that
    an eval forward's batch norm is not the identity map."""
    made = []
    for gate, units in ((NAMChannel(c), c), (NAMSpatial(h, w), h * w)):
        gate.bn = BNParams(
            gamma=rng.uniform(0.5, 1.5, units) * rng.choice([-1.0, 1.0], units),
            beta=rng.uniform(-0.5, 0.5, units),
            running_mean=rng.uniform(-1.0, 1.0, units),
            running_var=rng.uniform(0.25, 4.0, units),
        )
        made.append(gate)
    return made


def unit_view(gate, x):
    """x as the gate's (n, units, h, w) BN input: the spatial gate folds (h, w) into the units."""
    return x if gate.kind == "nam_channel" else x.reshape(-1, gate.h * gate.w, 1, 1)


def bn_copy(bn):
    """A BNParams equal to `bn` that shares none of its arrays."""
    return BNParams(bn.gamma.copy(), bn.beta.copy(), bn.running_mean.copy(), bn.running_var.copy(), bn.eps)


# The gate's documented tolerance against the allocating composition, in
# both modes, element by element where |w ⊙ BN(x)| <= 10: a few ulps (at most
# 1.1e-15 in eval and 4.5e-16 in training over 200 seeds of the inputs below).
GATE_RTOL = 1e-14


@pytest.mark.parametrize("training", [True, False])
def test_gate_matches_the_allocating_composition(training):
    # The gate folds BN -> * w -> sigmoid -> * x into x / (1 + exp(z)), z being
    # the batch norm whose affine is scaled by -w: the same function, rounded
    # differently, so it is held to GATE_RTOL.
    rng = np.random.default_rng(13)
    for gate in eval_gates(rng):
        x = rng.standard_normal((5, 6, 4, 5)) * 3.0
        units = unit_view(gate, x)
        g = batchnorm(units, bn_copy(gate.bn), training)[0] * nam_weights(gate.bn.gamma)[None, :, None, None]
        assert np.abs(g).max() <= 10.0
        want = (units * sigmoid(g)).reshape(x.shape)
        got = gate.forward(x, training=training)
        assert np.all(np.abs(got - want) <= GATE_RTOL * np.abs(want)), gate.kind


@pytest.mark.parametrize("training", [True, False])
def test_gate_saturates_without_warnings(training):
    # Far out, the gate passes x or shuts to a zero of x's sign. exp(-w ⊙ BN(x))
    # overflows there, and x / inf = ±0 is the limit, not a RuntimeWarning.
    # Batch statistics normalize x in training, so only a large gamma takes
    # the gate that far; w is invariant to its scale.
    rng = np.random.default_rng(20)
    for gate in eval_gates(rng):
        gate.bn.gamma *= 1e8
        x = np.where(rng.random((4, 6, 4, 5)) < 0.5, -1000.0, 1000.0)
        x[0], x[1] = -1000.0, 1000.0  # every unit's batch holds both signs: x - mean has x's sign
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = gate.forward(x, training=training)
        open_ = unit_view(gate, x) * gate.bn.gamma[None, :, None, None] > 0
        assert np.array_equal(unit_view(gate, out), np.where(open_, unit_view(gate, x), 0.0)), gate.kind
        assert np.array_equal(np.signbit(out), np.signbit(x)), gate.kind


@pytest.mark.parametrize("training", [True, False])
def test_gate_propagates_nan(training):
    # In eval the NaN stays where it is; in training it also makes its unit's
    # batch statistics NaN, and so the whole unit.
    rng = np.random.default_rng(21)
    for gate in eval_gates(rng):
        x = rng.standard_normal((2, 6, 4, 5))
        x[1, 2, 3, 4] = np.nan
        out = gate.forward(x, training=training)
        want = np.isnan(x)
        if training:
            units = unit_view(gate, want)
            want = np.broadcast_to(units.any(axis=(0, 2, 3), keepdims=True), units.shape).reshape(x.shape)
        assert np.array_equal(np.isnan(out), want), gate.kind


@pytest.mark.parametrize("training", [True, False])
def test_gate_of_a_float32_input_is_float64(training):
    # Like batch norm, the gate computes in the promoted dtype: a float32 input
    # gives the output of its exact float64 cast.
    rng = np.random.default_rng(22)
    for gate in eval_gates(rng):
        x = rng.standard_normal((2, 6, 4, 5)).astype(np.float32)
        out = gate.forward(x, training=training)
        assert out.dtype == np.float64, gate.kind
        assert np.array_equal(out, gate.forward(x.astype(np.float64), training=training)), gate.kind


@pytest.mark.parametrize("training", [True, False])
def test_gate_reports_the_kinds_mac_count(training):
    rng = np.random.default_rng(23)
    for gate in eval_gates(rng):
        x = rng.standard_normal((2, 6, 4, 5))
        with count_macs() as counter:
            gate.forward(x, training=training)
        assert counter.macs == 8 * x.size, gate.kind


def test_training_forward_moves_the_running_statistics_as_batchnorm_does():
    # The gate's batch norm runs on params whose gamma and beta are replaced
    # and which share gate.bn's running-statistic arrays: a training forward
    # moves them bit for bit as batchnorm on a copy of gate.bn does, and an
    # eval forward leaves them alone.
    rng = np.random.default_rng(29)
    for gate in eval_gates(rng):
        x = rng.standard_normal((3, 6, 4, 5))
        copy, before = bn_copy(gate.bn), bn_copy(gate.bn)
        batchnorm(unit_view(gate, x), copy, True)
        gate.forward(x, training=True)
        for stat in ("running_mean", "running_var"):
            assert np.array_equal(getattr(gate.bn, stat), getattr(copy, stat)), (gate.kind, stat)
            assert not np.array_equal(getattr(gate.bn, stat), getattr(before, stat)), (gate.kind, stat)
        gate.forward(x, training=False)
        for stat in ("running_mean", "running_var"):
            assert np.array_equal(getattr(gate.bn, stat), getattr(copy, stat)), (gate.kind, stat)


@pytest.mark.parametrize("training, maps", [(True, 2), (False, 1)])
def test_gate_forward_peak_holds_its_maps(training, maps):
    # An eval gate works in its output buffer alone; a training gate in s,
    # which it caches, and its output. Beyond them, the peak holds numpy's
    # iteration buffer for a broadcast operand (np.getbufsize() float64s,
    # 64 KiB) and a few per-unit vectors. An allocating gate's BN output,
    # sigmoid numerator and sign mask add a map and more.
    rng = np.random.default_rng(24)
    for gate in eval_gates(rng, h=8, w=8, c=32):
        x = rng.standard_normal((64, 32, 8, 8))  # 1 MiB
        gate.forward(x, training=training)  # first calls allocate numpy's own caches
        tracemalloc.start()
        try:
            out = gate.forward(x, training=training)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == x.nbytes
        assert peak <= maps * x.nbytes + 8 * np.getbufsize() + 2**13, gate.kind


def unit_cache(gate):
    """A copy of the gate's cache (x, s, mean, var), x in s's (n, units, h, w)
    BN layout: the backward consumes the cache and overwrites s."""
    x, s, mean, var = (a.copy() for a in gate._cache)
    return x.reshape(s.shape), s, mean, var


def allocating_nam_backward(cache, bn, grad_out):
    """The gate's backward in closed form, one temporary per operation, in the
    gate's order: dg = (1 - s) * s * grad_out * x, then batch norm's backward
    of dg with scale gamma * w, whose sums S0 = sum(dg) and
    S1 = sum(dg * (x - mean)) * inv give dw = gamma * S1 + beta * S0, and
    grad_x = gamma * w * inv * (dg - S0/m - (x - mean) * inv * S1/m) + grad_out * s."""
    x, s, mean, var = cache
    col = (None, slice(None), None, None)
    w = nam_weights(bn.gamma)
    inv = 1.0 / np.sqrt(var + bn.eps)
    m = x.size // x.shape[1]
    dg = (1.0 - s) * s * grad_out * x
    xc = x - mean[col]
    s0 = np.einsum("nchw->c", dg)
    s1 = np.einsum("nchw,nchw->c", dg, xc) * inv
    bn_x = (xc * (-inv * s1 / m)[col] + dg - (s0 / m)[col]) * (bn.gamma * w * inv)[col]
    dw = bn.gamma * s1 + bn.beta * s0
    dgamma_w = np.sign(bn.gamma) * (dw - np.dot(w, dw)) / np.abs(bn.gamma).sum()
    return bn_x + grad_out * s, w * s1 + dgamma_w, w * s0


def composed_nam_backward(cache, bn, grad_out):
    """The same gradients as the chain of their formulas: dw = sum(dg * BN(x))
    and `batchnorm_grad` of dg * w."""
    x, s, mean, var = cache
    w = nam_weights(bn.gamma)
    xc = x - mean[None, :, None, None]
    y = xc * (bn.gamma / np.sqrt(var + bn.eps))[None, :, None, None] + bn.beta[None, :, None, None]  # BN(x)
    dg = grad_out * x * s * (1.0 - s)
    dw = (dg * y).sum(axis=(0, 2, 3))
    dx_bn, dgamma, dbeta = batchnorm_grad(xc, bn, var, dg * w[None, :, None, None])
    dgamma_w = np.sign(bn.gamma) * (dw - np.dot(w, dw)) / np.abs(bn.gamma).sum()
    return grad_out * s + dx_bn, dgamma + dgamma_w, dbeta


def test_training_backward_equals_the_allocating_formulas_and_leaves_grad_out_alone():
    # The backward works in buffers of its own; it must still evaluate the
    # closed form in its order and never write grad_out. The closed form is
    # the chain through batch norm's backward up to rounding.
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 6, 4, 5))
    for forward, backward, gate in (
        (nam_channel_forward, nam_channel_grad, channel_gate(random_bn(rng, 6))),
        (nam_spatial_forward, nam_spatial_grad, spatial_gate(random_bn(rng, 20), 4, 5)),
    ):
        forward(gate, x)
        cache = unit_cache(gate)  # read before the backward consumes it
        grad_out = rng.standard_normal(x.shape)
        before = grad_out.copy()
        got = backward(gate, grad_out)
        assert np.array_equal(grad_out, before)
        assert not np.shares_memory(got, grad_out)
        units = grad_out.reshape(cache[0].shape)
        want = allocating_nam_backward(cache, gate.bn, units)
        assert np.array_equal(got, want[0].reshape(x.shape))
        assert np.array_equal(gate.param_grads()["gamma"], want[1])
        assert np.array_equal(gate.param_grads()["beta"], want[2])
        for closed, chained in zip(want, composed_nam_backward(cache, gate.bn, units)):
            assert max_rel_err(closed, chained) < 1e-12, gate.kind


def test_backward_with_some_zero_scale_factors_stays_finite_and_matches_the_chain():
    # A zero gamma_i gives unit i the weight 0, so the scale gamma * w that
    # the backward hands batch norm is 0 there: that unit's batch-norm term
    # vanishes, and only grad_out * s reaches its input gradient.
    rng = np.random.default_rng(27)
    x = rng.standard_normal((3, 6, 4, 5))
    for gate in gates(rng):
        gate.bn.gamma[::3] = 0.0
        gate.forward(x)
        cache = unit_cache(gate)
        grad_out = rng.standard_normal(x.shape)
        got = gate.backward(grad_out)
        grads = gate.param_grads()
        assert all(np.all(np.isfinite(a)) for a in (got, grads["gamma"], grads["beta"])), gate.kind
        want = composed_nam_backward(cache, gate.bn, grad_out.reshape(cache[0].shape))
        for value, chained in zip((got.reshape(cache[0].shape), grads["gamma"], grads["beta"]), want):
            assert max_rel_err(value, chained) < 1e-12, gate.kind


def test_marked_gate_backward_holds_one_map_beyond_its_cache():
    # A marked gate builds dg in one new map, grad_out * s in s and grad_x in
    # the cached x; batch norm's backward allocates no map of its own. Beyond
    # dg, the peak holds numpy's iteration buffer for a broadcast operand
    # (np.getbufsize() float64s, 64 KiB) and a few per-unit vectors.
    rng = np.random.default_rng(28)
    for gate in (channel_gate(random_bn(rng, 8)), spatial_gate(random_bn(rng, 256), 16, 16)):
        gate.in_place = True
        x = rng.standard_normal((256, 8, 16, 16))  # 4 MiB
        grad_out = rng.standard_normal(x.shape)
        gate.forward(x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gate.backward(grad_out)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= x.nbytes + 8 * np.getbufsize() + 2**14, gate.kind


@pytest.mark.parametrize("bad", [(3, 2, 4, 5), (3, 6, 5, 4), (3, 6, 4)])
def test_backward_rejects_a_grad_out_of_another_shape(bad):
    # The spatial gate works on (n*c, h*w) units, so a transposed (n, c) or
    # (h, w) would fit its units; both gates compare with the forward's input.
    rng = np.random.default_rng(26)
    for gate in gates(rng):
        gate.forward(rng.standard_normal((3, 6, 4, 5)))
        with pytest.raises(ValidationError, match=rf"grad_out shape \({bad[0]}, .*\(3, 6, 4, 5\)"):
            gate.backward(np.zeros(bad))
        gate.backward(np.zeros((3, 6, 4, 5)))  # the cache is still there


def test_a_marked_gate_writes_its_input_gradient_into_its_input():
    # build_model marks a gate whose input nothing else holds: batch norm's
    # input gradient then goes into the cached x, bit-identical to a
    # standalone gate's, which leaves x alone.
    rng = np.random.default_rng(15)
    for marked, plain in zip(gates(np.random.default_rng(16)), gates(np.random.default_rng(16))):
        marked.in_place = True
        x = rng.standard_normal((3, 6, 4, 5))
        grad_out = rng.standard_normal(x.shape)
        owned = x.copy()
        marked.forward(owned)
        plain.forward(x)
        before = x.copy()
        got = marked.backward(grad_out)
        want = plain.backward(grad_out)
        assert np.shares_memory(got, owned), marked.kind
        assert np.array_equal(x, before), plain.kind
        assert np.array_equal(got, want), marked.kind
        for key in ("gamma", "beta"):
            assert np.array_equal(marked.param_grads()[key], plain.param_grads()[key]), (marked.kind, key)


@pytest.mark.parametrize("in_place", [False, True])
def test_backward_consumes_the_cache(in_place):
    rng = np.random.default_rng(17)
    for gate in gates(rng):
        gate.in_place = in_place
        x = rng.standard_normal((3, 6, 4, 5))
        out = gate.forward(x)
        gate.backward(np.ones_like(out))
        assert gate._cache is None
        assert list(gate.param_grads()) == list(gate.params())
        with pytest.raises(ValidationError, match=f"layer '{gate.kind}'.*training-mode forward"):
            gate.backward(np.ones_like(out))
        gate.forward(x)  # a new training forward makes backward possible again
        gate.backward(np.ones_like(out))


def test_a_marked_gate_leaves_an_input_it_would_round_alone():
    # A float32 input (say a residual sum of float32 maps) cannot hold the
    # float64 gradient: the marked gate allocates it, as a standalone one does.
    rng = np.random.default_rng(18)
    for marked, plain in zip(gates(np.random.default_rng(19)), gates(np.random.default_rng(19))):
        marked.in_place = True
        x = rng.standard_normal((3, 6, 4, 5)).astype(np.float32)
        grad_out = rng.standard_normal(x.shape)
        before = x.copy()
        marked.forward(x)
        plain.forward(x.copy())
        got, want = marked.backward(grad_out), plain.backward(grad_out)
        assert np.array_equal(x, before), marked.kind
        assert got.dtype == np.float64 and np.array_equal(got, want), marked.kind
