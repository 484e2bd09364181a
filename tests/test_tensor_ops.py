"""Tests for the rank-4 kernels: conv2d, batch norm, activations, MAC counting.

Backward passes are checked against central finite differences computed
locally in this file (independent of the library's gradcheck module).
"""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fastblocks import tensor_ops
from fastblocks.errors import ValidationError
from fastblocks.tensor_ops import (
    BNParams,
    ConvSpec,
    as_tensor4,
    batchnorm,
    batchnorm_grad,
    batchnorm_grad_eval,
    conv2d,
    conv2d_grad,
    count_macs,
    elementwise_mul,
    record_macs,
    relu,
    relu_grad,
    residual_add,
    sigmoid,
)

from fdcheck import fd_grad, max_rel_err


# ---------------------------------------------------------------- conv2d


class TestConv2d:
    def test_1x1_kernel_scales_input(self):
        x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        kernel = np.array([[[[5.0]]]])
        out = conv2d(x, kernel, None, ConvSpec(1, 1, 1))
        assert np.array_equal(out, 5.0 * x)

    def test_ones_kernel_sums_window(self):
        x = np.ones((1, 1, 3, 3))
        kernel = np.ones((1, 1, 3, 3))
        out = conv2d(x, kernel, None, ConvSpec(1, 1, 3))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_zero_kernel_gives_zeros(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 6, 6))
        out = conv2d(x, np.zeros((4, 3, 3, 3)), None, ConvSpec(3, 4, 3))
        assert np.array_equal(out, np.zeros((2, 4, 4, 4)))

    def test_bias_broadcast(self):
        x = np.zeros((1, 2, 4, 4))
        bias = np.array([1.5, -2.0])
        out = conv2d(x, np.zeros((2, 2, 1, 1)), bias, ConvSpec(2, 2, 1))
        assert np.allclose(out[0, 0], 1.5)
        assert np.allclose(out[0, 1], -2.0)

    @pytest.mark.parametrize(
        "h, w, k, s, p, expect",
        [
            (5, 5, 3, 1, 0, (3, 3)),
            (5, 5, 3, 1, 1, (5, 5)),
            (7, 7, 3, 2, 0, (3, 3)),
            (28, 28, 5, 1, 2, (28, 28)),
            (8, 8, 2, 2, 0, (4, 4)),
        ],
    )
    def test_output_shape_formula(self, h, w, k, s, p, expect):
        assert ConvSpec(1, 1, k, s, p).out_hw(h, w) == expect

    def test_non_integral_height_rejected(self):
        with pytest.raises(ValidationError, match="height"):
            ConvSpec(1, 1, 2, stride=2).out_hw(5, 4)

    def test_non_integral_width_rejected(self):
        with pytest.raises(ValidationError, match="width"):
            ConvSpec(1, 1, 3, stride=2).out_hw(5, 4)

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ValidationError):
            ConvSpec(1, 1, 5).out_hw(3, 3)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        spec = ConvSpec(2, 3, 3, stride=1, padding=1)
        kernel = rng.standard_normal((3, 2, 3, 3))
        x = rng.standard_normal((2, 2, 5, 5))
        y = rng.standard_normal((2, 2, 5, 5))
        lhs = conv2d(2.5 * x - 0.5 * y, kernel, None, spec)
        rhs = 2.5 * conv2d(x, kernel, None, spec) - 0.5 * conv2d(y, kernel, None, spec)
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_stride_subsamples(self):
        x = np.arange(25, dtype=np.float64).reshape(1, 1, 5, 5)
        out = conv2d(x, np.ones((1, 1, 1, 1)), None, ConvSpec(1, 1, 1, stride=2))
        assert np.array_equal(out[0, 0], x[0, 0, ::2, ::2])

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            conv2d(np.zeros((1, 3, 4, 4)), np.zeros((1, 2, 1, 1)), None, ConvSpec(2, 1, 1))

    def test_kernel_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            conv2d(np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 3, 3)), None, ConvSpec(2, 1, 1))

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("k, s, p, with_bias", [(3, 1, 1, False), (3, 2, 1, True), (1, 1, 0, True)])
    def test_out_into_a_channel_slice_is_bit_identical(self, n, k, s, p, with_bias, monkeypatch):
        # pconv writes its convolved channels into a slice of its output; each
        # tile's GEMM must write there what it writes into a new array.
        monkeypatch.setattr(tensor_ops, "TILE_BYTES", 2048)  # several tiles, of rows and of samples
        rng = np.random.default_rng(n + k + s)
        x = rng.standard_normal((n, 5, 9, 9))
        kernel = rng.standard_normal((4, 5, k, k))
        bias = rng.standard_normal(4) if with_bias else None
        spec = ConvSpec(5, 4, k, s, p)
        with count_macs() as allocating:
            want = conv2d(x, kernel, bias, spec)
        host = np.full((n, 7, *want.shape[2:]), np.nan)
        with count_macs() as into:
            got = conv2d(x, kernel, bias, spec, out=host[:, 2:6])
        assert np.shares_memory(got, host) and got.base is host
        assert np.array_equal(got, want)
        assert np.array_equal(host[:, 2:6], want)
        assert np.isnan(host[:, :2]).all() and np.isnan(host[:, 6:]).all()
        assert into.macs == allocating.macs

    def test_out_is_validated(self):
        x = np.zeros((2, 3, 4, 4))
        kernel = np.zeros((2, 3, 3, 3))
        spec = ConvSpec(3, 2, 3, padding=1)
        for bad, match in [
            (np.empty((2, 2, 4, 3)), "expected"),
            (np.empty((2, 2, 4, 4), np.float32), "expected"),
            (np.empty((2, 2, 4, 8))[..., ::2], "contiguously"),
            (np.empty((2, 2, 4, 4)).transpose(0, 1, 3, 2), "contiguously"),
        ]:
            with pytest.raises(ValidationError, match=match):
                conv2d(x, kernel, None, spec, out=bad)
        both = np.zeros((2, 5, 4, 4))
        with pytest.raises(ValidationError, match="overlap"):
            conv2d(both[:, :3], kernel, None, spec, out=both[:, 3:])


class TestConv2dGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        spec = ConvSpec(2, 3, 3, stride=1, padding=0)
        x = rng.standard_normal((1, 2, 4, 4))
        kernel = rng.standard_normal((3, 2, 3, 3))
        bias = rng.standard_normal(3)
        v = rng.standard_normal((1, 3, 2, 2))

        def loss():
            return float(np.sum(v * conv2d(x, kernel, bias, spec)))

        gx, gk, gb = conv2d_grad(x, kernel, spec, v)
        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-6
        assert max_rel_err(gk, fd_grad(loss, kernel)) < 1e-6
        assert max_rel_err(gb, fd_grad(loss, bias)) < 1e-6

    def test_strided_padded_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        spec = ConvSpec(3, 2, 3, stride=2, padding=1)
        x = rng.standard_normal((2, 3, 7, 7))
        kernel = rng.standard_normal((2, 3, 3, 3))
        v = rng.standard_normal((2, 2, 4, 4))

        def loss():
            return float(np.sum(v * conv2d(x, kernel, None, spec)))

        gx, gk, _ = conv2d_grad(x, kernel, spec, v)
        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-6
        assert max_rel_err(gk, fd_grad(loss, kernel)) < 1e-6

    def test_bias_gradient_is_per_channel_sum(self):
        rng = np.random.default_rng(9)
        spec = ConvSpec(2, 4, 3, padding=1)
        x = rng.standard_normal((3, 2, 5, 5))
        kernel = rng.standard_normal((4, 2, 3, 3))
        grad_out = rng.standard_normal((3, 4, 5, 5))
        _, _, gb = conv2d_grad(x, kernel, spec, grad_out)
        assert np.allclose(gb, grad_out.sum(axis=(0, 2, 3)))

    def test_grad_out_shape_checked(self):
        with pytest.raises(ValidationError):
            conv2d_grad(
                np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 3, 3)), ConvSpec(1, 1, 3), np.zeros((1, 1, 3, 3))
            )


def conv_by_definition(x, kernel, bias, stride, padding):
    """out[n,o,i,j] = bias[o] + sum over c, a, b of kernel[o,c,a,b] * x[n, c, i*s+a-p, j*s+b-p].

    Cross-correlation (no kernel flip), reading zeros outside x.
    """
    n, c_in, h, w = x.shape
    c_out, _, k, _ = kernel.shape
    h_out, w_out = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    out = np.zeros((n, c_out, h_out, w_out))
    for m in range(n):
        for o in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    acc = bias[o]
                    for c in range(c_in):
                        for a in range(k):
                            for b in range(k):
                                r, q = i * stride + a - padding, j * stride + b - padding
                                if 0 <= r < h and 0 <= q < w:
                                    acc += kernel[o, c, a, b] * x[m, c, r, q]
                    out[m, o, i, j] = acc
    return out


ORACLE_CASES = [(k, s, p) for k in (1, 2, 3, 6) for s in (1, 2) for p in (0, 1)]
LAYOUTS = ("contiguous", "channel_slice", "integer")


def oracle_case(k, s, p, layout):
    """(wide, x, kernel, bias, spec, grad_out): x is the first 3 channels of wide.

    "channel_slice" passes that slice itself, a non-contiguous view, as pconv
    does; the other layouts pass a contiguous copy, integer-valued for
    "integer". The output is 4 x 3 for every (k, s, p).
    """
    rng = np.random.default_rng(100 * k + 10 * s + p)
    h, w = 3 * s + k - 2 * p, 2 * s + k - 2 * p
    wide = rng.standard_normal((2, 5, h, w))
    if layout == "integer":
        wide = np.round(3 * wide).astype(np.int64)
    x = wide[:, :3] if layout == "channel_slice" else np.ascontiguousarray(wide[:, :3])
    kernel = rng.standard_normal((2, 3, k, k))
    bias = rng.standard_normal(2)
    grad_out = rng.standard_normal((2, 2, 4, 3))
    return wide, x, kernel, bias, ConvSpec(3, 2, k, s, p), grad_out


class TestConv2dOracle:
    """conv2d and conv2d_grad against the definition and finite differences."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("k, s, p", ORACLE_CASES)
    def test_forward_matches_the_definition(self, k, s, p, layout):
        _, x, kernel, bias, spec, _ = oracle_case(k, s, p, layout)
        out = conv2d(x, kernel, bias, spec)
        assert out.dtype == np.float64
        assert out.shape == (2, 2, 4, 3)
        assert max_rel_err(out, conv_by_definition(x, kernel, bias, s, p)) < 1e-12

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("k, s, p", ORACLE_CASES)
    def test_gradients_match_finite_differences(self, k, s, p, layout):
        wide, x, kernel, bias, spec, v = oracle_case(k, s, p, layout)
        gx, gk, gb = conv2d_grad(x, kernel, spec, v)
        wide = wide.astype(np.float64)  # finite differences need a float array to perturb

        def loss():
            return float(np.sum(v * conv2d(wide[:, :3], kernel, bias, spec)))

        # The loss is linear in each argument, so a central difference has no
        # truncation error at any step; a large step keeps rounding error small.
        fd_x = fd_grad(loss, wide, step=1e-3)
        assert max_rel_err(gx, fd_x[:, :3]) < 1e-6
        assert not fd_x[:, 3:].any()
        assert max_rel_err(gk, fd_grad(loss, kernel, step=1e-3)) < 1e-6
        assert max_rel_err(gb, fd_grad(loss, bias, step=1e-3)) < 1e-6
        if layout == "integer":
            for got, want in zip((gx, gk, gb), conv2d_grad(wide[:, :3], kernel, spec, v)):
                assert np.array_equal(got, want)

    def test_integer_grad_out_matches_its_float_cast(self):
        _, x, kernel, _, spec, _ = oracle_case(3, 2, 1, "contiguous")
        g = np.arange(48).reshape(2, 2, 4, 3) % 5 - 2
        for got, want in zip(conv2d_grad(x, kernel, spec, g), conv2d_grad(x, kernel, spec, g.astype(np.float64))):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)


def conv_by_einsum(x, kernel, bias, stride, padding):
    """Direct oracle: one einsum over the strided window view of the padded input."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, kernel.shape[2:], axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.einsum("nchwab,ocab->nohw", win, kernel)
    return out if bias is None else out + bias[None, :, None, None]


# (n, c_in, c_out, h, w, k, s, p, bias, TILE_BYTES, GEMM column widths per tile)
# Each tile size is at least 16x the weights, so the conv is split.
TILED_CASES = {
    # 27 x 11 columns per output row, 3 rows per tile: 13 rows -> 3+3+3+3+1
    "row_tiles": (1, 3, 2, 13, 11, 3, 1, 1, True, 7128, [33, 33, 33, 33, 11]),
    # stride 2 and padding: 7 x 6 outputs, 5 rows per tile, 2 samples
    "stride_2": (2, 3, 2, 13, 11, 3, 2, 1, False, 7128, [30, 12, 30, 12]),
    # the stem's shape, k=6 s=2 p=2: 7 x 5 outputs, 6 rows per tile
    "k6_s2": (2, 2, 2, 14, 10, 6, 2, 2, True, 18432, [30, 5, 30, 5]),
    # 4 x 4 outputs, 3456 bytes of columns per sample: groups of 2 samples, then 1
    "sample_groups": (5, 3, 2, 6, 6, 3, 1, 0, True, 7128, [16, 16, 16]),
    # a strided 1x1 is copied like any other conv: one sample per tile
    "1x1_stride_2": (3, 3, 2, 9, 7, 1, 2, 0, False, 768, [20, 20, 20]),
    # an unstrided 1x1 reads x itself: one tile, whatever its size
    "1x1_view": (3, 3, 2, 9, 7, 1, 1, 0, True, 8, [63]),
}


def tiled_conv2d(monkeypatch, tile_bytes, x, kernel, bias, spec):
    """conv2d with TILE_BYTES set to tile_bytes; returns (out, the output shape of each tile's GEMM)."""
    tiles = []
    matmul = np.matmul

    def recording_matmul(a, b, out):
        tiles.append(out.shape)
        return matmul(a, b, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(tensor_ops, "TILE_BYTES", tile_bytes)
        patch.setattr(np, "matmul", recording_matmul)
        out = conv2d(x, kernel, bias, spec)
    return out, tiles


class TestConv2dTiles:
    """The tiled im2col conv against a direct oracle, with TILE_BYTES shrunk."""

    @pytest.mark.parametrize("case", TILED_CASES, ids=list(TILED_CASES))
    def test_tiles_cover_the_output_and_match_the_oracle(self, case, monkeypatch):
        n, c_in, c_out, h, w, k, s, p, with_bias, tile_bytes, widths = TILED_CASES[case]
        rng = np.random.default_rng(len(case))
        x = rng.standard_normal((n, c_in, h, w))
        kernel = rng.standard_normal((c_out, c_in, k, k))
        bias = rng.standard_normal(c_out) if with_bias else None
        out, tiles = tiled_conv2d(monkeypatch, tile_bytes, x, kernel, bias, ConvSpec(c_in, c_out, k, s, p))
        assert [t[2] for t in tiles] == widths
        assert sum(t[0] * t[2] for t in tiles) == out.shape[0] * out.shape[2] * out.shape[3]
        assert max_rel_err(out, conv_by_einsum(x, kernel, bias, s, p)) < 1e-12

    def test_large_weights_set_the_tile_to_16x_their_bytes(self, monkeypatch):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4, 20, 20))
        kernel = rng.standard_normal((8, 4, 3, 3))
        spec = ConvSpec(4, 8, 3, padding=1)
        # 16x the weights is 36,864 bytes: 6 of the 20 x 36 x 8 = 5,760-byte output rows
        out, tiles = tiled_conv2d(monkeypatch, 16 * kernel.nbytes - 8, x, kernel, None, spec)
        assert [t[2] for t in tiles] == [120, 120, 120, 40]
        column_bytes = kernel[0].size * x.itemsize
        assert max(t[0] * t[2] for t in tiles) * column_bytes <= 16 * kernel.nbytes
        assert max_rel_err(out, conv_by_einsum(x, kernel, None, 1, 1)) < 1e-12

    @pytest.mark.parametrize("tiled", [False, True])
    def test_output_dtype_is_the_promoted_dtype_of_all_three_operands(self, tiled, monkeypatch):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        kernel = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(2)
        spec = ConvSpec(3, 2, 3, padding=1)
        # tiled: 4 of the 8 output rows per tile, as float32 columns take 864 bytes a row
        tile_bytes = 16 * kernel.nbytes if tiled else tensor_ops.TILE_BYTES
        out, tiles = tiled_conv2d(monkeypatch, tile_bytes, x, kernel, bias, spec)
        assert len(tiles) == (4 if tiled else 1)
        assert out.dtype == np.float64
        assert conv2d(x, kernel, None, spec).dtype == np.float32
        assert conv2d(x, kernel, bias.astype(np.float32), spec).dtype == np.float32
        # float32 products, then the float64 bias: as if the float32 conv were cast and then biased
        want = conv2d(x, kernel, None, spec).astype(np.float64) + bias[None, :, None, None]
        assert np.array_equal(out, want)

    def test_stem_conv_memory_is_bounded_by_the_tile(self):
        # The full im2col matrix of this conv is 88 MB; input 9.8 MB, output 26 MB.
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 3, 640, 640))
        kernel = rng.standard_normal((32, 3, 6, 6))
        bias = np.zeros(32)
        tracemalloc.start()
        try:
            conv2d(x, kernel, bias, ConvSpec(3, 32, 6, stride=2, padding=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_large_weight_conv_memory_is_bounded_by_the_tile(self):
        # yolov5s-like's 128->128 3x3 conv at 80x80: its full im2col matrix is
        # 56 MB; input 6.6 MB, padded input 6.9 MB, output 6.6 MB. Its weights
        # are 1.2 MB, so a tile holds at most 18.9 MB of columns.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 128, 80, 80))
        kernel = rng.standard_normal((128, 128, 3, 3))
        bias = np.zeros(128)
        tracemalloc.start()
        try:
            conv2d(x, kernel, bias, ConvSpec(128, 128, 3, padding=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


# (n, c_in, c_out, h, w, k, s, p, transposed): transposed says whether the
# input gradient runs as a forward conv of grad_out (a second im2col pass)
# rather than as a col2im of the column gradient, tile by tile.
GRAD_PATHS = {
    # stride 1, p <= k-1, c_out <= c_in: the flipped kernel at padding k-1-p
    "transposed": (2, 3, 2, 9, 7, 3, 1, 1, True),
    "transposed_unpadded": (2, 3, 3, 9, 7, 3, 1, 0, True),
    "transposed_even_k": (2, 3, 2, 8, 7, 2, 1, 1, True),
    # c_out > c_in: the transposed columns would outgrow the input; scatter
    "widening": (2, 2, 3, 9, 7, 3, 1, 1, False),
    # p > k-1: the transposed padding would be negative; scatter
    "padding_beyond_k": (2, 3, 2, 6, 5, 2, 1, 2, False),
    # k == s, p == 0: the windows tile the input, so each pixel gets one offset
    "k_equals_s": (2, 3, 2, 16, 12, 2, 2, 0, False),
    "stride_2_padded": (2, 3, 2, 9, 7, 3, 2, 1, False),
    # the stem's shape, k=6 s=2 p=2: row tiles whose windows overlap
    "k6_s2": (2, 2, 2, 14, 10, 6, 2, 2, False),
    # a 1x1, stride-1, unpadded conv reads x, and grad_out, as its columns
    "1x1_view": (2, 3, 2, 9, 7, 1, 1, 0, True),
    "1x1_view_widening": (2, 2, 3, 9, 7, 1, 1, 0, True),
}


def traced_conv2d_grad(monkeypatch, x, kernel, spec, grad_out, out=None):
    """conv2d_grad with TILE_BYTES shrunk to 8, so that a tile holds 16x the
    weights' bytes; returns its gradients, the shape of the array each im2col
    pass tiled, and the number of tiles of each pass, im2col or col2im."""
    im2col, tilings = [], []
    column_tiles, tiles = tensor_ops._column_tiles, tensor_ops._tiles

    def recording_column_tiles(a, spec, weight_bytes):
        im2col.append(a.shape)
        yield from column_tiles(a, spec, weight_bytes)

    def recording_tiles(*args):
        tilings.append(0)
        for tile in tiles(*args):
            tilings[-1] += 1
            yield tile

    with monkeypatch.context() as patch:
        patch.setattr(tensor_ops, "TILE_BYTES", 8)
        patch.setattr(tensor_ops, "_column_tiles", recording_column_tiles)
        patch.setattr(tensor_ops, "_tiles", recording_tiles)
        grads = conv2d_grad(x, kernel, spec, grad_out, out=out)
    return grads, im2col, tilings


class TestConv2dGradPaths:
    """Each input-gradient path of conv2d_grad, with the kernel gradient summed
    over several tiles, and the col2im scattered from several."""

    @pytest.mark.parametrize("case", GRAD_PATHS, ids=list(GRAD_PATHS))
    def test_matches_finite_differences(self, case, monkeypatch):
        n, c_in, c_out, h, w, k, s, p, transposed = GRAD_PATHS[case]
        rng = np.random.default_rng(len(case))
        spec = ConvSpec(c_in, c_out, k, s, p)
        x = rng.standard_normal((n, c_in, h, w))
        kernel = rng.standard_normal((c_out, c_in, k, k))
        bias = rng.standard_normal(c_out)
        v = rng.standard_normal((n, c_out, *spec.out_hw(h, w)))
        (gx, gk, gb), im2col, tilings = traced_conv2d_grad(monkeypatch, x, kernel, spec, v)

        # On the flipped path one tiling of grad_out's columns gives both
        # gradients; otherwise the kernel gradient tiles x and the col2im
        # the column gradient.
        assert im2col == ([v.shape] if transposed else [x.shape])
        assert len(tilings) == (1 if transposed else 2)
        if k > 1:  # a 1x1 view is one tile
            assert tilings[0] > 1
        if not transposed:
            assert tilings[1] > 1

        def loss():
            return float(np.sum(v * conv2d(x, kernel, bias, spec)))

        # Linear loss: a large central-difference step has no truncation error.
        assert max_rel_err(gx, fd_grad(loss, x, step=1e-3)) < 1e-6
        assert max_rel_err(gk, fd_grad(loss, kernel, step=1e-3)) < 1e-6
        assert max_rel_err(gb, fd_grad(loss, bias, step=1e-3)) < 1e-6

    @pytest.mark.parametrize("into", ["new", "x", "channel_slice", "strided"])
    @pytest.mark.parametrize("case", GRAD_PATHS, ids=list(GRAD_PATHS))
    def test_out_receives_the_allocating_results_bit_for_bit(self, case, into, monkeypatch):
        # out may be x itself: the kernel gradient, summed over several
        # tiles of x, must be complete before the input gradient overwrites
        # it. A channel slice of a larger map, whose channel maps are each
        # contiguous, takes the GEMM's output as conv2d's out does; a
        # strided out cannot and is copied into.
        n, c_in, c_out, h, w, k, s, p, _ = GRAD_PATHS[case]
        rng = np.random.default_rng(len(case))
        spec = ConvSpec(c_in, c_out, k, s, p)
        x = rng.standard_normal((n, c_in, h, w))
        kernel = rng.standard_normal((c_out, c_in, k, k))
        v = rng.standard_normal((n, c_out, *spec.out_hw(h, w)))
        want, _, _ = traced_conv2d_grad(monkeypatch, x, kernel, spec, v)
        out = {
            "new": np.empty_like(x),
            "x": x.copy(),
            "channel_slice": np.empty((n, c_in + 2, h, w))[:, 1:-1],
            "strided": np.empty((n, c_in, h, 2 * w))[..., ::2],
        }[into]
        got, _, _ = traced_conv2d_grad(monkeypatch, out if into == "x" else x, kernel, spec, v, out=out)
        assert got[0] is out
        for g, wanted in zip(got, want):
            assert np.array_equal(g, wanted)

    @pytest.mark.parametrize("bad", ["shape", "float32", "grad_out"])
    def test_out_it_cannot_write_exactly_is_refused(self, bad):
        # A float32 out would round the input gradient, and grad_out is still
        # read while it is written.
        rng = np.random.default_rng(6)
        spec = ConvSpec(3, 3, 3, padding=1)
        x = rng.standard_normal((2, 3, 5, 5))
        kernel = rng.standard_normal((3, 3, 3, 3))
        v = rng.standard_normal(x.shape)
        out = {"shape": np.empty((2, 3, 5, 4)), "float32": np.empty(x.shape, np.float32), "grad_out": v}[bad]
        with pytest.raises(ValidationError, match="overlap" if bad == "grad_out" else "expected"):
            conv2d_grad(x, kernel, spec, v, out=out)

    @pytest.mark.parametrize("case", [case for case, path in GRAD_PATHS.items() if not path[-1]])
    def test_col2im_input_gradient_does_not_depend_on_the_tiles(self, case, monkeypatch):
        # Each pixel sums its kernel offsets in (a, b) order, however the
        # output rows are tiled: several tiles give the one tile's result.
        n, c_in, c_out, h, w, k, s, p, _ = GRAD_PATHS[case]
        rng = np.random.default_rng(len(case))
        spec = ConvSpec(c_in, c_out, k, s, p)
        x = rng.standard_normal((n, c_in, h, w))
        kernel = rng.standard_normal((c_out, c_in, k, k))
        v = rng.standard_normal((n, c_out, *spec.out_hw(h, w)))
        (gx, _, _), _, tilings = traced_conv2d_grad(monkeypatch, x, kernel, spec, v)
        assert tilings[1] > 1
        assert np.array_equal(gx, conv2d_grad(x, kernel, spec, v)[0])

    def test_reports_no_macs(self):
        rng = np.random.default_rng(5)
        spec = ConvSpec(3, 2, 3, padding=1)
        x = rng.standard_normal((2, 3, 6, 6))
        with count_macs() as counter:
            conv2d_grad(x, rng.standard_normal((2, 3, 3, 3)), spec, rng.standard_normal((2, 2, 6, 6)))
        assert counter.macs == 0

    @staticmethod
    def grad_peak(x, kernel, spec, grad_out):
        tracemalloc.start()
        try:
            conv2d_grad(x, kernel, spec, grad_out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_demo_pconv_memory_is_bounded_by_the_tiles(self):
        # The demo's first pconv: 4 of 8 channels, 3x3, at 16x16, batch 256.
        # Its full im2col matrix and column gradient are 18.9 MB each. One
        # tiling of grad_out's columns gives both gradients, so the peak is
        # one tile's workspace, the zero-padded grad_out it is cut from and
        # the three outputs, plus 128 KiB for each tile's kernel-gradient
        # product and the per-call vectors.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((256, 8, 16, 16))[:, :4]
        grad_out = rng.standard_normal((256, 8, 16, 16))[:, :4]
        kernel = rng.standard_normal((4, 4, 3, 3))
        spec = ConvSpec(4, 4, 3, padding=1)
        (s0, s1, r0, r1), *_ = tensor_ops._tiles(256, 16, 36 * 16 * 8, kernel.nbytes)
        workspace = (s1 - s0) * (r1 - r0) * 36 * 16 * 8
        padded = 256 * 4 * 18 * 18 * 8
        outputs = x.size * 8 + kernel.nbytes + 4 * 8
        conv2d_grad(x, kernel, spec, grad_out)  # first calls allocate numpy's own caches
        assert self.grad_peak(x, kernel, spec, grad_out) <= workspace + padded + outputs + 2**17

    def test_gradients_have_the_dtype_of_grad_out_and_kernel(self):
        # The kernel gradient is summed in float64 with a float64 x, and
        # returned as float32 like the other two.
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 2, 5, 5))
        kernel = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        for spec in (ConvSpec(2, 2, 3, padding=1), ConvSpec(2, 2, 3, stride=2, padding=1)):
            grad_out = rng.standard_normal((1, 2, *spec.out_hw(5, 5))).astype(np.float32)
            grads = conv2d_grad(x, kernel, spec, grad_out)
            assert [g.dtype for g in grads] == [np.float32] * 3
            want = conv2d_grad(x, kernel.astype(np.float64), spec, grad_out.astype(np.float64))
            assert np.array_equal(grads[1], want[1].astype(np.float32))

    @pytest.mark.parametrize(
        "n, c_in, c_out, hw, limit_mib",
        [
            # the demo's stem: 4.7 MB of column gradient in all, one tile of
            # it (4.2 MB), a 0.7 MB padded input gradient
            (256, 1, 8, 16, 5.4),
            # a 3x3 at 80x80: its weights are 0.6 MB, so a tile holds at most 9.4 MB of
            # the 29.5 MB column gradient; a 3.4 MB padded input gradient
            (1, 64, 128, 80, 24),
        ],
    )
    def test_widening_conv_memory_is_no_more_than_its_scatter(self, n, c_in, c_out, hw, limit_mib):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((n, c_in, hw, hw))
        grad_out = rng.standard_normal((n, c_out, hw, hw))
        kernel = rng.standard_normal((c_out, c_in, 3, 3))
        assert self.grad_peak(x, kernel, ConvSpec(c_in, c_out, 3, padding=1), grad_out) < limit_mib * 2**20

    def test_stem_conv_grad_memory_is_bounded_by_the_tiles(self):
        # The 640x640 stem, 3->32 k=6 s=2 p=2: its full column gradient is
        # 88 MB, the padded input gradient 10 MB, a tile 4.2 MB of columns.
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 3, 640, 640))
        grad_out = rng.standard_normal((1, 32, 320, 320))
        kernel = rng.standard_normal((32, 3, 6, 6))
        assert self.grad_peak(x, kernel, ConvSpec(3, 32, 6, stride=2, padding=2), grad_out) < 20 * 2**20


# ---------------------------------------------------------------- batchnorm


class TestBatchNorm:
    def test_hand_case_two_values(self):
        # batch {1, 3}: mu=2, var=1; gamma=2, beta=1 -> {-1, 3}
        x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1)
        params = BNParams(
            gamma=np.array([2.0]),
            beta=np.array([1.0]),
            running_mean=np.zeros(1),
            running_var=np.ones(1),
            eps=1e-12,
        )
        out, mean, var = batchnorm(x, params, training=True)
        assert abs(mean[0] - 2.0) < 1e-12
        assert abs(var[0] - 1.0) < 1e-12
        assert np.allclose(out.ravel(), [-1.0, 3.0], atol=1e-6)

    def test_training_output_mean_is_beta(self):
        rng = np.random.default_rng(3)
        x = rng.normal(4.0, 2.5, size=(4, 3, 6, 6))
        params = BNParams(
            gamma=rng.uniform(0.5, 2.0, 3),
            beta=rng.uniform(-1.0, 1.0, 3),
            running_mean=np.zeros(3),
            running_var=np.ones(3),
        )
        out, _, _ = batchnorm(x, params, training=True)
        assert np.allclose(out.mean(axis=(0, 2, 3)), params.beta, atol=1e-6)

    def test_training_output_var_shrunk_by_eps(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 3.0, size=(4, 3, 6, 6))
        params = BNParams(
            gamma=rng.uniform(0.5, 2.0, 3),
            beta=np.zeros(3),
            running_mean=np.zeros(3),
            running_var=np.ones(3),
        )
        out, _, var = batchnorm(x, params, training=True)
        expect = params.gamma**2 * var / (var + params.eps)
        assert np.allclose(out.var(axis=(0, 2, 3)), expect, atol=1e-5)

    def test_eval_mode_uses_running_stats(self):
        x = np.full((1, 2, 2, 2), 5.0)
        params = BNParams(
            gamma=np.array([1.0, 2.0]),
            beta=np.array([0.0, 1.0]),
            running_mean=np.array([5.0, 3.0]),
            running_var=np.array([4.0, 1.0]),
            eps=1e-12,
        )
        out, mean, var = batchnorm(x, params, training=False)
        assert np.array_equal(mean, params.running_mean)
        assert np.array_equal(var, params.running_var)
        assert np.allclose(out[0, 0], 0.0, atol=1e-6)  # (5-5)/2
        assert np.allclose(out[0, 1], 5.0, atol=1e-6)  # 2*(5-3)/1 + 1

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            batchnorm(np.zeros((1, 3, 2, 2)), BNParams.identity(2), training=True)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("into_x", [False, True])
    def test_out_receives_the_allocating_results_bit_for_bit(self, training, into_x):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 4, 5, 6))

        def make():  # one copy per call, as a training call updates its running statistics
            return BNParams(
                gamma=np.array([0.5, 1.5, -1.0, 2.0]),
                beta=np.array([0.1, -0.2, 0.3, 0.0]),
                running_mean=np.array([0.2, -0.1, 0.0, 0.4]),
                running_var=np.array([0.5, 2.0, 1.0, 1.5]),
            )

        want_params, got_params = make(), make()
        want = batchnorm(x, want_params, training)
        out = x.copy() if into_x else np.empty_like(x)
        got = batchnorm(out if into_x else x, got_params, training, out=out)
        assert got[0] is out
        for g, wanted in zip(got, want):
            assert np.array_equal(g, wanted)
        assert np.array_equal(got_params.running_mean, want_params.running_mean)
        assert np.array_equal(got_params.running_var, want_params.running_var)

    def test_params_shape_validation(self):
        with pytest.raises(ValidationError):
            BNParams(gamma=np.ones(3), beta=np.ones(2), running_mean=np.zeros(3), running_var=np.ones(3))
        with pytest.raises(ValidationError):
            BNParams(gamma=np.ones(3), beta=np.zeros(3), running_mean=np.zeros(3), running_var=-np.ones(3))
        with pytest.raises(ValidationError):
            BNParams(gamma=np.ones(3), beta=np.zeros(3), running_mean=np.zeros(3), running_var=np.ones(3), eps=0.0)


class TestBatchNormGrad:
    def test_training_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 4, 4))
        params = BNParams(
            gamma=rng.uniform(0.5, 1.5, 3),
            beta=rng.uniform(-0.5, 0.5, 3),
            running_mean=np.zeros(3),
            running_var=np.ones(3),
        )
        v = rng.standard_normal(x.shape)

        def loss():
            out, _, _ = batchnorm(x, params, training=True)
            return float(np.sum(v * out))

        _, mean, var = batchnorm(x, params, training=True)
        gx, ggamma, gbeta = batchnorm_grad(x - mean[None, :, None, None], params, var, v)
        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-5
        assert max_rel_err(ggamma, fd_grad(loss, params.gamma)) < 1e-5
        assert max_rel_err(gbeta, fd_grad(loss, params.beta)) < 1e-5

    def test_eval_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, 4, 4))
        params = BNParams(
            gamma=rng.uniform(0.5, 1.5, 3),
            beta=rng.uniform(-0.5, 0.5, 3),
            running_mean=rng.standard_normal(3),
            running_var=rng.uniform(0.5, 2.0, 3),
        )
        v = rng.standard_normal(x.shape)

        def loss():
            out, _, _ = batchnorm(x, params, training=False)
            return float(np.sum(v * out))

        gx, ggamma, gbeta = batchnorm_grad_eval(x, params, v)
        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-6
        assert max_rel_err(ggamma, fd_grad(loss, params.gamma)) < 1e-6
        assert max_rel_err(gbeta, fd_grad(loss, params.beta)) < 1e-6

    def test_grad_x_comes_back_in_the_centred_input_bit_for_bit(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4, 5, 6))
        params = BNParams(
            gamma=rng.uniform(0.5, 1.5, 4),
            beta=rng.uniform(-0.5, 0.5, 4),
            running_mean=np.zeros(4),
            running_var=np.ones(4),
        )
        v = rng.standard_normal(x.shape)
        _, mean, var = batchnorm(x, params, training=True)
        xc = x - mean[None, :, None, None]
        want = batchnorm_grad(xc.copy(), params, var, v)
        got = batchnorm_grad(xc, params, var, v)
        assert got[0] is xc
        for g, wanted in zip(got, want):
            assert np.array_equal(g, wanted)

    @pytest.mark.parametrize("bad", ["float32", "grad_out"])
    def test_centred_input_it_cannot_write_exactly_is_refused(self, bad):
        # A float32 xc would round the input gradient, and grad_out is read
        # after xc is written.
        rng = np.random.default_rng(15)
        x = rng.standard_normal((3, 4, 5, 6))
        params = BNParams.identity(4)
        _, mean, var = batchnorm(x, params, training=True)
        xc = x - mean[None, :, None, None]
        v = {"float32": rng.standard_normal(x.shape), "grad_out": xc}[bad]
        with pytest.raises(ValidationError, match="overlap" if bad == "grad_out" else "expected"):
            batchnorm_grad(xc.astype(np.float32) if bad == "float32" else xc, params, var, v)

    def test_grad_out_of_another_shape_is_refused(self):
        x = np.random.default_rng(16).standard_normal((3, 4, 5, 6))
        params = BNParams.identity(4)
        _, mean, var = batchnorm(x, params, training=True)
        with pytest.raises(ValidationError, match="grad_out shape"):
            batchnorm_grad(x - mean[None, :, None, None], params, var, np.ones((3, 4, 5, 5)))

    def test_constant_batch_stays_finite(self):
        # zero variance exercises the eps floor
        x = np.full((2, 1, 2, 2), 3.0)
        params = BNParams.identity(1)
        out, mean, var = batchnorm(x, params, training=True)
        assert np.all(np.isfinite(out))
        gx, _, _ = batchnorm_grad(x - mean[None, :, None, None], params, var, np.ones_like(x))
        assert np.all(np.isfinite(gx))


def bn_oracle(x, gamma, beta, eps, g):
    """Textbook training batch norm and its three-term backward, written out.

    Returns (out, mean, var, grad_x, grad_gamma, grad_beta).
    """
    axes = (0, 2, 3)
    col = (None, slice(None), None, None)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mean = x.mean(axis=axes)
    var = ((x - mean[col]) ** 2).mean(axis=axes)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[col]) * inv[col]
    out = gamma[col] * xhat + beta[col]
    dxhat = g * gamma[col]
    grad_x = (inv[col] / m) * (
        m * dxhat - dxhat.sum(axis=axes)[col] - xhat * (dxhat * xhat).sum(axis=axes)[col]
    )
    return out, mean, var, grad_x, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def scaled_err(got, want):
    """Largest absolute difference over the largest magnitude of `want`."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestBatchNormOracle:
    @pytest.mark.parametrize(
        "shape, offset",
        [
            ((64, 8, 5, 5), 0.0),
            ((4 * 8, 36, 1, 1), 0.0),  # the NAM-spatial layout: (n*c, h*w, 1, 1)
            ((64, 8, 5, 5), 1e3),  # a large common offset checks the centring
        ],
    )
    def test_matches_textbook_and_leaves_inputs_unchanged(self, shape, offset):
        rng = np.random.default_rng(21)
        c = shape[1]
        x = rng.normal(offset, 2.0, size=shape)
        g = rng.standard_normal(shape)
        params = BNParams(
            gamma=rng.uniform(0.5, 2.0, c),
            beta=rng.uniform(-1.0, 1.0, c),
            running_mean=rng.normal(offset, 1.0, c),
            running_var=rng.uniform(0.5, 2.0, c),
        )
        inputs = {"x": x, "grad_out": g, "gamma": params.gamma, "beta": params.beta}
        before = {name: a.copy() for name, a in inputs.items()}

        inv = 1.0 / np.sqrt(params.running_var + params.eps)
        col = (None, slice(None), None, None)
        want_eval = (x - params.running_mean[col]) * inv[col] * params.gamma[col] + params.beta[col]
        out_eval, _, _ = batchnorm(x, params, training=False)
        assert scaled_err(out_eval, want_eval) < 1e-13

        want = bn_oracle(x, params.gamma, params.beta, params.eps, g)
        out, mean, var = batchnorm(x, params, training=True)
        gx, ggamma, gbeta = batchnorm_grad(x - mean[col], params, var, g)
        for got, expect in zip((out, mean, var, gx, ggamma, gbeta), want):
            assert scaled_err(got, expect) < 1e-12

        for name, a in inputs.items():
            assert np.array_equal(a, before[name]), f"{name} was written to"
        for result in (out, out_eval, gx):
            assert not np.shares_memory(result, x) and not np.shares_memory(result, g)

    def test_float32_input_is_not_narrowed(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((8, 3, 4, 4)).astype(np.float32)
        g = rng.standard_normal(x.shape)
        params = BNParams.identity(3)
        out, mean, var = batchnorm(x, params, training=True)
        gx, _, _ = batchnorm_grad(x - mean[None, :, None, None], params, var, g)
        assert out.dtype == np.result_type(x, params.gamma) == np.float64
        assert gx.dtype == np.result_type(x, g, params.gamma) == np.float64
        # float32 batch statistics from another caller must not narrow it either:
        # a float32 centring is refused, and a float32 variance keeps the float64 buffer
        mean32 = mean.astype(np.float32)[None, :, None, None]
        with pytest.raises(ValidationError, match="expected float64"):
            batchnorm_grad(x - mean32, params, var.astype(np.float32), g)
        gx32, _, _ = batchnorm_grad(np.subtract(x, mean32, dtype=np.float64), params, var.astype(np.float32), g)
        assert gx32.dtype == np.float64
        out_eval, _, _ = batchnorm(x, params, training=False)
        assert out_eval.dtype == np.float64
        # float64 work buffers: the float32 input behaves like its exact float64 cast
        want = bn_oracle(x.astype(np.float64), params.gamma, params.beta, params.eps, g)
        assert scaled_err(out, want[0]) < 1e-12
        assert scaled_err(gx, want[3]) < 1e-12


# ---------------------------------------------------------------- activations


def test_relu_examples():
    x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
    assert np.array_equal(relu(x).ravel(), [0.0, 0.0, 2.0])


def test_relu_grad_zero_at_and_below_zero():
    x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
    g = relu_grad(x, np.ones_like(x))
    assert np.array_equal(g.ravel(), [0.0, 0.0, 1.0])


def test_sigmoid_matches_reference_formula():
    x = np.linspace(-8.0, 8.0, 33)
    assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-12)


def test_sigmoid_stable_at_extremes():
    with np.errstate(over="raise", invalid="raise"):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0


def test_sigmoid_is_bit_identical_to_the_two_branch_formula():
    def two_branch(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    tails = np.array([-np.inf, -745.0, -40.0, -20.0, -0.0, 0.0, 20.0, 40.0, 710.0, np.inf])
    grid = np.random.default_rng(0).normal(0.0, 10.0, 10_000)
    for x in (tails, grid, grid.astype(np.float32), tails.astype(np.float32)):
        got, want = sigmoid(x), two_branch(x)
        assert got.dtype == want.dtype == x.dtype
        assert np.array_equal(got.view(f"i{x.itemsize}"), want.view(f"i{x.itemsize}"))
    nan = np.array([np.nan, -np.nan, 1.0, -1.0])
    for x in (nan, nan.astype(np.float32)):
        got = sigmoid(x)
        assert np.array_equal(np.isnan(got), np.isnan(x))
        assert np.array_equal(got[2:], two_branch(x)[2:])


def test_residual_add_requires_matching_shapes():
    assert np.array_equal(
        residual_add(np.ones((1, 1, 2, 2)), np.ones((1, 1, 2, 2))), np.full((1, 1, 2, 2), 2.0)
    )
    with pytest.raises(ValidationError):
        residual_add(np.ones((1, 1, 2, 2)), np.ones((1, 1, 2, 3)))


def test_as_tensor4_rejects_wrong_rank():
    with pytest.raises(ValidationError):
        as_tensor4(np.zeros((2, 3, 4)))
    with pytest.raises(ValidationError):
        as_tensor4(np.zeros((2, 0, 4, 4)))


# ---------------------------------------------------------------- MAC counting


class TestMacCounting:
    def test_conv_records_kernel_size_per_output_pixel(self):
        x = np.zeros((2, 3, 8, 8))
        kernel = np.zeros((4, 3, 3, 3))
        with count_macs() as counter:
            conv2d(x, kernel, None, ConvSpec(3, 4, 3, padding=1))
        assert counter.macs == 2 * 8 * 8 * 4 * 3 * 3 * 3

    def test_elementwise_op_counts(self):
        x = np.zeros((1, 2, 3, 3))
        with count_macs() as counter:
            relu(x)
        assert counter.macs == x.size
        with count_macs() as counter:
            batchnorm(x, BNParams.identity(2), training=True)
        assert counter.macs == 2 * x.size
        with count_macs() as counter:
            sigmoid(x)
        assert counter.macs == 4 * x.size
        with count_macs() as counter:
            elementwise_mul(x, x)
        assert counter.macs == x.size
        with count_macs() as counter:
            residual_add(x, x)
        assert counter.macs == x.size

    def test_nested_counters_both_accumulate(self):
        with count_macs() as outer:
            record_macs(5)
            with count_macs() as inner:
                record_macs(7)
        assert inner.macs == 7
        assert outer.macs == 12

    def test_no_counter_is_a_no_op(self):
        record_macs(1000)  # must not raise
        with count_macs() as counter:
            pass
        assert counter.macs == 0
