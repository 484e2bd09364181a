"""Tests for the finite-difference gradient checker itself.

The checker has to accept known-correct backward passes at tight
tolerances, reject a deliberately corrupted one, and fail hard on
non-finite values rather than report a number.
"""

import numpy as np
import pytest

from fastblocks import layers
from fastblocks.blocks import PWConvSpec
from fastblocks.gradcheck import GradCheckFailure, GradReport, gradcheck, standard_suite
from fastblocks.tensor_ops import ConvSpec


class UnitAdapter:
    """Expose a layer to gradcheck with a fixed input shape."""

    def __init__(self, name, layer, input_shape):
        self.name = name
        self.layer = layer
        self.input_shape = input_shape

    def forward(self, x):
        return self.layer.forward(x, training=True)

    def backward(self, grad_out):
        return self.layer.backward(grad_out)

    def params(self):
        return self.layer.params()

    def param_grads(self):
        return self.layer.param_grads()


class ScaleUnit:
    """y = 3x, no parameters; central differences are exact on linear maps."""

    name = "scale(3)"
    input_shape = (2, 2, 3, 3)

    def forward(self, x):
        return 3.0 * x

    def backward(self, grad_out):
        return 3.0 * grad_out

    def params(self):
        return {}

    def param_grads(self):
        return {}


class CorruptedBackward(UnitAdapter):
    def backward(self, grad_out):
        return 2.0 * self.layer.backward(grad_out)

    def param_grads(self):
        return {k: 2.0 * v for k, v in self.layer.param_grads().items()}


class NonFiniteForward:
    name = "nan-forward"
    input_shape = (1, 1, 2, 2)

    def forward(self, x):
        out = x.copy()
        out[0, 0, 0, 0] = np.nan
        return out

    def backward(self, grad_out):
        return grad_out

    def params(self):
        return {}

    def param_grads(self):
        return {}


def test_linear_unit_checks_at_machine_precision():
    report = gradcheck(ScaleUnit())
    assert report.passed
    assert report.max_rel_error < 1e-7
    assert report.param_count_checked == 2 * 2 * 3 * 3


def test_conv_layer_passes_tightly():
    rng = np.random.default_rng(0)
    unit = UnitAdapter("conv", layers.Conv2d(ConvSpec(2, 3, 3, padding=1), rng=rng), (1, 2, 5, 5))
    report = gradcheck(unit)
    assert report.passed
    assert report.max_rel_error < 1e-6


def test_corrupted_backward_is_detected():
    rng = np.random.default_rng(1)
    unit = CorruptedBackward("bad-conv", layers.Conv2d(ConvSpec(2, 2, 3, padding=1), rng=rng), (1, 2, 5, 5))
    report = gradcheck(unit)
    assert not report.passed
    assert report.max_rel_error > 0.1


def test_non_finite_forward_raises():
    with pytest.raises(GradCheckFailure, match="non-finite"):
        gradcheck(NonFiniteForward())


def test_large_units_probe_a_subset():
    rng = np.random.default_rng(2)
    unit = UnitAdapter("conv-big", layers.Conv2d(ConvSpec(4, 8, 3, padding=1), rng=rng), (2, 4, 8, 8))
    total = 2 * 4 * 8 * 8 + 8 * 4 * 3 * 3 + 8
    report = gradcheck(unit)
    assert report.passed
    assert 100 <= report.param_count_checked < total

    # all elements visited when the unit is small enough
    small = UnitAdapter("conv-small", layers.Conv2d(ConvSpec(1, 1, 1), rng=rng), (1, 1, 3, 3))
    full = gradcheck(small)
    assert full.param_count_checked == 9 + 1 + 1


def test_report_formatting_names_the_unit():
    report = GradReport(unit_name="u", max_rel_error=2e-5, param_count_checked=10, passed=True)
    text = str(report)
    assert "u" in text and "PASS" in text
    assert "FAIL" in str(
        GradReport(unit_name="u", max_rel_error=1.0, param_count_checked=10, passed=False)
    )


def test_standard_suite_covers_every_block_and_passes():
    suite = standard_suite(seed=0)
    names = [unit.name for unit in suite]
    assert len(suite) == 8
    assert len(set(names)) == 8
    for fragment in ("conv2d", "batchnorm", "pwconv", "pconv", "fasternet",
                     "nam_channel", "nam_spatial", "composite"):
        assert any(fragment in n for n in names), fragment
    for unit in suite:
        report = gradcheck(unit, input_seed=0, tolerance=1e-4)
        assert report.passed, str(report)


def test_standard_suite_checks_the_layers_themselves():
    *singles, composite = standard_suite(seed=0)
    assert composite.name == "composite(conv-bn-relu)"
    for unit in singles:
        assert isinstance(unit, layers.Layer), unit.name
        assert gradcheck(unit).unit_name == unit.name
    assert [unit.name for unit in singles] == [
        "conv2d(3->4,k3,s2,p1)", "batchnorm(c=5)", "pwconv(6->3)", "pconv(c=6,cp=2,k=3)",
        "fasternet(c=4,cp=2,e=2)", "nam_channel(c=6)", "nam_spatial(4x4)",
    ]


def test_gradcheck_leaves_the_checked_unit_untouched():
    changed = []
    for unit in standard_suite(seed=0):
        runner = getattr(unit, "layer", unit)  # Model, or the layer inside an adapter
        x = np.random.default_rng(7).standard_normal(unit.input_shape)
        params = {k: v.copy() for k, v in unit.params().items()}
        out = runner.forward(x, training=False)
        gradcheck(unit, input_seed=0)
        same_params = all(np.array_equal(v, params[k]) for k, v in unit.params().items())
        if not (same_params and np.array_equal(runner.forward(x, training=False), out)):
            changed.append(unit.name)
    assert changed == []


def test_standard_suite_seed_changes_parameters():
    a = standard_suite(seed=0)
    b = standard_suite(seed=1)
    wa = a[0].weight
    wb = b[0].weight
    assert not np.array_equal(wa, wb)


def test_pwconv_unit_is_exactly_linear_in_weights():
    rng = np.random.default_rng(3)
    unit = UnitAdapter("pw", layers.PWConv(PWConvSpec(3, 2), rng=rng), (2, 3, 4, 4))
    report = gradcheck(unit)
    assert report.passed
    assert report.max_rel_error < 1e-6
