"""Tests for graph instantiation, end-to-end backprop, and the demo trainer."""

import numpy as np
import pytest

from fastblocks.config import parse_model_config, propagate_shapes
from fastblocks.errors import TrainingDiverged, ValidationError
from fastblocks.gradcheck import gradcheck
from fastblocks.model import (
    build_model,
    run_demo_train,
    softmax_cross_entropy,
    synthetic_dataset,
)

from fdcheck import fd_grad, max_rel_err


MIXED = """input 3 8 8
conv cin=3 cout=4 k=3 s=1 p=1
bn c=4
relu
residual_begin
fasternet c=4 cp=2
nam_channel c=4
residual_end
conv cin=4 cout=2 k=2 s=2
gap_head classes=2
"""

TINY_TRAINABLE = """input 1 8 8
conv cin=1 cout=4 k=3 s=1 p=1
bn c=4
relu
gap_head classes=2
"""


class TestBuildModel:
    def test_same_seed_gives_bit_identical_parameters(self):
        graph = parse_model_config(MIXED, name="m")
        a = build_model(graph, seed=5)
        b = build_model(graph, seed=5)
        pa, pb = a.params(), b.params()
        assert pa.keys() == pb.keys()
        for key in pa:
            assert np.array_equal(pa[key], pb[key]), key

    def test_different_seed_changes_parameters(self):
        graph = parse_model_config(MIXED, name="m")
        pa = build_model(graph, seed=0).params()
        pb = build_model(graph, seed=1).params()
        assert any(not np.array_equal(pa[k], pb[k]) for k in pa)

    def test_forward_shape_follows_propagation(self):
        graph = parse_model_config(MIXED, name="m")
        model = build_model(graph, seed=0)
        final = propagate_shapes(graph)[-1]
        out = model.forward(np.random.default_rng(0).standard_normal((3, 3, 8, 8)))
        assert out.shape == (3, *final)

    def test_param_keys_are_positional_and_kinded(self):
        graph = parse_model_config(TINY_TRAINABLE, name="t")
        keys = set(build_model(graph, seed=0).params())
        assert keys == {
            "0.conv.weight",
            "0.conv.bias",
            "1.bn.gamma",
            "1.bn.beta",
            "3.gap_head.weight",
            "3.gap_head.bias",
        }


class TestRunningStatistics:
    def test_eval_forward_matches_train_forward_after_warm_up(self):
        # Training forwards must update the running statistics that eval mode
        # reads in every layer that normalizes, not only in bn layers.
        graph = parse_model_config(
            "input 2 6 6\nfasternet c=2 cp=1\nnam_channel c=2\nnam_spatial c=2 h=6 w=6\n"
        )
        model = build_model(graph, seed=0)
        x = np.random.default_rng(0).normal(1.0, 2.0, size=(8, 2, 6, 6))
        for _ in range(200):
            train_out = model.forward(x, training=True)
        eval_out = model.forward(x, training=False)
        assert np.max(np.abs(eval_out - train_out)) <= 1e-6


class TestModelBackward:
    def test_gradcheck_through_residual_graph(self):
        graph = parse_model_config(
            "input 2 4 4\nresidual_begin\nconv cin=2 cout=2 k=3 s=1 p=1\nrelu\nresidual_end\n",
            name="res",
        )
        model = build_model(graph, seed=3)
        report = gradcheck(model, input_seed=3)
        assert report.passed, str(report)

    def test_gradcheck_through_mixed_graph(self):
        graph = parse_model_config(MIXED, name="m")
        model = build_model(graph, seed=2)
        model.input_shape = (2, 3, 8, 8)
        report = gradcheck(model, input_seed=2)
        assert report.passed, str(report)

    def test_input_gradient_matches_finite_differences(self):
        graph = parse_model_config(TINY_TRAINABLE, name="t")
        model = build_model(graph, seed=1)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 1, 8, 8))
        x += 0.1 * np.sign(x)
        v = rng.standard_normal((2, 2, 1, 1))

        def loss():
            return float(np.sum(v * model.forward(x, training=True)))

        model.forward(x, training=True)
        gx = model.backward(v)
        assert max_rel_err(gx, fd_grad(loss, x)) < 1e-4


class TestSyntheticDataset:
    def test_deterministic_and_balanced(self):
        x1, y1 = synthetic_dataset((1, 8, 8), n_samples=64, seed=9)
        x2, y2 = synthetic_dataset((1, 8, 8), n_samples=64, seed=9)
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)
        assert y1.sum() == 32

    def test_positive_class_is_brighter(self):
        x, y = synthetic_dataset((1, 8, 8), n_samples=128, seed=0)
        bright = x[y == 1].mean()
        dark = x[y == 0].mean()
        assert bright > dark + 0.1

    def test_square_sits_in_the_center_region(self):
        x, y = synthetic_dataset((1, 8, 8), n_samples=128, seed=1)
        pos = x[y == 1]
        inside = pos[:, :, 2:6, 2:6].mean()
        outside = pos[:, :, :2, :].mean()
        assert inside > outside + 0.5

    def test_tiny_maps_rejected(self):
        with pytest.raises(ValidationError):
            synthetic_dataset((1, 2, 2))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 1, 2, 0])
        loss, grad = softmax_cross_entropy(logits, labels)
        assert abs(loss - np.log(3.0)) < 1e-12
        assert grad.shape == (4, 3)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((3, 4))
        labels = np.array([1, 0, 3])

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, grad = softmax_cross_entropy(logits, labels)
        assert max_rel_err(grad, fd_grad(loss, logits)) < 1e-6

    def test_rows_of_gradient_sum_to_zero(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((5, 3)) * 4.0
        _, grad = softmax_cross_entropy(logits, np.array([0, 1, 2, 0, 1]))
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_stable_for_large_logits(self):
        # max subtraction keeps exp() in range: confident-correct costs ~0,
        # a 500-nat wrong margin costs ~500, no overflow on either
        logits = np.array([[1000.0, 0.0], [500.0, 0.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0, 1]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))
        assert abs(loss - 250.0) < 1e-6


class TestDemoTraining:
    def test_loss_decreases_on_the_tiny_graph(self):
        graph = parse_model_config(TINY_TRAINABLE, name="t")
        log = run_demo_train(graph, seed=0, steps=25, lr=0.05)
        assert len(log) == 25
        assert log[0].step == 1 and log[-1].step == 25
        assert log[-1].loss < log[0].loss
        assert all(np.isfinite(r.loss) for r in log)

    def test_deterministic_in_seed(self):
        graph = parse_model_config(TINY_TRAINABLE, name="t")
        a = run_demo_train(graph, seed=3, steps=5, lr=0.05)
        b = run_demo_train(graph, seed=3, steps=5, lr=0.05)
        assert [r.loss for r in a] == [r.loss for r in b]

    def test_zero_learning_rate_freezes_the_loss(self):
        graph = parse_model_config(TINY_TRAINABLE, name="t")
        log = run_demo_train(graph, seed=0, steps=5, lr=0.0)
        losses = [r.loss for r in log]
        assert max(losses) - min(losses) < 1e-12

    def test_step_count_validated(self):
        graph = parse_model_config(TINY_TRAINABLE, name="t")
        with pytest.raises(ValidationError):
            run_demo_train(graph, steps=0)

    def test_requires_two_class_gap_head(self):
        headless = parse_model_config("input 1 8 8\nrelu\n", name="h")
        with pytest.raises(ValidationError, match="gap_head"):
            run_demo_train(headless, steps=1)
        three = parse_model_config("input 1 8 8\ngap_head classes=3\n", name="h3")
        with pytest.raises(ValidationError, match="classes=2"):
            run_demo_train(three, steps=1)

    def test_divergence_is_reported(self):
        graph = parse_model_config(TINY_TRAINABLE, name="t")
        with pytest.raises(TrainingDiverged):
            run_demo_train(graph, seed=0, steps=50, lr=1e9)
