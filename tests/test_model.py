"""Tests for graph instantiation, end-to-end backprop, and the demo trainer."""

import tracemalloc
from importlib import resources

import numpy as np
import pytest

from fastblocks import layers as L
from fastblocks.complexity import analyze_graph
from fastblocks.config import parse_model_config, propagate_shapes
from fastblocks.errors import TrainingDiverged, ValidationError
from fastblocks.gradcheck import gradcheck
from fastblocks.kinds import KINDS
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

    def test_demo_param_keys_in_order(self):
        # A fasternet block lists its parts' arrays under its own short keys.
        text = resources.files("fastblocks").joinpath("configs", "demo-fasternet-nam.cfg").read_text()
        block = ["pconv_w", "pw1_w", "pw1_b", "bn1_gamma", "bn1_beta", "pw2_w", "pw2_b"]
        assert list(build_model(parse_model_config(text), seed=0).params()) == [
            "0.conv.weight",
            "0.conv.bias",
            "1.bn.gamma",
            "1.bn.beta",
            *(f"3.fasternet.{key}" for key in block),
            "4.nam_channel.gamma",
            "4.nam_channel.beta",
            "5.conv.weight",
            "5.conv.bias",
            "6.bn.gamma",
            "6.bn.beta",
            *(f"8.fasternet.{key}" for key in block),
            "9.nam_spatial.gamma",
            "9.nam_spatial.beta",
            "10.gap_head.weight",
            "10.gap_head.bias",
        ]

    @pytest.mark.parametrize("config", ["yolov5s-like", "demo-fasternet-nam"])
    def test_each_layer_is_named_after_its_analyze_graph_row(self, config):
        text = resources.files("fastblocks").joinpath("configs", f"{config}.cfg").read_text()
        graph = parse_model_config(text, name=config)
        names = [layer.name for layer in build_model(graph, seed=0).layer_objects()]
        rows = [row.layer_id for row in analyze_graph(graph).rows if row.layer_kind != "residual_add"]
        assert names == rows
        assert len(set(names)) == len(names)


class TestInPlaceRelu:
    """build_model lets a ReLU whose input nothing else holds overwrite it."""

    def demo(self):
        text = resources.files("fastblocks").joinpath("configs", "demo-fasternet-nam.cfg").read_text()
        return build_model(parse_model_config(text), seed=0)

    @pytest.mark.parametrize("training", [True, False])
    def test_relu_after_bn_writes_into_bn_output(self, training):
        model = self.demo()
        h = np.random.default_rng(0).standard_normal((4, 1, 16, 16))
        outputs = []
        for item in model.items:  # the demo has no residual markers
            h = item.forward(h, training)
            outputs.append(h)
        pairs = [i for i, item in enumerate(model.items) if isinstance(item, L.ReLU)]
        assert [model.items[i].name for i in pairs] == ["002:relu", "007:relu"]
        for i in pairs:
            assert isinstance(model.items[i - 1], L.BatchNorm)
            assert np.shares_memory(outputs[i], outputs[i - 1])
            assert outputs[i].min() >= 0.0

    def test_a_residual_marker_between_bn_and_relu_keeps_bn_output(self):
        graph = parse_model_config(
            "input 2 4 4\nconv cin=2 cout=2 k=3 s=1 p=1\nbn c=2\nresidual_begin\nrelu\nresidual_end\n"
        )
        model = build_model(graph, seed=0)
        relu = model.items[3]
        assert isinstance(relu, L.ReLU) and not relu.in_place
        x = np.random.default_rng(1).standard_normal((3, 2, 4, 4))
        bn_out = model.items[1].forward(model.items[0].forward(x, True), True)
        assert bn_out.min() < 0.0
        assert np.array_equal(model.forward(x), bn_out + np.maximum(bn_out, 0.0))  # the skip kept BN's output

    def test_only_a_relu_right_after_a_bn_is_marked(self):
        """Of these three ReLUs only the one after the bn owns its input: the
        first item's input is the caller's, and a ReLU caches its output."""
        graph = parse_model_config("input 2 4 4\nrelu\nbn c=2\nrelu\nrelu\n")
        model = build_model(graph, seed=0)
        assert [item.in_place for item in model.items if isinstance(item, L.ReLU)] == [False, True, False]
        assert not L.ReLU().in_place

    GRAPH = """input 4 4 4
conv cin=4 cout=4 k=3 s=1 p=1
relu
residual_begin
nam_channel c=4
relu
residual_end
relu
fasternet c=4 cp=2
relu
gap_head classes=2
"""

    def test_relus_after_any_fresh_map_are_marked(self):
        model = build_model(parse_model_config(self.GRAPH), seed=0)
        marks = {item.name: item.in_place for item in model.items if isinstance(item, L.ReLU)}
        assert marks == {"001:relu": True, "004:relu": True, "006:relu": True, "008:relu": True}

    @pytest.mark.parametrize("training", [True, False])
    def test_marked_relus_give_the_unmarked_results(self, training):
        graph = parse_model_config(self.GRAPH)
        marked, plain = build_model(graph, seed=3), build_model(graph, seed=3)
        for item in plain.items:
            if isinstance(item, L.ReLU):
                item.in_place = False
        x = np.random.default_rng(4).standard_normal((3, 4, 4, 4))
        before = x.copy()
        assert np.array_equal(marked.forward(x, training), plain.forward(x, training))
        assert np.array_equal(x, before)
        if training:
            grad_out = np.random.default_rng(5).standard_normal((3, 2, 1, 1))
            assert np.array_equal(marked.backward(grad_out), plain.backward(grad_out))
            for (key, g), (_, w) in zip(marked.param_grads().items(), plain.param_grads().items()):
                assert np.array_equal(g, w), key


class TestInPlaceGates:
    """build_model lets a NAM gate whose input nothing else holds write into it in backward."""

    GRAPH = """input 4 4 4
nam_channel c=4
relu
nam_channel c=4
fasternet c=4 cp=2
nam_spatial c=4 h=4 w=4
nam_channel c=4
residual_begin
nam_channel c=4
residual_end
nam_spatial c=4 h=4 w=4
conv cin=4 cout=4 k=1
nam_channel c=4
gap_head classes=2
"""

    def test_gates_after_a_fresh_map_are_marked(self):
        model = build_model(parse_model_config(self.GRAPH), seed=0)
        marks = {item.name: item.in_place for item in model.items if isinstance(item, (L.NAMChannel, L.NAMSpatial))}
        assert marks == {
            "000:nam_channel": False,  # the caller's input
            "002:nam_channel": False,  # a ReLU caches its output
            "004:nam_spatial": True,  # after fasternet
            "005:nam_channel": True,  # after nam_spatial
            "007:nam_channel": False,  # the skip holds it
            "009:nam_spatial": True,  # after residual_end
            "011:nam_channel": True,  # after conv
        }
        assert not L.NAMChannel(4).in_place and not L.NAMSpatial(4, 4).in_place

    def test_marked_gates_give_the_standalone_results(self):
        # Every gate is bit-identical to an unmarked copy, and the model's
        # input gradient and parameter gradients with them.
        graph = parse_model_config(self.GRAPH)
        marked, plain = build_model(graph, seed=3), build_model(graph, seed=3)
        for item in plain.items:
            if isinstance(item, (L.NAMChannel, L.NAMSpatial)):
                item.in_place = False
        x = np.random.default_rng(4).standard_normal((3, 4, 4, 4))
        before = x.copy()
        grad_out = np.random.default_rng(5).standard_normal((3, 2, 1, 1))
        marked.forward(x)
        plain.forward(x)
        got, want = marked.backward(grad_out), plain.backward(grad_out)
        assert np.array_equal(got, want)
        assert np.array_equal(x, before)
        for (key, g), (_, w) in zip(marked.param_grads().items(), plain.param_grads().items()):
            assert np.array_equal(g, w), key


CONFIGS = sorted(f.name[:-4] for f in resources.files("fastblocks").joinpath("configs").iterdir() if f.name.endswith(".cfg"))


@pytest.mark.parametrize("config", CONFIGS)
def test_build_model_marks_no_top_level_bn(config):
    """build_model marks only ReLUs and NAM gates; a batch norm layer always
    allocates its output (`layers.BatchNorm.forward` says why)."""
    text = resources.files("fastblocks").joinpath("configs", f"{config}.cfg").read_text()
    model = build_model(parse_model_config(text, name=config), seed=0)
    assert not any(item.in_place for item in model.items if isinstance(item, L.BatchNorm))


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


EVERY_KIND = """input 2 6 6
conv cin=2 cout=4 k=3 s=1 p=1
bn c=4
relu
residual_begin
pconv c=4 cp=2
pwconv cin=4 cout=4
residual_end
fasternet c=4 cp=2
nam_channel c=4
nam_spatial c=4 h=6 w=6
gap_head classes=2
"""


class TestEvalModeKeepsNoState:
    """An eval forward is the inference path: it keeps nothing for backward."""

    @pytest.fixture()
    def model(self):
        graph = parse_model_config(EVERY_KIND)
        assert {node.kind for node in graph.layers} == set(KINDS)
        return build_model(graph, seed=0)

    @pytest.fixture()
    def x(self):
        return np.random.default_rng(0).standard_normal((64, 2, 6, 6))

    def test_eval_forward_drops_every_cache(self, model, x):
        model.forward(x, training=True)
        model.forward(x, training=False)
        assert [layer.name for layer in model.layer_objects() if layer._cache is not None] == []

    def test_eval_forward_retains_no_activation(self, model, x):
        model.forward(x, training=False)  # first calls allocate numpy's own caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = model.forward(x, training=False)
            held = tracemalloc.get_traced_memory()[0] - before - out.nbytes
        finally:
            tracemalloc.stop()
        assert held < x.nbytes  # each feature map this model computes is at least as large as x

    def test_backward_after_eval_forward_names_the_layer(self, model, x):
        model.forward(x, training=True)
        out = model.forward(x, training=False)
        with pytest.raises(ValidationError, match="layer '010:gap_head'.*training-mode forward"):
            model.backward(np.ones_like(out))
        for layer in model.layer_objects():
            with pytest.raises(ValidationError, match=f"layer '{layer.name}'"):
                layer.backward(np.ones_like(out))

    def test_backward_before_any_forward_names_the_layer(self, model):
        with pytest.raises(ValidationError, match="layer '010:gap_head'"):
            model.backward(np.ones((64, 2, 1, 1)))
        for layer in model.layer_objects():
            with pytest.raises(ValidationError, match=f"layer '{layer.name}'"):
                layer.backward(np.ones((64, 2, 1, 1)))

    def test_apply_gradients_before_any_backward_names_the_layer(self, model):
        with pytest.raises(ValidationError, match="layer '000:conv'.*backward"):
            model.apply_gradients(0.1)
        for layer in model.layer_objects():
            if layer.params():
                with pytest.raises(ValidationError, match=f"layer '{layer.name}'"):
                    layer.apply_gradients(0.1)


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

    def test_one_demo_step_peaks_under_52_mib(self):
        # A FasterNet block keeps t1 and pconv's convolved channels and
        # writes its parts' input gradients into their dead inputs, a ReLU
        # after BN writes into BN's output, and the NAM gates do not keep
        # BN(x), consume their cache and write into their owned input.
        # Holding every cache through the block's backward peaks at 98.6 MiB;
        # a block that keeps all of t0 and relu(bn1(t1)), with gates that
        # allocate their input gradient, at 64.6 MiB.
        text = resources.files("fastblocks").joinpath("configs", "demo-fasternet-nam.cfg").read_text()
        graph = parse_model_config(text)
        model = build_model(graph, seed=1)
        x, labels = synthetic_dataset(graph.input_shape, n_samples=256, seed=1)

        def step():
            logits = model.forward(x, training=True)[:, :, 0, 0]
            _, dlogits = softmax_cross_entropy(logits, labels)
            model.backward(dlogits[:, :, None, None])
            model.apply_gradients(0.05)

        step()  # warm-up: the first calls allocate numpy's own caches
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 52 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_divergence_is_reported(self):
        graph = parse_model_config(TINY_TRAINABLE, name="t")
        with pytest.raises(TrainingDiverged):
            run_demo_train(graph, seed=0, steps=50, lr=1e9)
