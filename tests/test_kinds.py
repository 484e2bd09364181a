"""Property test: the parser, the analyzer and the builder agree on every config.

Configs are generated from the attribute schema in `kinds.KINDS`, with
attribute values in -1..9 so that out-of-range values are drawn too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastblocks.complexity import analyze_graph
from fastblocks.config import (
    GraphSpec,
    LayerNode,
    parse_model_config,
    propagate_shapes,
    serialize_model_config,
)
from fastblocks.errors import ValidationError
from fastblocks.kinds import KINDS
from fastblocks.model import build_model
from fastblocks.tensor_ops import count_macs

VALUES = st.integers(-1, 9)


@st.composite
def graphs(draw):
    shape = tuple(draw(st.integers(1, 8)) for _ in range(3))
    nodes = []
    c, h, w = shape
    for _ in range(draw(st.integers(1, 6))):
        name = draw(st.sampled_from(sorted(KINDS)))
        kind = KINDS[name]
        # Mostly take values that fit the incoming shape, so that many drawn
        # configs stay valid past their first layers.
        likely = {"cp": 1, "k": 1, **kind.defaults, "cin": c, "c": c, "h": h, "w": w}
        attrs = {
            key: likely[key] if key in likely and draw(st.integers(0, 9)) else draw(VALUES)
            for key in kind.attrs
        }
        nodes.append(LayerNode(name, attrs))
        try:
            c, h, w = propagate_shapes(GraphSpec("prefix", shape, nodes))[-1]
        except ValidationError:
            pass
    return GraphSpec("drawn", shape, nodes)


def unchecked_text(graph):
    """The config text of a drawn graph, written without checking it
    (serialize_model_config refuses graphs the parser would reject)."""
    lines = ["input {} {} {}".format(*graph.input_shape), *(node.attr_text() for node in graph.layers)]
    return "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None)
@given(graphs())
def test_parser_analyzer_and_builder_accept_the_same_configs(graph):
    text = unchecked_text(graph)
    try:
        parsed = parse_model_config(text, name=graph.name)
    except ValidationError:
        with pytest.raises(ValidationError):
            build_model(graph)
        with pytest.raises(ValidationError):
            serialize_model_config(graph)
        return
    assert parsed == graph
    assert serialize_model_config(parsed) == text
    model = build_model(parsed)
    with count_macs() as counter:
        model.forward(np.ones((1, *graph.input_shape)), training=False)
    assert counter.macs == analyze_graph(parsed).total_flops


def same(a, b):
    """Bit for bit: equal shape, dtype and bytes, NaNs included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(graphs())
def test_in_place_marks_change_no_result(graph):
    """build_model's `in_place` marks let ReLUs and NAM gates overwrite maps
    nothing else holds. A copy with every mark cleared gives the same
    training output, input gradient, parameter gradients (in order) and
    eval output, bit for bit, and neither copy writes the caller's x or
    grad_out."""
    try:
        marked = build_model(graph, seed=1)
    except ValidationError:
        return
    plain = build_model(graph, seed=1)
    for layer in plain.layer_objects():
        layer.in_place = False
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, *graph.input_shape))
    x_before = x.copy()
    out = marked.forward(x)
    assert same(out, plain.forward(x))
    grad_out = rng.standard_normal(out.shape)
    grad_before = grad_out.copy()
    assert same(marked.backward(grad_out), plain.backward(grad_out))
    got, want = marked.param_grads(), plain.param_grads()
    assert list(got) == list(want)
    for key in got:
        assert same(got[key], want[key]), key
    assert same(marked.forward(x, training=False), plain.forward(x, training=False))
    assert same(x, x_before) and same(grad_out, grad_before)
