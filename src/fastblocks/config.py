"""Line-oriented model description files.

A config is a header line `input <c> <h> <w>` followed by one layer per line.
Lines are read by `errors.tokenize`: they end at `\n`, `#` starts a comment,
and blank lines are skipped. Layers take `key=value`
integer attributes; `kinds.KINDS` declares each kind's required and optional
attributes and every rule that checks them.

Parsing validates everything it can statically: attribute sets and ranges,
channel continuity from layer to layer, exact integral conv output sizes,
matched residual markers with equal shapes at the join, and nam_spatial dims
against the propagated map. Errors carry 1-based line numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from numbers import Integral
from typing import Any

from .errors import ParseError, ValidationError, read_text, tokenize
from .kinds import KINDS, Shape, check_attrs


@dataclass
class LayerNode:
    """One layer line: kind plus its integer attributes.

    The source line number is kept for error messages but ignored by
    equality, so parse(serialize(g)) == g holds.
    """

    kind: str
    attrs: dict[str, int]
    line: int = field(default=-1, compare=False)

    def attr_text(self) -> str:
        parts = [f"{key}={self.attrs[key]}" for key in KINDS[self.kind].attrs if key in self.attrs]
        return " ".join([self.kind, *parts])


@dataclass
class GraphSpec:
    """A named layer sequence with its (c, h, w) input shape."""

    name: str
    input_shape: tuple[int, int, int]
    layers: list[LayerNode]


def parse_model_config(text: str, name: str = "model") -> GraphSpec:
    """Parse and fully validate a config; raises ParseError with line numbers."""
    input_shape = None
    nodes: list[LayerNode] = []
    for lineno, fields in tokenize(text):
        head = fields[0]
        if input_shape is None:
            if head != "input":
                raise ParseError(f"expected 'input <c> <h> <w>' header, got '{head}'", lineno)
            if len(fields) != 4:
                raise ParseError("input header takes exactly 3 integers: c h w", lineno)
            dims = [_parse_int(v, "input dimension", lineno) for v in fields[1:]]
            if min(dims) < 1:
                raise ParseError(f"input dimensions must be >= 1, got {tuple(dims)}", lineno)
            input_shape = (dims[0], dims[1], dims[2])
            continue
        if head == "input":
            raise ParseError("duplicate input header", lineno)
        if head not in KINDS:
            raise ParseError(f"unknown layer kind '{head}'", lineno)
        given: dict[str, str] = {}
        for token in fields[1:]:
            if "=" not in token:
                raise ParseError(f"expected key=value attribute, got '{token}'", lineno)
            key, _, value = token.partition("=")
            if key in given:
                raise ParseError(f"duplicate attribute '{key}'", lineno)
            given[key] = value
        defaults = KINDS[head].defaults
        try:
            check_attrs(head, [*given, *defaults])
        except ValidationError as exc:
            raise ParseError(str(exc), lineno) from None
        attrs = {key: _parse_int(value, f"attribute '{key}'", lineno) for key, value in given.items()}
        for key, default in defaults.items():
            attrs.setdefault(key, default)
        nodes.append(LayerNode(head, attrs, lineno))
    if input_shape is None:
        raise ParseError("config has no 'input' header", text.count("\n") + (not text.endswith("\n")))
    graph = GraphSpec(name=name, input_shape=input_shape, layers=nodes)
    propagate_shapes(graph)  # full static validation
    return graph


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got '{token}'", lineno) from None


def serialize_model_config(graph: GraphSpec) -> str:
    """Canonical text of a graph, checked first; parse(serialize(g), name=g.name) == g."""
    walk_graph(graph)
    lines = ["input {} {} {}".format(*graph.input_shape)]
    lines.extend(node.attr_text() for node in graph.layers)
    return "\n".join(lines) + "\n"


def load_model_config(path) -> GraphSpec:
    """Read a config file; the graph is named after the file stem."""
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_model_config(read_text(path), name=stem)


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _located(node: LayerNode, message: str) -> ValidationError:
    return ValidationError(f"line {node.line}: {message}" if node.line > 0 else message)


def _node_error(node: LayerNode, message: str) -> ValidationError:
    return _located(node, f"layer '{node.kind}': {message}")


def walk_graph(graph: GraphSpec) -> list[tuple[str, LayerNode, Any, Shape, Shape]]:
    """Check the whole graph against `KINDS`; one (id, node, spec, in, out) per layer.

    The id (`000:conv`) names the `analyze_graph` row and the `build_model`
    layer. Every check runs before anything is returned, so callers that
    build or cost the graph see only valid layers. Residual markers pass
    their shape through.
    """
    shape = tuple(graph.input_shape)
    if len(shape) != 3 or not all(_is_int(v) and v >= 1 for v in shape):
        raise ValidationError(f"input shape must be (c, h, w) of positive ints, got {shape}")
    steps = []
    stack: list[tuple[Shape, LayerNode]] = []
    for idx, node in enumerate(graph.layers):
        a = node.attrs
        kind = KINDS.get(node.kind)
        if kind is None:
            raise _node_error(node, "unknown layer kind")
        try:
            check_attrs(node.kind, a)
        except ValidationError as exc:
            raise _located(node, str(exc)) from None
        for key, value in a.items():
            if not _is_int(value):
                raise _node_error(node, f"attribute '{key}' must be an integer, got {value!r}")
        channel_attr = "cin" if "cin" in kind.attrs else "c" if "c" in kind.attrs else None
        if channel_attr is not None and a[channel_attr] != shape[0]:
            raise _node_error(
                node, f"declared {channel_attr}={a[channel_attr]} but incoming channels are {shape[0]}"
            )
        try:
            spec = kind.spec(a)
            out = kind.shape(spec, shape)
        except ValidationError as exc:
            raise _node_error(node, str(exc)) from None
        if node.kind == "residual_begin":
            stack.append((shape, node))
        elif node.kind == "residual_end":
            if not stack:
                raise _node_error(node, "residual_end without matching residual_begin")
            saved, _ = stack.pop()
            if saved != shape:
                raise _node_error(
                    node, f"branch output shape {shape} != skip shape {saved} at the join"
                )
        steps.append((f"{idx:03d}:{node.kind}", node, spec, shape, out))
        shape = out
    if stack:
        raise _node_error(stack[-1][1], "residual_begin without matching residual_end")
    return steps


def propagate_shapes(graph: GraphSpec) -> list[Shape]:
    """Walk the graph, checking continuity; returns each layer's output shape.

    Residual markers appear in the result with their pass-through shape.
    """
    return [out for *_, out in walk_graph(graph)]
