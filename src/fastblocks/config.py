"""Line-oriented model description files.

A config is a header line `input <c> <h> <w>` followed by one layer per line.
`#` starts a comment; blank lines are skipped. Layers take `key=value`
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
from typing import Any

from .errors import ParseError, ValidationError
from .kinds import KINDS, Shape


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
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
        kind = KINDS[head]
        attrs: dict[str, int] = {}
        for token in fields[1:]:
            if "=" not in token:
                raise ParseError(f"expected key=value attribute, got '{token}'", lineno)
            key, _, value = token.partition("=")
            if key not in kind.attrs:
                raise ParseError(f"unknown attribute '{key}' for layer '{head}'", lineno)
            if key in attrs:
                raise ParseError(f"duplicate attribute '{key}'", lineno)
            attrs[key] = _parse_int(value, f"attribute '{key}'", lineno)
        for key, default in kind.defaults.items():
            attrs.setdefault(key, default)
        for key in kind.attrs:
            if key not in attrs:
                raise ParseError(f"layer '{head}' is missing required attribute '{key}'", lineno)
        nodes.append(LayerNode(head, attrs, lineno))
    if input_shape is None:
        raise ParseError("config has no 'input' header", len(text.splitlines()) or 1)
    graph = GraphSpec(name=name, input_shape=input_shape, layers=nodes)
    propagate_shapes(graph)  # full static validation
    return graph


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got '{token}'", lineno) from None


def serialize_model_config(graph: GraphSpec) -> str:
    """Canonical text form; parse(serialize(g), name=g.name) == g."""
    lines = ["input {} {} {}".format(*graph.input_shape)]
    lines.extend(node.attr_text() for node in graph.layers)
    return "\n".join(lines) + "\n"


def load_model_config(path, name: str | None = None) -> GraphSpec:
    """Read a config file; the graph is named after the file stem by default."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_model_config(text, name=name if name is not None else stem)


def _node_error(node: LayerNode, message: str) -> ValidationError:
    where = f"line {node.line}: " if node.line > 0 else ""
    return ValidationError(f"{where}layer '{node.kind}': {message}")


def walk_graph(
    graph: GraphSpec, input_shape: Shape | None = None
) -> list[tuple[LayerNode, Any, Shape, Shape]]:
    """Check the whole graph against `KINDS`; one (node, spec, in, out) per layer.

    Every check runs before anything is returned, so callers that build or
    cost the graph see only valid layers. Residual markers pass their shape
    through.
    """
    shape = tuple(input_shape if input_shape is not None else graph.input_shape)
    if len(shape) != 3 or min(shape) < 1:
        raise ValidationError(f"input shape must be (c, h, w) of positive ints, got {shape}")
    steps = []
    stack: list[tuple[Shape, LayerNode]] = []
    for node in graph.layers:
        a = node.attrs
        kind = KINDS.get(node.kind)
        if kind is None:
            raise _node_error(node, "unknown layer kind")
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
        steps.append((node, spec, shape, out))
        shape = out
    if stack:
        raise _node_error(stack[-1][1], "residual_begin without matching residual_end")
    return steps


def propagate_shapes(graph: GraphSpec, input_shape: Shape | None = None) -> list[Shape]:
    """Walk the graph, checking continuity; returns each layer's output shape.

    Residual markers appear in the result with their pass-through shape.
    """
    return [out for _, _, _, out in walk_graph(graph, input_shape)]
