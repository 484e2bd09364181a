"""The layer kinds of the config dialect, each declared once.

`KINDS` maps a config kind to its `LayerKind`: the attributes it takes, the
spec that range-checks them, its output shape, its closed-form cost and the
item `build_model` makes from it. Parsing, shape checking, `analyze_graph`,
`build_model` and serialization all walk this one table, so they accept
exactly the same configs.

Counting conventions of the cost rules (one multiply-accumulate = one FLOP,
per sample):

    conv         params cout*cin*k^2 + cout     flops cin*cout*k^2*h_out*w_out
    pwconv       params cout*cin + cout         flops cin*cout*h*w
    pconv        params cp^2*k^2 (no bias)      flops cp^2*k^2*h*w
    bn           params 2c                      flops 2 per element
    relu         params 0                       flops 1 per element
    nam_channel  params 2c                      flops 8 per element (BN 2 + 2 muls + sigmoid 4)
    nam_spatial  params 2*h*w                   flops 8 per element
    fasternet    sum of constituents            + residual add (1 per element)
    residual_end params 0                       flops 1 per element (row kind residual_add)
    gap_head     params classes*c + classes     flops c*h*w + c*classes

Bias adds are excluded from conv flops. These closed forms are the static
side of the two-route cost check; `tensor_ops.count_macs` measures the other
route at execution time and the two must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Any, Callable

from . import layers as L
from .blocks import FasterNetBlockSpec, PConvSpec, PWConvSpec
from .errors import ValidationError
from .tensor_ops import ConvSpec

Shape = tuple[int, int, int]


class ResidualBegin:
    """Model item that saves its input as the skip of a residual join."""

    kind = "residual_begin"


class ResidualEnd:
    """Model item that adds the saved skip to its input."""

    kind = "residual_end"


@dataclass(frozen=True)
class LayerKind:
    """Everything the package knows about one config layer kind.

    attrs:    attribute names in serialized order; those in `defaults` are
              optional, the rest required.
    spec:     attrs dict -> the object the other rules take; raises
              ValidationError on values out of range.
    shape:    (spec, incoming shape) -> outgoing shape; may raise
              ValidationError.
    cost:     (spec, in shape, out shape) -> (params, flops) of one sample.
    build:    (spec, in shape, rng) -> the model item.
    row:      the analyze_graph row kind; None emits no row.

    A kind with a `cin` or else a `c` attribute must receive that many
    channels; the walker in `config` checks this for every kind.
    """

    build: Callable[[Any, Shape, Any], Any]
    attrs: tuple[str, ...] = ()
    row: str | None = None
    cost: Callable[[Any, Shape, Shape], tuple[int, int]] | None = None
    defaults: dict[str, int] = field(default_factory=dict)
    spec: Callable[[dict[str, int]], Any] = lambda a: a
    shape: Callable[[Any, Shape], Shape] = lambda spec, shape: shape


def _dense(weights: int, bias: int, out: Shape) -> tuple[int, int]:
    """One weight tensor applied at every output position, plus a bias."""
    return weights + bias, weights * out[1] * out[2]


def _gap_classes(a: dict[str, int]) -> int:
    if a["classes"] < 1:
        raise ValidationError(f"classes must be >= 1, got {a['classes']}")
    return a["classes"]


def _same_map(a: dict[str, int], shape: Shape) -> Shape:
    if (a["h"], a["w"]) != shape[1:]:
        raise ValidationError(
            f"declared map {a['h']}x{a['w']} but incoming map is {shape[1]}x{shape[2]}"
        )
    return shape


def _fasternet_cost(s: FasterNetBlockSpec, shape: Shape, _) -> tuple[int, int]:
    c, h, w = shape
    hidden = (s.hidden, h, w)
    parts = (
        KINDS["pconv"].cost(s.pconv_spec(), shape, shape),
        KINDS["pwconv"].cost(PWConvSpec(c, s.hidden), shape, hidden),
        KINDS["bn"].cost(None, hidden, hidden),
        KINDS["relu"].cost(None, hidden, hidden),
        KINDS["pwconv"].cost(PWConvSpec(s.hidden, c), hidden, shape),
        KINDS["residual_end"].cost(None, shape, shape),
    )
    return sum(p for p, _ in parts), sum(f for _, f in parts)


KINDS: dict[str, LayerKind] = {
    "conv": LayerKind(
        attrs=("cin", "cout", "k", "s", "p"),
        defaults={"s": 1, "p": 0},
        spec=lambda a: ConvSpec(a["cin"], a["cout"], a["k"], a["s"], a["p"]),
        shape=lambda s, shape: (s.c_out, *s.out_hw(shape[1], shape[2])),
        row="conv",
        cost=lambda s, _, out: _dense(s.c_out * s.c_in * s.k * s.k, s.c_out, out),
        build=lambda s, _, rng: L.Conv2d(s, rng=rng),
    ),
    "pconv": LayerKind(
        attrs=("c", "cp", "k"),
        defaults={"k": 3},
        spec=lambda a: PConvSpec(a["c"], a["cp"], a["k"]),
        row="pconv",
        cost=lambda s, _, out: _dense(s.c_p * s.c_p * s.k * s.k, 0, out),
        build=lambda s, _, rng: L.PConv(s, rng=rng),
    ),
    "pwconv": LayerKind(
        attrs=("cin", "cout"),
        spec=lambda a: PWConvSpec(a["cin"], a["cout"]),
        shape=lambda s, shape: (s.c_out, shape[1], shape[2]),
        row="pwconv",
        cost=lambda s, _, out: _dense(s.c_out * s.c_in, s.c_out, out),
        build=lambda s, _, rng: L.PWConv(s, rng=rng),
    ),
    "bn": LayerKind(
        attrs=("c",),
        row="bn",
        cost=lambda _, shape, __: (2 * shape[0], 2 * prod(shape)),
        build=lambda _, shape, __: L.BatchNorm(shape[0]),
    ),
    "relu": LayerKind(
        row="relu",
        cost=lambda _, shape, __: (0, prod(shape)),
        build=lambda *_: L.ReLU(),
    ),
    "fasternet": LayerKind(
        attrs=("c", "cp", "k", "e"),
        defaults={"k": 3, "e": 2},
        spec=lambda a: FasterNetBlockSpec(a["c"], a["cp"], a["k"], a["e"]),
        row="fasternet_block",
        cost=_fasternet_cost,
        build=lambda s, _, rng: L.FasterNetBlock(s, rng=rng),
    ),
    "nam_channel": LayerKind(
        attrs=("c",),
        row="nam_channel",
        cost=lambda _, shape, __: (2 * shape[0], 8 * prod(shape)),
        build=lambda _, shape, __: L.NAMChannel(shape[0]),
    ),
    "nam_spatial": LayerKind(
        attrs=("c", "h", "w"),
        shape=_same_map,
        row="nam_spatial",
        cost=lambda _, shape, __: (2 * shape[1] * shape[2], 8 * prod(shape)),
        build=lambda _, shape, __: L.NAMSpatial(shape[1], shape[2]),
    ),
    "residual_begin": LayerKind(build=lambda *_: ResidualBegin()),
    "residual_end": LayerKind(
        row="residual_add",
        cost=lambda _, shape, __: (0, prod(shape)),
        build=lambda *_: ResidualEnd(),
    ),
    "gap_head": LayerKind(
        attrs=("classes",),
        spec=_gap_classes,
        shape=lambda classes, _: (classes, 1, 1),
        row="gap_head",
        cost=lambda n, shape, _: (n * shape[0] + n, prod(shape) + shape[0] * n),
        build=lambda classes, shape, rng: L.GapHead(shape[0], classes, rng=rng),
    ),
}
