"""Static parameter and FLOP accounting for model graphs.

The closed-form cost of each layer kind, and the counting conventions, are
declared with the kind in `kinds.KINDS`; this module walks a graph and sums
them into a report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import PConvSpec
from .config import GraphSpec, walk_graph
from .errors import DegenerateInputError, ValidationError
from .kinds import KINDS
from .tensor_ops import ConvSpec

LAYER_KINDS = tuple(kind.row for kind in KINDS.values() if kind.row is not None)


@dataclass(frozen=True)
class LayerCost:
    """Parameter and FLOP cost of one graph row, with its output shape."""

    layer_id: str
    layer_kind: str
    params: int
    flops: int
    out_shape: tuple[int, int, int]

    def __post_init__(self):
        if self.layer_kind not in LAYER_KINDS:
            raise ValidationError(f"unknown layer kind '{self.layer_kind}'")
        if self.params < 0 or self.flops < 0:
            raise ValidationError("params and flops must be nonnegative")


@dataclass(frozen=True)
class ComplexityReport:
    """Ordered per-layer costs plus totals (totals always equal the sums)."""

    rows: tuple[LayerCost, ...]
    total_params: int
    total_flops: int

    @classmethod
    def from_rows(cls, rows) -> "ComplexityReport":
        rows = tuple(rows)
        return cls(
            rows=rows,
            total_params=sum(r.params for r in rows),
            total_flops=sum(r.flops for r in rows),
        )


@dataclass(frozen=True)
class DiffReport:
    """Relative change between two reports; positive deltas are reductions."""

    base_params: int
    new_params: int
    base_flops: int
    new_flops: int
    param_delta_pct: float
    flops_delta_pct: float


def conv_flops(spec: ConvSpec, out_h: int, out_w: int) -> int:
    """Multiply-accumulates of a conv producing an out_h x out_w map."""
    if out_h < 1 or out_w < 1:
        raise ValidationError(f"output dims must be >= 1, got {(out_h, out_w)}")
    return KINDS["conv"].cost(spec, None, (spec.c_out, out_h, out_w))[1]


def pconv_cost(c: int, c_p: int, k: int, h: int, w: int) -> tuple[int, float]:
    """(flops, reduction factor vs a full c->c conv) for a partial convolution.

    The reduction factor is exactly (c_p / c)^2.
    """
    _, flops = KINDS["pconv"].cost(PConvSpec(c, c_p, k), None, (c, h, w))
    return flops, (c_p / c) ** 2


def analyze_graph(graph: GraphSpec, input_shape: tuple[int, int, int] | None = None) -> ComplexityReport:
    """Closed-form cost report for a graph; empty graphs cost nothing.

    residual_begin emits no row; residual_end emits the join's add as a
    `residual_add` row, so rows cover exactly the cost-bearing operations.
    """
    rows = []
    for idx, (node, spec, in_shape, out_shape) in enumerate(walk_graph(graph, input_shape)):
        kind = KINDS[node.kind]
        if kind.row is None:
            continue
        params, flops = kind.cost(spec, in_shape, out_shape)
        rows.append(LayerCost(f"{idx:03d}:{node.kind}", kind.row, params, flops, out_shape))
    return ComplexityReport.from_rows(rows)


def compare_reports(base: ComplexityReport, new: ComplexityReport) -> DiffReport:
    """Relative deltas (base - new) / base * 100; positive means reduction.

    A zero-cost baseline admits no relative comparison and is rejected.
    """
    if base.total_params == 0 or base.total_flops == 0:
        raise DegenerateInputError(
            "cannot compare against a baseline with zero params or zero flops"
        )
    return DiffReport(
        base_params=base.total_params,
        new_params=new.total_params,
        base_flops=base.total_flops,
        new_flops=new.total_flops,
        param_delta_pct=(base.total_params - new.total_params) / base.total_params * 100.0,
        flops_delta_pct=(base.total_flops - new.total_flops) / base.total_flops * 100.0,
    )
