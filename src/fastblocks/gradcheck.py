"""Finite-difference verification of analytic backward passes.

A checkable unit is anything with `name`, `input_shape`, `forward(x)`,
`backward(grad_out)`, `params()` and `param_grads()`. A Layer or a Model
qualifies once it is given an `input_shape`; `standard_suite` returns the
layers and a composite themselves, each renamed for its report line. The
check fixes a random cotangent v, defines the scalar loss
L = sum(v * forward(x)), takes the analytic dL/d(element) from one backward
pass, and compares it against central differences (h = 1e-5, 64-bit)
element by element. Large units are probed on a seeded random subset of at
least 100 elements; small units exhaustively. Probes are training forwards,
which move BN running statistics, so they run on a deep copy of the unit.

Error metric: |analytic - numeric| / max(|analytic|, |numeric|), falling back
to the absolute difference when that denominator is below 1e-8. Any
non-finite value encountered anywhere is a hard failure naming the location.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

_STEP = 1e-5  # central-difference step h
_MAX_ELEMENTS = 256  # units with more elements are probed on a random subset


class GradCheckFailure(RuntimeError):
    """A non-finite value appeared during gradient checking."""


@dataclass(frozen=True)
class GradReport:
    """Outcome of one gradcheck run."""

    unit_name: str
    max_rel_error: float
    param_count_checked: int
    passed: bool

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.unit_name:<28s} max_rel_error={self.max_rel_error:.3e} "
            f"checked={self.param_count_checked:<5d} {status}"
        )


def _require_finite(arr: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(np.asarray(arr)))[0]
        raise GradCheckFailure(f"non-finite value in {where} at index {tuple(bad)}")


def gradcheck(unit, input_seed: int = 0, tolerance: float = 1e-4) -> GradReport:
    """Compare unit.backward against central finite differences.

    Perturbs input elements and every parameter tensor; checks all elements
    when the unit has at most _MAX_ELEMENTS of them, otherwise a seeded
    random subset of about that many.
    """
    unit = copy.deepcopy(unit)  # the caller's unit comes back untouched
    rng = np.random.default_rng(input_seed)
    x = rng.standard_normal(unit.input_shape)
    # Keep clear of the relu/abs kinks so the finite difference sees one branch.
    x += 0.1 * np.sign(x)

    y = unit.forward(x)
    _require_finite(y, f"{unit.name} forward output")
    v = rng.standard_normal(y.shape)

    grad_x = unit.backward(v.copy())
    _require_finite(grad_x, f"{unit.name} input gradient")
    analytic = [("input", x, np.array(grad_x, copy=True))]
    for key, p in unit.params().items():
        g = unit.param_grads()[key]
        _require_finite(g, f"{unit.name} gradient of {key}")
        analytic.append((key, p, np.array(g, copy=True)))

    def loss() -> float:
        out = unit.forward(x)
        _require_finite(out, f"{unit.name} forward output")
        return float(np.sum(v * out))

    total = sum(t.size for _, t, _ in analytic)
    per_tensor = None  # None probes every element
    if total > _MAX_ELEMENTS:
        per_tensor = {}
        for name, t, _ in analytic:
            n = max(1, round(_MAX_ELEMENTS * t.size / total))
            per_tensor[name] = rng.choice(t.size, size=min(n, t.size), replace=False)

    max_err = 0.0
    checked = 0
    for name, t, g in analytic:
        flat = t.reshape(-1)
        gflat = g.reshape(-1)
        indices = range(t.size) if per_tensor is None else per_tensor[name]
        for i in indices:
            orig = flat[i]
            flat[i] = orig + _STEP
            lp = loss()
            flat[i] = orig - _STEP
            lm = loss()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * _STEP)
            if not np.isfinite(numeric):
                raise GradCheckFailure(f"non-finite finite-difference for {unit.name} {name}[{i}]")
            ana = gflat[i]
            denom = max(abs(ana), abs(numeric))
            err = abs(ana - numeric) if denom < 1e-8 else abs(ana - numeric) / denom
            if err > max_err:
                max_err = err
            checked += 1

    return GradReport(
        unit_name=unit.name,
        max_rel_error=float(max_err),
        param_count_checked=checked,
        passed=bool(max_err <= tolerance),
    )


def standard_suite(seed: int = 0) -> list:
    """The stock set of checkable units: every differentiable layer, named and
    given an input shape, plus a three-layer composite, with seeded random
    parameters."""
    from . import blocks, layers
    from .config import parse_model_config
    from .model import build_model
    from .tensor_ops import ConvSpec

    rng = np.random.default_rng(seed)

    def randomize(bn, signed=True):
        # Scales away from zero keep |gamma| differentiable at the probe points.
        c = bn.channels
        bn.gamma[:] = rng.uniform(0.5, 1.5, c) * (rng.choice([-1.0, 1.0], c) if signed else 1.0)
        bn.beta[:] = rng.uniform(-0.5, 0.5, c)

    conv = layers.Conv2d(ConvSpec(3, 4, 3, stride=2, padding=1), rng=rng)
    bn = layers.BatchNorm(5)
    randomize(bn.bn, signed=False)
    pw = layers.PWConv(blocks.PWConvSpec(6, 3), rng=rng)
    pc = layers.PConv(blocks.PConvSpec(6, 2, 3), rng=rng)
    block = layers.FasterNetBlock(blocks.FasterNetBlockSpec(4, 2, 3, 2), rng=rng)
    nam_c, nam_s = layers.NAMChannel(6), layers.NAMSpatial(4, 4)
    randomize(nam_c.bn)
    randomize(nam_s.bn)
    units = []
    for layer, name, input_shape in [
        (conv, "conv2d(3->4,k3,s2,p1)", (2, 3, 7, 7)),
        (bn, "batchnorm(c=5)", (3, 5, 4, 4)),
        (pw, "pwconv(6->3)", (2, 6, 5, 5)),
        (pc, "pconv(c=6,cp=2,k=3)", (2, 6, 6, 6)),
        (block, "fasternet(c=4,cp=2,e=2)", (2, 4, 5, 5)),
        (nam_c, "nam_channel(c=6)", (3, 6, 4, 4)),
        (nam_s, "nam_spatial(4x4)", (2, 3, 4, 4)),
    ]:
        layer.name, layer.input_shape = name, input_shape
        units.append(layer)

    composite_cfg = "\n".join(
        [
            "input 3 6 6",
            "conv cin=3 cout=4 k=3 s=1 p=1",
            "bn c=4",
            "relu",
        ]
    )
    composite = build_model(parse_model_config(composite_cfg, name="conv-bn-relu"), seed=seed)
    composite.input_shape = (2, 3, 6, 6)
    composite.name = "composite(conv-bn-relu)"
    units.append(composite)
    return units
