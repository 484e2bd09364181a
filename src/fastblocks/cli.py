"""Command-line entry points.

    fastblocks analyze <model.cfg> [--json]
    fastblocks compare <base.cfg> <new.cfg> [--json]
    fastblocks gradcheck [--seed N] [--tol T]
    fastblocks evaluate --gt <file> --det <file> [--iou T | --range] [--json]
    fastblocks train-demo <model.cfg> [--steps N] [--lr X] [--seed N]

Config arguments are resolved first against the filesystem, then against the
configs bundled with the package (so `fastblocks analyze yolov5s-like.cfg`
works from anywhere). Exit codes: 0 success, 1 validation or degenerate
input, 2 I/O or parse failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

from .complexity import ComplexityReport, analyze_graph, compare_reports
from .config import load_model_config
from .errors import DegenerateInputError, ParseError, TrainingDiverged, ValidationError
from .gradcheck import gradcheck, standard_suite
from .metrics import RANGE_THRESHOLDS, evaluate, load_detections, load_ground_truths
from .model import run_demo_train


def _resolve_config(arg: str) -> Path:
    path = Path(arg)
    if path.exists():
        return path
    if path.name == arg:  # bare name: fall back to the bundled configs
        bundled = resources.files("fastblocks").joinpath("configs", arg)
        with resources.as_file(bundled) as concrete:
            if concrete.exists():
                return concrete
    raise FileNotFoundError(f"config file not found: {arg}")


def _print_report(name: str, report: ComplexityReport) -> None:
    print(f"model: {name}")
    print(f"{'layer':<22s} {'kind':<16s} {'params':>12s} {'flops':>16s}  out shape")
    for row in report.rows:
        shape = "x".join(str(d) for d in row.out_shape)
        print(f"{row.layer_id:<22s} {row.layer_kind:<16s} {row.params:>12,d} {row.flops:>16,d}  {shape}")
    print(f"{'total':<22s} {'':<16s} {report.total_params:>12,d} {report.total_flops:>16,d}")
    print(f"total params: {report.total_params:,d} ({report.total_params / 1e6:.3f} M)")
    print(f"total flops : {report.total_flops:,d} ({report.total_flops / 1e9:.3f} G)")


def _cmd_analyze(args) -> int:
    graph = load_model_config(_resolve_config(args.config))
    report = analyze_graph(graph)
    if args.json:
        payload = {
            "name": graph.name,
            "total_params": report.total_params,
            "total_flops": report.total_flops,
            "rows": [asdict(r) for r in report.rows],
        }
        print(json.dumps(payload, indent=2))
    else:
        _print_report(graph.name, report)
    return 0


def _cmd_compare(args) -> int:
    base_graph = load_model_config(_resolve_config(args.base))
    new_graph = load_model_config(_resolve_config(args.new))
    diff = compare_reports(analyze_graph(base_graph), analyze_graph(new_graph))
    if args.json:
        payload = {"base": base_graph.name, "new": new_graph.name, **asdict(diff)}
        print(json.dumps(payload, indent=2))
        return 0
    def direction(pct: float) -> str:
        return "reduction" if pct >= 0 else "increase"

    print(f"base: {base_graph.name}   new: {new_graph.name}")
    print(
        f"params: {diff.base_params:,d} -> {diff.new_params:,d}  "
        f"({abs(diff.param_delta_pct):.2f}% {direction(diff.param_delta_pct)})"
    )
    print(
        f"flops : {diff.base_flops / 1e9:.3f} G -> {diff.new_flops / 1e9:.3f} G  "
        f"({abs(diff.flops_delta_pct):.2f}% {direction(diff.flops_delta_pct)})"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    failed = False
    for unit in standard_suite(args.seed):
        report = gradcheck(unit, input_seed=args.seed, tolerance=args.tol)
        print(report)
        failed |= not report.passed
    return 1 if failed else 0


def _cmd_evaluate(args) -> int:
    gts = load_ground_truths(args.gt)
    dets = load_detections(args.det)
    thresholds = RANGE_THRESHOLDS if args.range else (args.iou,)
    result = evaluate(dets, gts, thresholds)
    if args.json:
        payload = {
            "map50": result.map50,
            "map5095": result.map5095,
            "dataset_precision": result.dataset_precision,
            "dataset_recall": result.dataset_recall,
            "no_detections": result.no_detections,
            "per_category_ap": {
                str(cat): {f"{t:.2f}": ap for t, ap in aps.items()}
                for cat, aps in result.per_category_ap.items()
            },
        }
        print(json.dumps(payload, indent=2))
        return 0
    primary = 0.5 if 0.5 in thresholds else thresholds[0]
    print(f"categories: {len(result.per_category_ap)}")
    for cat, aps in sorted(result.per_category_ap.items()):
        print(f"  category {cat}: " + "  ".join(f"AP@{t:.2f}={ap:.4f}" for t, ap in aps.items()))
    print(f"dataset precision @{primary:.2f}: {result.dataset_precision:.4f}"
          + ("  (no detections)" if result.no_detections else ""))
    print(f"dataset recall    @{primary:.2f}: {result.dataset_recall:.4f}")
    print(f"mAP@{primary:.2f}: {result.map50:.4f}")
    if args.range:
        print(f"mAP@.5:.95: {result.map5095:.4f}")
    return 0


def _cmd_train_demo(args) -> int:
    graph = load_model_config(_resolve_config(args.config))
    log = run_demo_train(graph, seed=args.seed, steps=args.steps, lr=args.lr)
    for record in log[-10:]:
        print(f"step {record.step:>4d}  loss {record.loss:.6f}")
    first, last = log[0], log[-1]
    print(f"initial loss {first.loss:.6f} -> final loss {last.loss:.6f} "
          f"({last.loss / first.loss * 100:.1f}% of initial)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastblocks",
        description="Efficient CNN building blocks: cost analysis, gradient checks, detection metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="static parameter/FLOP report for a model config")
    p.add_argument("config", help="config file path or bundled config name")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="cost deltas between two model configs")
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference check of every backward pass")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("evaluate", help="AP/mAP evaluation of detections against ground truth")
    p.add_argument("--gt", required=True, help="ground-truth file")
    p.add_argument("--det", required=True, help="detections file")
    thresholds = p.add_mutually_exclusive_group()
    thresholds.add_argument("--iou", type=float, default=0.5, help="IoU threshold (default 0.5)")
    thresholds.add_argument("--range", action="store_true", help="evaluate the 0.50:0.05:0.95 range")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("train-demo", help="train a config on the synthetic two-class task")
    p.add_argument("config")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_train_demo)
    return parser


def cli_dispatch(argv: list[str]) -> int:
    """Run one CLI invocation and return its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateInputError, ValidationError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
