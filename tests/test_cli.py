"""Tests for the command-line interface: exit codes, output contracts,
bundled-config resolution, and JSON/human-mode agreement."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fastblocks.cli import cli_dispatch
from fastblocks.complexity import analyze_graph
from fastblocks.config import load_model_config

TINY_CFG = """input 1 8 8
conv cin=1 cout=2 k=3 s=1 p=1
bn c=2
relu
gap_head classes=2
"""

SRC = str(Path(__file__).resolve().parent.parent / "src")
GT_TEXT = "a 0 0 0 10 10\nb 1 2 2 5 5\n"
DET_TEXT = "a 0 0 0 10 10 0.9\nb 1 2 2 5 5 0.8\n"


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- analyze


class TestAnalyze:
    def test_bundled_config_by_bare_name(self, capsys):
        code, out, _ = run(capsys, "analyze", "demo-fasternet-nam.cfg")
        assert code == 0
        assert "total params:" in out
        assert "total flops :" in out

    def test_filesystem_path(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        code, out, _ = run(capsys, "analyze", str(cfg))
        assert code == 0
        assert "model: tiny" in out

    def test_json_payload_keys(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        code, out, _ = run(capsys, "analyze", str(cfg), "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"name", "total_params", "total_flops", "rows"}
        assert payload["total_params"] > 0
        assert {r["layer_kind"] for r in payload["rows"]} == {"conv", "bn", "relu", "gap_head"}

    def test_json_and_human_totals_agree(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        _, json_out, _ = run(capsys, "analyze", str(cfg), "--json")
        payload = json.loads(json_out)
        _, human_out, _ = run(capsys, "analyze", str(cfg))
        for line in human_out.splitlines():
            if line.startswith("total params:"):
                human_params = int(line.split(":")[1].split("(")[0].strip().replace(",", ""))
            if line.startswith("total flops :"):
                human_flops = int(line.split(":")[1].split("(")[0].strip().replace(",", ""))
        assert payload["total_params"] == human_params
        assert payload["total_flops"] == human_flops

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "missing.cfg")
        assert code == 2
        assert "missing.cfg" in err

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("input 3 4 4\nwarp c=3\n")
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 2
        assert "line 2" in err

    def test_shape_invalid_config_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad-shape.cfg"
        cfg.write_text("input 4 4 4\npconv c=4 cp=9\n")
        code, _, err = run(capsys, "analyze", str(cfg))
        assert code == 1
        assert "c_p" in err


# ---------------------------------------------------------------- compare


class TestCompare:
    def test_human_output_shows_both_deltas(self, capsys):
        code, out, _ = run(capsys, "compare", "yolov5s-like.cfg", "fasternet-head-like.cfg")
        assert code == 0
        assert "params:" in out and "flops :" in out
        assert "reduction" in out

    def test_json_payload_keys_and_values(self, capsys):
        code, out, _ = run(capsys, "compare", "yolov5s-like.cfg", "improved-like.cfg", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "base", "new", "base_params", "new_params",
            "base_flops", "new_flops", "param_delta_pct", "flops_delta_pct",
        }
        base = analyze_graph(load_model_config_by_name("yolov5s-like.cfg"))
        assert payload["base_params"] == base.total_params
        assert payload["param_delta_pct"] > 0

    def test_increase_direction_labelled(self, capsys, tmp_path):
        small = tmp_path / "small.cfg"
        big = tmp_path / "big.cfg"
        small.write_text("input 2 4 4\nconv cin=2 cout=2 k=1\n")
        big.write_text("input 2 4 4\nconv cin=2 cout=8 k=1\n")
        code, out, _ = run(capsys, "compare", str(small), str(big))
        assert code == 0
        assert "increase" in out

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "compare", "yolov5s-like.cfg", "nope.cfg")
        assert code == 2


def load_model_config_by_name(name):
    from fastblocks.cli import _resolve_config

    return load_model_config(_resolve_config(name))


# ---------------------------------------------------------------- gradcheck


def test_gradcheck_command_prints_one_line_per_unit(capsys):
    code = cli_dispatch(["gradcheck"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 8
    assert all("PASS" in l for l in lines)


def test_gradcheck_impossible_tolerance_fails(capsys):
    code = cli_dispatch(["gradcheck", "--tol", "1e-18"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------- evaluate


class TestEvaluate:
    @pytest.fixture()
    def files(self, tmp_path):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        gt.write_text(GT_TEXT)
        det.write_text(DET_TEXT)
        return str(gt), str(det)

    def test_perfect_detections_score_one(self, capsys, files):
        gt, det = files
        code, out, _ = run(capsys, "evaluate", "--gt", gt, "--det", det)
        assert code == 0
        assert "mAP@0.50: 1.0000" in out

    def test_range_mode_reports_both_maps(self, capsys, files):
        gt, det = files
        code, out, _ = run(capsys, "evaluate", "--gt", gt, "--det", det, "--range")
        assert code == 0
        assert "mAP@0.50: 1.0000" in out
        assert "mAP@.5:.95: 1.0000" in out

    def test_json_payload(self, capsys, files):
        gt, det = files
        code, out, _ = run(capsys, "evaluate", "--gt", gt, "--det", det, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["map50"] == 1.0
        assert payload["map5095"] == 1.0
        assert set(payload) >= {"map50", "map5095", "dataset_precision", "dataset_recall"}

    def test_missing_file_exits_2(self, capsys, files):
        gt, _ = files
        code, _, _ = run(capsys, "evaluate", "--gt", gt, "--det", "/nonexistent/det.txt")
        assert code == 2

    def test_malformed_detection_file_exits_2(self, capsys, tmp_path, files):
        gt, _ = files
        bad = tmp_path / "bad.txt"
        bad.write_text("a 0 0 0 10 10\n")  # missing confidence
        code, _, err = run(capsys, "evaluate", "--gt", gt, "--det", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_undecodable_file_exits_2_without_a_traceback(self, tmp_path, files):
        _, det = files
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a 0 0 0 10 10\n\xff 1 2 2 5 5\n")
        done = subprocess.run(
            [sys.executable, "-m", "fastblocks", "evaluate", "--gt", str(bad), "--det", det],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
            check=False,
        )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "line 2" in done.stderr

    def test_empty_detection_file_writes_nothing_to_stderr(self, tmp_path, files):
        gt, _ = files
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        done = subprocess.run(
            [sys.executable, "-m", "fastblocks", "evaluate", "--gt", gt, "--det", str(empty), "--range"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
            check=False,
        )
        assert done.returncode == 0
        assert "(no detections)" in done.stdout
        assert done.stderr == ""

    def test_empty_ground_truth_exits_1(self, capsys, tmp_path, files):
        _, det = files
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        code, _, _ = run(capsys, "evaluate", "--gt", str(empty), "--det", det)
        assert code == 1

    def test_pooled_precision_is_at_the_printed_threshold(self, capsys, tmp_path):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        gt.write_text("a 0 0 0 10 10\n")
        det.write_text("a 0 0 0 10 7.69 0.9\n")  # IoU 0.769
        code, out, _ = run(capsys, "evaluate", "--gt", str(gt), "--det", str(det), "--iou", "0.8")
        assert code == 0
        assert "dataset precision @0.80: 0.0000" in out
        assert "dataset recall    @0.80: 0.0000" in out

    def test_iou_and_range_are_exclusive(self, capsys, files):
        gt, det = files
        code, out, err = run(capsys, "evaluate", "--gt", gt, "--det", det, "--iou", "0.9", "--range")
        assert code == 2
        assert out == ""
        assert "argument --range: not allowed with argument --iou" in err


# ---------------------------------------------------------------- train-demo


class TestTrainDemo:
    def test_short_run_reports_losses(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        code, out, _ = run(capsys, "train-demo", str(cfg), "--steps", "3", "--lr", "0.01")
        assert code == 0
        assert "initial loss" in out
        assert "final loss" in out
        assert out.count("step ") == 3

    def test_invalid_steps_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        code, _, err = run(capsys, "train-demo", str(cfg), "--steps", "0")
        assert code == 1
        assert "steps" in err

    def test_headless_config_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "headless.cfg"
        cfg.write_text("input 1 8 8\nrelu\n")
        code, _, _ = run(capsys, "train-demo", str(cfg))
        assert code == 1


# ---------------------------------------------------------------- parser plumbing


def test_no_arguments_exits_2(capsys):
    assert cli_dispatch([]) == 2
    capsys.readouterr()


def test_unknown_command_exits_2(capsys):
    assert cli_dispatch(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli_dispatch(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("analyze", "compare", "gradcheck", "evaluate", "train-demo"):
        assert command in out


def test_console_script_is_installed():
    import shutil

    assert shutil.which("fastblocks") is not None
