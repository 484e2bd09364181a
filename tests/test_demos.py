"""Smoke test: the quick demos listed in the README run to completion, and
every self-check they print (a line ending in `: True`, such as
`identity: True`) reads True.

`06_train_demo.py` is left out; acceptance criterion 8 runs the same
training path under its own time budget.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_building_blocks.py", "02_gradient_checks.py", "03_attention_gates.py",
         "04_cost_analysis.py", "05_detection_metrics.py"]
SELF_CHECK = re.compile(r": (True|False)\b")


def failed_self_checks(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if "False" in SELF_CHECK.findall(line)]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert not failed_self_checks(proc.stdout), proc.stdout


def test_a_false_self_check_is_caught():
    out = ("block : zeroed last projection -> identity: False\n"
           "instrumented forward pass: 284,704 MACs (match: True)\n"
           "TP/FP labels in confidence order: [True, False], unmatched ground truths: 1\n")
    assert failed_self_checks(out) == ["block : zeroed last projection -> identity: False"]
