"""Smoke test: the quick demos listed in the README run to completion.

`06_train_demo.py` is left out; acceptance criterion 8 runs the same
training path under its own time budget.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_building_blocks.py", "02_gradient_checks.py", "03_attention_gates.py",
         "04_cost_analysis.py", "05_detection_metrics.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
