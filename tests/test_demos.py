"""Smoke test: the quick demos run to completion.

Demo 05 trains and probes end to end (20-35 s on 2 cores with one BLAS
thread) and is left out; CI runs it as a step of its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = (
    "01_tensors_and_gradients.py",
    "02_translation_equivariance.py",
    "03_dynamic_routing.py",
    "04_grammar_scenes.py",
)


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
