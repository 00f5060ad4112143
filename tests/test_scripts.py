"""Smoke test of the experiment scripts: each imports the public names it
uses and parses its arguments, and the slow-light script runs end to end."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_zero(script):
    proc = subprocess.run([sys.executable, str(script), "--help"], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_slow_light_script_writes_its_trace(tmp_path):
    # --help exits before the protocol is built; a real run does not
    script = ROOT / "scripts" / "run_slow_light.py"
    proc = subprocess.run([sys.executable, str(script), "--depths", "10",
                           "--out", str(tmp_path)], env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trace_d10.csv").is_file()


def test_scripts_found():
    assert SCRIPTS, "no scripts/*.py found"
