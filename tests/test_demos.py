"""Each demo runs to the end against this checkout's src/ tree."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "demo", ["classify_families.py", "extension_obstruction.py", "realize_roundtrip.py"]
)
def test_demo_exits_cleanly(demo):
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
