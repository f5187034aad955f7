"""Run the suite against this checkout's src/ tree, without installing it.

src/ goes first on sys.path for the tests themselves, and first on the
PYTHONPATH that subprocess tests inherit, so a plain `python3 -m pytest`
works from a checkout.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
