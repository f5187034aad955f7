"""Run the torusorbits command line with span tracing installed.

Usage: python3 traced_cli.py SPANS_FILE VERB [ARGS...]

The command line behaves exactly as `torusorbits VERB [ARGS...]`; when it
returns, the spans recorded in this process are written to SPANS_FILE.
"""

import sys
from pathlib import Path

import torusorbits.cli

from spans import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return torusorbits.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(Path(sys.argv[1]))


if __name__ == "__main__":
    raise SystemExit(main())
