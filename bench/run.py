"""Benchmark of the torusorbits library and command line.

Run from the root of a checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each was chosen):

    census     `census --rank 3 --bound 2` then `census --rank 2 --bound 7`,
               each in a fresh process, with pinned output digests
    queries    one closed-loop client sending canon, equiv, classify and
               realize on random presentations of rank-3 disks to cli.run
    cli-cold   one cheap verb per fresh process: command-line start-up
    all        the three above in turn (tracing off only); the last line then
               holds every workload's named metrics, keyed `<workload>.<name>`

With --trace 0 the end-to-end metrics are measured for --seconds; with
--trace 1 a fixed amount of work is traced per layer instead.  The library
always comes from this checkout's src/.

Standard output ends with a report line (machine, seed, named metrics) and
then one result line: {"correct", "attempted", "failed", "metrics"}.  The
exit status is 0 when every answer was correct, 1 when some operation failed
or answered wrongly, and 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Scratch space inside the checkout, for trace files and the query workload's
# input files.
WORK = ROOT / ".bench_build"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "queries", "cli-cold", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs with --trace 0 only")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read without git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    # Realization certificates are asserts today, which -O strips: refuse to
    # time a program that skips them.
    if sys.flags.optimize:
        return fail("refusing to run under python -O")
    if not (SRC / "torusorbits" / "cli.py").is_file():
        return fail(f"no torusorbits sources under {SRC}")
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    import numpy
    import torusorbits

    import workloads

    env = workloads.child_env()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    machine = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": load_at_start,
        "commit": git_commit(),
        "torusorbits": torusorbits.__file__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    attempted = failed = 0
    combined = {}
    try:
        for name in names:
            run = workloads.WORKLOADS[name](args.seed, args.seconds, bool(args.trace), env, WORK)
            attempted += run.outcome.attempted
            failed += run.outcome.failed
            combined.update({f"{name}.{k}": v for k, v in run.named.items()})
            report = {
                "workload": name,
                **machine,
                "named": {k: {"value": v, "unit": u} for k, (v, u) in run.named.items()},
                "errors": run.outcome.errors,
            }
            print(json.dumps(report))
    except workloads.BenchError as exc:
        return fail(str(exc))
    metrics = run.metrics if len(names) == 1 else combined
    if len(names) > 1:
        metrics["failure_ratio"] = (failed / attempted, "ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
