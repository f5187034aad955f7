"""The three benchmark workloads, their correctness checks and their metrics.

Imported by run.py after it has put the checkout's src/ first on sys.path,
so the library measured here is always the one in this checkout.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import torusorbits.cli as cli
from torusorbits.biquotient import Z_CIRCLE, induced_orbit_space, torus_weight_matrix
from torusorbits.classify import Dim5Params
from torusorbits.orbit_space import WeightedOrbitSpace, are_equivalent, canonicalize

import inputs
from spans import Spans, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Each census command with the sha256 of its stdout and the number of rows
# (classes) it lists after its header line.
CENSUS_COMMANDS = (
    (
        ("census", "--rank", "3", "--bound", "2", "--format", "json"),
        "287d9f683933a9b740bf47945edf76792f374d65514190aadec75da3f6e9e47e",
        945,
    ),
    (
        ("census", "--rank", "2", "--bound", "7", "--format", "json"),
        "cf1adb4b1bad250f2b45b9924ff6c0030ab1e5897fd524a164e548ee25347d05",
        16,
    ),
)
QUERY_VERBS = ("canon", "equiv", "classify", "realize")
COLD_VERBS = ("classify", "legal", "canon", "extend", "bundle")
GENERATOR_POOL = 48
# One set-up probe is due per this many seconds of a timed window.
SETUP_PROBE_EVERY_S = 1.5
IMPORT_REPEATS = 3
# Traced runs do a fixed amount of work, so their counts repeat exactly.
TRACED_QUERIES = 200
TRACED_COLD = 2 * len(COLD_VERBS)
CHILD_TIMEOUT_S = 170
# What the `torusorbits` console script runs.
CLI_LAUNCHER = ("-c", "import sys; from torusorbits.cli import main; sys.exit(main())")


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


Metrics = dict[str, tuple[float, str]]


@dataclass
class Outcome:
    """Operations attempted and those that raised or answered wrongly."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    @property
    def failure_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Run:
    outcome: Outcome
    metrics: Metrics
    named: Metrics


# --- child processes


def child_env() -> dict[str, str]:
    """Children import only this checkout's src/ and never run optimized."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONOPTIMIZE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    wall_s: float
    status: int
    stdout: bytes
    stderr: bytes
    peak_rss_mb: float


def run_child(args, env: dict[str, str], work: Path) -> Child:
    """Run the interpreter on args, one child at a time, and reap it.

    Peak memory comes from this child's own rusage (os.wait4), not from
    RUSAGE_CHILDREN, which is the maximum over every child reaped so far.
    """
    with tempfile.TemporaryFile(dir=work) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.daemon = True
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(wall, proc.returncode, out, err.read(), usage.ru_maxrss / 1024)


class SetupProbes:
    """Set-up time: a fresh interpreter importing the command line.

    Every workload enters through torusorbits.cli and needs no warm-up, so
    this is the set-up each of them pays.  Probes are spread through the
    timed window, one per SETUP_PROBE_EVERY_S, between operations, so their
    median stands for the whole run and not for a burst at its start.  Each
    probe checks that the package comes from this checkout's src/.
    """

    PROBE = "import torusorbits, torusorbits.cli; print(torusorbits.__file__)"

    def __init__(self, env: dict[str, str], work: Path) -> None:
        self.env, self.work = env, work
        self.times: list[float] = []
        self.start = time.perf_counter()
        self.probe()

    def probe(self) -> None:
        child = run_child(("-c", self.PROBE), self.env, self.work)
        if child.status != 0:
            raise BenchError(f"importing torusorbits failed: {child.stderr.decode()[-500:]}")
        module = Path(child.stdout.decode().strip()).resolve()
        if SRC.resolve() not in module.parents:
            raise BenchError(f"torusorbits imported from {module}, not from {SRC}")
        self.times.append(child.wall_s)

    def catch_up(self) -> None:
        """Run the probes that have fallen due since the window started."""
        due = 1 + int((time.perf_counter() - self.start) / SETUP_PROBE_EVERY_S)
        while len(self.times) < due:
            self.probe()

    @property
    def median_s(self) -> float:
        return statistics.median(self.times)


def import_times(env: dict[str, str], work: Path) -> tuple[float, float]:
    """Median cumulative import seconds of the package and of numpy."""
    package, numpy = [], []
    for _ in range(IMPORT_REPEATS):
        child = run_child(("-X", "importtime", "-c", "import torusorbits.cli"), env, work)
        for line in child.stderr.decode().splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name, cumulative_us = fields[2].strip(), int(fields[1])
            if name == "torusorbits":
                package.append(cumulative_us)
            elif name == "numpy":
                numpy.append(cumulative_us)
    if len(package) != IMPORT_REPEATS or len(numpy) != IMPORT_REPEATS:
        raise BenchError("python -X importtime did not report torusorbits and numpy")
    return statistics.median(package) / 1e6, statistics.median(numpy) / 1e6


# --- metrics


def op_metrics(latencies_s: list[float], setup_s: float, peak_rss_mb: float) -> Metrics:
    """The end-to-end metrics every workload reports, per timed operation."""
    return {
        "op_p50_ms": (statistics.median(latencies_s) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def layer_metrics(spans: Spans, classes: int, imports: tuple[float, float], overhead: float) -> Metrics:
    enumerate_s, rows_s = spans.census_stages()
    out: Metrics = {
        "census.enumerate_s": (enumerate_s, "s"),
        "census.rows_s": (rows_s, "s"),
        "census.serialize_s": (spans.total_s("census.census_ndjson"), "s"),
        "census.classes": (classes, "count"),
        "census.self_s": (spans.self_s("census"), "s"),
    }
    for name in ("induced_orbit_space", "subtorus_acts_freely"):
        out[f"biquotient.{name}.calls"] = (spans.calls(f"biquotient.{name}"), "count")
        out[f"biquotient.{name}.self_s"] = (spans.self_s(f"biquotient.{name}"), "s")
    out["biquotient.realize_dim5.calls"] = (spans.calls("biquotient.realize_dim5"), "count")
    out["biquotient.realize_dim5.p50_ms"] = (spans.p50_ms("biquotient.realize_dim5"), "ms")
    out["biquotient.self_s"] = (spans.self_s("biquotient"), "s")
    for name in (
        "smith_normal_form",
        "integer_kernel",
        "hermite_normal_form",
        "invert_unimodular",
        "unimodular_complete",
    ):
        out[f"lattice.{name}.calls"] = (spans.calls(f"lattice.{name}"), "count")
        out[f"lattice.{name}.self_s"] = (spans.self_s(f"lattice.{name}"), "s")
    out["lattice.determinant.calls"] = (spans.calls("lattice.determinant"), "count")
    out["lattice.IntMatrix.constructed"] = (spans.constructed, "count")
    out["lattice.self_s"] = (spans.self_s("lattice"), "s")
    out["orbit_space.canonicalize.calls"] = (spans.calls("orbit_space.canonicalize"), "count")
    out["orbit_space.canonicalize.self_s"] = (spans.self_s("orbit_space.canonicalize"), "s")
    out["orbit_space.canonicalize.p50_ms"] = (spans.p50_ms("orbit_space.canonicalize"), "ms")
    for name in ("base_change_for_pair", "is_legal"):
        out[f"orbit_space.{name}.calls"] = (spans.calls(f"orbit_space.{name}"), "count")
        out[f"orbit_space.{name}.self_s"] = (spans.self_s(f"orbit_space.{name}"), "s")
    out["orbit_space.self_s"] = (spans.self_s("orbit_space"), "s")
    out["classify.classify_dim5.self_s"] = (spans.self_s("classify.classify_dim5"), "s")
    out["classify.extract_dim5_params.self_s"] = (spans.self_s("classify.extract_dim5_params"), "s")
    out["classify.self_s"] = (spans.self_s("classify"), "s")
    out["cli.import_s"] = (imports[0], "s")
    out["cli.import_numpy_s"] = (imports[1], "s")
    out["cli.run.self_s"] = (spans.self_s("cli.run"), "s")
    out["trace_overhead"] = (overhead, "ratio")
    return out


# --- canonical forms of unmoved generators, computed outside the timed regions


@functools.cache
def canonical_form(weights: inputs.Weights) -> inputs.Weights:
    return canonicalize(WeightedOrbitSpace(len(weights[0]), weights))[0].weights


# --- census


def census_rows(child: Child) -> int:
    """Classes a census child listed: its stdout lines after the header."""
    return max(len(child.stdout.splitlines()) - 1, 0)


def _census_round(
    outcome: Outcome, env, work: Path, spans_dir: Path | None, setup: SetupProbes | None = None
) -> list[Child]:
    children = []
    for index, (command, digest, rows) in enumerate(CENSUS_COMMANDS):
        if spans_dir is None:
            launcher = CLI_LAUNCHER
        else:
            launcher = (str(BENCH / "traced_cli.py"), str(spans_dir / f"census{index}.spans"))
        child = run_child((*launcher, *command), env, work)
        ok = (
            child.status == 0
            and census_rows(child) == rows
            and hashlib.sha256(child.stdout).hexdigest() == digest
        )
        outcome.record(ok, f"{' '.join(command)}: exit {child.status}, {child.stderr.decode()[-300:]}")
        children.append(child)
        if setup is not None:
            setup.catch_up()
    return children


def census(seed: int, seconds: float, trace: bool, env, work: Path) -> Run:
    """Rank-3 bound-2 then rank-2 bound-7 census, each in a fresh process.

    The inputs are fixed; the seed is recorded only.  One operation is the
    pair of commands, as a census user runs them.
    """
    del seed
    outcome = Outcome()
    if trace:
        plain = _census_round(outcome, env, work, None)
        with tempfile.TemporaryDirectory(dir=work) as spans_dir:
            traced = _census_round(outcome, env, work, Path(spans_dir))
            spans = Spans()
            for index in range(len(CENSUS_COMMANDS)):
                spans.load(Path(spans_dir) / f"census{index}.spans")
        overhead = sum(c.wall_s for c in traced) / sum(c.wall_s for c in plain)
        classes = sum(census_rows(child) for child in traced)
        return Run(outcome, layer_metrics(spans, classes, import_times(env, work), overhead), {})
    setup = SetupProbes(env, work)
    rounds = []
    while not rounds or time.perf_counter() - setup.start < seconds:
        rounds.append(_census_round(outcome, env, work, None, setup))
    r3 = [r[0] for r in rounds]
    r2 = [r[1] for r in rounds]
    metrics = op_metrics(
        [a.wall_s + b.wall_s for a, b in zip(r3, r2)],
        setup.median_s,
        max(c.peak_rss_mb for r in rounds for c in r),
    )
    named = {
        "census_r3_s": (statistics.median(c.wall_s for c in r3), "s"),
        "census_r2_s": (statistics.median(c.wall_s for c in r2), "s"),
        "census_peak_rss_mb": (statistics.median(c.peak_rss_mb for c in r3), "MB"),
        "census_rounds": (len(rounds), "count"),
        "setup_s": (setup.median_s, "s"),
        "setup_probes": (len(setup.times), "count"),
        "failure_ratio": (outcome.failure_ratio, "ratio"),
    }
    return Run(outcome, metrics, named)


# --- queries


@dataclass
class Query:
    verb: str
    command: cli.Command
    shown: inputs.Weights
    generator: inputs.Weights
    other: inputs.Weights | None = None


def _verbs(rng: random.Random):
    """Every verb once per block of four, in seeded order, so the mix that
    sets the median and the tail is the same in every run."""
    while True:
        block = list(QUERY_VERBS)
        rng.shuffle(block)
        yield from block


def _make_query(rng: random.Random, verb: str, pool, index: int, files: Path) -> Query:
    generator = rng.choice(pool)
    shown = inputs.present(rng, generator)
    if verb != "equiv":
        flags = {"rank": 3, "weights": inputs.format_weights(shown), "format": "json"}
        return Query(verb, cli.Command(verb, (), flags), shown, generator)
    # Half the pairs show one generator twice, half pair it with another.
    other = generator if rng.random() < 0.5 else rng.choice(pool)
    paths = []
    for side, weights in enumerate((shown, inputs.present(rng, other))):
        path = files / f"query{index}-{side}.json"
        path.write_text(json.dumps({"rank": 3, "weights": weights}))
        paths.append(str(path))
    return Query(verb, cli.Command(verb, tuple(paths), {"format": "json"}), shown, generator, other)


def _timed(query: Query):
    start = time.perf_counter()
    try:
        result = cli.run(query.command)
    except Exception as exc:  # the check counts it as a failure
        result = exc
    return time.perf_counter() - start, result


def _query_ok(query: Query, result) -> bool:
    if isinstance(result, Exception):
        return False
    payload = result.payload
    if query.verb == "canon":
        weights = tuple(tuple(w) for w in payload["weights"])
        return result.status == 0 and weights == canonical_form(query.generator)
    if query.verb == "classify":
        return result.status == 0 and payload["type"] == inputs.generator_type(query.generator)
    if query.verb == "equiv":
        expected = canonical_form(query.generator) == canonical_form(query.other)
        return payload["equivalent"] is expected and result.status == (0 if expected else 4)
    # realize: the returned parameters must induce the shown orbit space.
    params = Dim5Params(**{name: payload[name] for name in "abcdklmn"})
    diagram = induced_orbit_space(torus_weight_matrix(params), Z_CIRCLE)
    return (
        result.status == 0
        and payload["verified"] is True
        and are_equivalent(diagram.orbit_space, WeightedOrbitSpace(3, query.shown))
    )


def _check_query(outcome: Outcome, query: Query, result) -> None:
    try:
        ok = _query_ok(query, result)
    except Exception as exc:  # a wrong answer may fail to parse; count it
        ok = False
        result = exc
    outcome.record(ok, f"{query.verb} {inputs.format_weights(query.shown)}: {result!r:.300}")


def queries(seed: int, seconds: float, trace: bool, env, work: Path) -> Run:
    """One closed-loop client sending rank-3 queries through cli.run."""
    rng = random.Random(seed)
    pool = [inputs.rank3_generator(rng) for _ in range(GENERATOR_POOL)]
    verbs = _verbs(rng)
    outcome = Outcome()
    with tempfile.TemporaryDirectory(dir=work) as files:
        if trace:
            batch = [_make_query(rng, next(verbs), pool, i, Path(files)) for i in range(TRACED_QUERIES)]
            plain = [_timed(q) for q in batch]
            tracer = Tracer()
            tracer.install()
            try:
                traced = [_timed(q) for q in batch]
            finally:
                tracer.uninstall()
            for query, (_, result) in zip(batch + batch, plain + traced):
                _check_query(outcome, query, result)
            spans = Spans()
            spans.add_tracer(tracer)
            overhead = sum(t for t, _ in traced) / sum(t for t, _ in plain)
            return Run(outcome, layer_metrics(spans, 0, import_times(env, work), overhead), {})
        setup = SetupProbes(env, work)
        latencies = []
        while outcome.attempted < 10 or time.perf_counter() - setup.start < seconds:
            query = _make_query(rng, next(verbs), pool, outcome.attempted, Path(files))
            # A query that raised is timed too; the run then fails anyway.
            latency, result = _timed(query)
            latencies.append(latency)
            _check_query(outcome, query, result)
            setup.catch_up()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = op_metrics(latencies, setup.median_s, peak_mb)
    named = {
        "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
        "query_p50_ms": metrics["op_p50_ms"],
        "query_p99_ms": (float(np.percentile(latencies, 99)) * 1e3, "ms"),
        "queries": (len(latencies), "count"),
        "setup_s": (setup.median_s, "s"),
        "setup_probes": (len(setup.times), "count"),
        "failure_ratio": (outcome.failure_ratio, "ratio"),
    }
    return Run(outcome, metrics, named)


# --- cli-cold


def _cold_case(rng: random.Random, verb: str):
    """Command-line arguments for one verb and a check of its JSON answer."""
    if verb == "classify":
        generator = inputs.rank2_generator(rng)
        shown = inputs.present(rng, generator)
        expected = inputs.generator_type(generator)
        args = ("classify", "--rank", "2", "--weights", inputs.format_weights(shown))
        return args, lambda status, payload: status == 0 and payload["type"] == expected
    if verb in ("legal", "canon"):
        generator = inputs.rank3_generator(rng)
        args = (verb, "--rank", "3", "--weights", inputs.format_weights(inputs.present(rng, generator)))
        if verb == "legal":
            return args, lambda status, payload: (
                status == 0 and payload["legal"] is True and payload["simply_connected"] is True
            )
        expected = [list(w) for w in canonical_form(generator)]
        return args, lambda status, payload: status == 0 and payload["weights"] == expected
    # extend and bundle: the fresh process must give the in-process answer.
    if verb == "extend":
        flags = {"circle": "(%d,%d,%d,%d)" % inputs.free_circle(rng)}
    else:
        base, slope = inputs.free_t2_and_slope(rng)
        flags = {"t2": "(%d,%d,%d,%d,%d,%d,%d,%d)" % base, "slope": "(%d,%d)" % slope}
    reference = cli.run(cli.Command(verb, (), {**flags, "format": "json"}))
    expected = json.loads(reference.text)
    args = (verb,) + tuple(part for name, value in flags.items() for part in (f"--{name}", value))
    return args, lambda status, payload: status == reference.status and payload == expected


def _cold_run(outcome: Outcome, args, check, env, work: Path, spans_file: Path | None) -> Child:
    launcher = CLI_LAUNCHER if spans_file is None else (str(BENCH / "traced_cli.py"), str(spans_file))
    child = run_child((*launcher, *args, "--format", "json"), env, work)
    try:
        ok = check(child.status, json.loads(child.stdout))
    except (ValueError, KeyError, TypeError):
        ok = False
    outcome.record(ok, f"{' '.join(args)}: exit {child.status}, {child.stderr.decode()[-300:]}")
    return child


def cli_cold(seed: int, seconds: float, trace: bool, env, work: Path) -> Run:
    """A seeded rotation of cheap verbs, one per fresh process."""
    rng = random.Random(seed)
    outcome = Outcome()
    offset = rng.randrange(len(COLD_VERBS))

    def case(i: int):
        return _cold_case(rng, COLD_VERBS[(offset + i) % len(COLD_VERBS)])

    if trace:
        cases = [case(i) for i in range(TRACED_COLD)]
        plain = [_cold_run(outcome, a, c, env, work, None) for a, c in cases]
        spans = Spans()
        with tempfile.TemporaryDirectory(dir=work) as spans_dir:
            traced = []
            for i, (args, check) in enumerate(cases):
                spans_file = Path(spans_dir) / f"cold{i}.spans"
                traced.append(_cold_run(outcome, args, check, env, work, spans_file))
                spans.load(spans_file)
        overhead = sum(c.wall_s for c in traced) / sum(c.wall_s for c in plain)
        return Run(outcome, layer_metrics(spans, 0, import_times(env, work), overhead), {})
    setup = SetupProbes(env, work)
    children = []
    while len(children) < 2 * len(COLD_VERBS) or time.perf_counter() - setup.start < seconds:
        args, check = case(len(children))
        children.append(_cold_run(outcome, args, check, env, work, None))
        setup.catch_up()
    walls = [c.wall_s for c in children]
    metrics = op_metrics(walls, setup.median_s, max(c.peak_rss_mb for c in children))
    named = {
        "cli_p50_ms": metrics["op_p50_ms"],
        "cli_p90_ms": (float(np.percentile(walls, 90)) * 1e3, "ms"),
        "processes": (len(children), "count"),
        "setup_s": (setup.median_s, "s"),
        "setup_probes": (len(setup.times), "count"),
        "failure_ratio": (outcome.failure_ratio, "ratio"),
    }
    return Run(outcome, metrics, named)


WORKLOADS = {"census": census, "queries": queries, "cli-cold": cli_cold}
