"""Command line interface for the orbit-space toolkit.

Every verb maps onto one library operation (or a short composition) and
writes a single structured result, as a human-readable table or as machine
JSON.  Exit codes encode the epistemic status of the answer:

    0  success, or an affirmative decision
    2  parse or usage error
    3  illegal orbit space or out-of-domain input
    4  proved negative (inequivalent, or extension obstructed)
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from typing import Mapping

from .biquotient import (
    CircleActionParams,
    ExtensionStatus,
    T2ActionParams,
    circle_bundle_total_space,
    extend_circle_to_t2,
    realize_dim4,
    realize_dim5,
)
from .census import census_csv, census_ndjson, census_table, realization_payload, run_census
from .classify import classify_dim4, classify_dim5
from .errors import ParseError, TorusOrbitsError, UnsupportedRankError
from .orbit_space import (
    WeightedOrbitSpace,
    are_equivalent,
    canonicalize,
    is_legal,
    pi1_bound,
    require_legal,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NEGATIVE = 4

# One integer tuple, "(a,b,...)" with blanks allowed, and the comma that
# separates it from the next tuple of a list, if any.
_INTEGER = r"\s*[+-]?\d+\s*"
_TUPLE_RE = re.compile(rf"\s*\(({_INTEGER}(?:,{_INTEGER})*)\)\s*(,?)")


@dataclass(frozen=True)
class Command:
    """Parsed invocation: a verb, positional input paths, and flag values."""

    verb: str
    inputs: tuple[str, ...] = ()
    flags: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class RunResult:
    status: int
    payload: dict
    text: str


def parse_int_tuple(text: str, expected: int) -> tuple[int, ...]:
    """Parse "(a,b,...)" with exactly `expected` integer entries."""
    tuples = _int_entries(text)
    if len(tuples) != 1 or len(tuples[0]) != expected:
        raise ParseError(f"expected one tuple of {expected} integers, got {text!r}")
    return tuples[0]


def parse_weights(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse a weight list like "(1,0),(0,1),(1,0),(2,1)"."""
    return _int_entries(text)


def _int_entries(text: str) -> tuple[tuple[int, ...], ...]:
    """The tuples of a list of integer tuples separated by single commas,
    read in one pass; anything else is a ParseError."""
    tuples, pos = [], 0
    while True:
        match = _TUPLE_RE.match(text, pos)
        if match is None:
            raise ParseError(f"expected an integer tuple at offset {pos} of {text!r}")
        tuples.append(tuple(int(e) for e in match[1].split(",")))
        pos = match.end()
        if not match[2]:
            if pos != len(text):
                raise ParseError(f"unparsed text {text[pos:]!r} in {text!r}")
            return tuple(tuples)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return data


def _json_int(value) -> int:
    """A JSON integer as is; a float, boolean, string or null is refused,
    not truncated or read as 0 or 1.

    Raises:
        TypeError: value is not an int (bool excluded).
    """
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def space_from_object(data: Mapping) -> WeightedOrbitSpace:
    try:
        rank = _json_int(data["rank"])
        weights = tuple(tuple(_json_int(e) for e in w) for w in data["weights"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"orbit-space object needs integer rank and weights: {exc}") from exc
    return WeightedOrbitSpace(rank, weights)


def _int_flag(command: Command, name: str) -> int | None:
    """The flag's value, None when absent; by the _json_int rule, a value
    that is not an int is a ParseError, not truncated."""
    value = command.flags.get(name)
    try:
        return None if value is None else _json_int(value)
    except TypeError as exc:
        raise ParseError(f"--{name} must be an integer: {exc}") from exc


def _space_from(command: Command, input_index: int = 0) -> WeightedOrbitSpace:
    if len(command.inputs) > input_index:
        return space_from_object(_load_json(command.inputs[input_index]))
    rank = _int_flag(command, "rank")
    weights = command.flags.get("weights")
    if rank is None or weights is None:
        raise ParseError("provide an orbit-space file, or both --rank and --weights")
    return WeightedOrbitSpace(rank, parse_weights(str(weights)))


# Per action kind, which is also its inline flag: the parameter class, its
# fields in order, and the names of its JSON object and of its file.
_ACTIONS = {
    "circle": (CircleActionParams, "abcd", "circle-action", "circle-action"),
    "t2": (T2ActionParams, "abcdnkml", "two-torus-action", "torus-action"),
}


def _action_from(command: Command, kind: str):
    """The action given inline by --KIND or by a JSON file with that kind."""
    factory, fields, object_name, file_name = _ACTIONS[kind]
    inline = command.flags.get(kind)
    if inline is not None:
        return factory(*parse_int_tuple(str(inline), len(fields)))
    if command.inputs:
        data = _load_json(command.inputs[0])
        if data.get("kind") != kind:
            raise ParseError(f"{command.inputs[0]} is not a {object_name} object")
        return _params_from_fields(factory, data, fields)
    raise ParseError(f"provide a {file_name} file or --{kind} \"({','.join(fields)})\"")


def _params_from_fields(factory, data: Mapping, fields: str):
    try:
        values = {name: _json_int(data[name]) for name in fields}
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"action object needs integer fields {','.join(fields)}: {exc}") from exc
    return factory(**values)


# --- verb implementations


def _run_legal(command: Command) -> RunResult:
    space = _space_from(command)
    report = is_legal(space)
    group = pi1_bound(space)
    payload = {
        "verb": "legal",
        "legal": report.legal,
        "failing_pairs": [list(p) for p in report.failing_pairs],
        "spans": report.spans,
        "pi1_bound": str(group),
        "simply_connected": report.legal and group.is_trivial,
    }
    status = EXIT_OK if report.legal else EXIT_DOMAIN
    return RunResult(status, payload, _render(payload, command))


def _run_canon(command: Command) -> RunResult:
    space = _space_from(command)
    oriented = bool(command.flags.get("oriented"))
    canon, transform = canonicalize(space, oriented=oriented)
    payload = {
        "verb": "canon",
        "weights": [list(w) for w in canon.weights],
        "transform": [list(row) for row in transform.entries],
        "oriented": oriented,
    }
    return RunResult(EXIT_OK, payload, _render(payload, command))


def _run_equiv(command: Command) -> RunResult:
    if len(command.inputs) != 2:
        raise ParseError("equiv takes exactly two orbit-space files")
    first = _space_from(command, 0)
    second = _space_from(command, 1)
    oriented = bool(command.flags.get("oriented"))
    equivalent = are_equivalent(first, second, oriented=oriented)
    payload = {"verb": "equiv", "equivalent": equivalent, "oriented": oriented}
    status = EXIT_OK if equivalent else EXIT_NEGATIVE
    return RunResult(status, payload, _render(payload, command))


def _run_pi1(command: Command) -> RunResult:
    space = _space_from(command)
    require_legal(space)
    group = pi1_bound(space)
    payload = {
        "verb": "pi1",
        "group": str(group),
        "simply_connected": group.is_trivial,
    }
    return RunResult(EXIT_OK, payload, _render(payload, command))


def _run_classify(command: Command) -> RunResult:
    space = _space_from(command)
    if space.rank == 2:
        mtype = classify_dim4(space)
    elif space.rank == 3:
        mtype = classify_dim5(space)
    else:
        raise UnsupportedRankError(f"classification implemented for ranks 2 and 3, not {space.rank}")
    payload = {"verb": "classify", "type": str(mtype), "rank": space.rank}
    if mtype.count is not None:
        payload["count"] = mtype.count
    if mtype.group is not None:
        payload["pi1"] = str(mtype.group)
    return RunResult(EXIT_OK, payload, _render(payload, command))


def _run_realize(command: Command) -> RunResult:
    space = _space_from(command)
    if space.rank == 2:
        params = realize_dim4(space)
    elif space.rank == 3:
        params = realize_dim5(space)
    else:
        raise UnsupportedRankError(f"realization implemented for ranks 2 and 3, not {space.rank}")
    payload = {"verb": "realize", **realization_payload(params), "verified": True}
    return RunResult(EXIT_OK, payload, _render(payload, command))


_EXTEND_RESULTS = {
    ExtensionStatus.EXTENDED: ("Extended", EXIT_OK),
    ExtensionStatus.NECESSARY_CONDITION_FAILS: (
        "NoExtension(NecessaryConditionFails)",
        EXIT_NEGATIVE,
    ),
    ExtensionStatus.NO_SOLUTION: ("NoExtension(NoSolution)", EXIT_NEGATIVE),
}


def _run_extend(command: Command) -> RunResult:
    outcome = extend_circle_to_t2(_action_from(command, "circle"))
    result, status = _EXTEND_RESULTS[outcome.status]
    payload = {
        "verb": "extend",
        "result": result,
        "status": outcome.status.value,
        "witness": None
        if outcome.witness is None
        else realization_payload(outcome.witness),
        "detail": outcome.detail,
    }
    return RunResult(status, payload, _render(payload, command))


def _run_bundle(command: Command) -> RunResult:
    base = _action_from(command, "t2")
    slope = command.flags.get("slope")
    if slope is None:
        raise ParseError("bundle requires --slope \"(p,q)\"")
    p, q = parse_int_tuple(str(slope), 2)
    mtype = circle_bundle_total_space(base, p, q)
    payload = {"verb": "bundle", "type": str(mtype), "slope": [p, q]}
    return RunResult(EXIT_OK, payload, _render(payload, command))


def _run_census(command: Command) -> RunResult:
    rank = _int_flag(command, "rank")
    bound = _int_flag(command, "bound")
    if rank is None or bound is None:
        raise ParseError("census requires --rank and --bound")
    if bound < 0:
        raise ParseError(f"--bound must be nonnegative, got {bound}")
    rows = run_census(rank, bound)
    fmt = command.flags.get("format", "table")
    if fmt == "json":
        text = census_ndjson(rows, rank, bound)
    elif fmt == "csv":
        text = census_csv(rows)
    else:
        text = census_table(rows)
    return RunResult(EXIT_OK, {"verb": "census", "count": len(rows)}, text)


_VERBS = {
    "legal": _run_legal,
    "canon": _run_canon,
    "equiv": _run_equiv,
    "pi1": _run_pi1,
    "classify": _run_classify,
    "realize": _run_realize,
    "extend": _run_extend,
    "bundle": _run_bundle,
    "census": _run_census,
}


def run(command: Command) -> RunResult:
    """Execute a parsed command; raises ParseError / TorusOrbitsError."""
    if command.verb not in _VERBS:
        raise ParseError(f"unknown verb {command.verb!r}")
    return _VERBS[command.verb](command)


def _render(payload: dict, command: Command) -> str:
    if command.flags.get("format") == "json":
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    lines = []
    for key, value in payload.items():
        if key == "verb":
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True, separators=(",", ":"))
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


# --- argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusorbits",
        description="Check, canonicalize, classify, and realize weighted orbit spaces.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_space_flags(p, files=1):
        for index in range(files):
            name = "space" if files == 1 else ("space_a", "space_b")[index]
            nargs = None if files == 2 else "?"
            p.add_argument(name, nargs=nargs, default=None, metavar=f"{name}.json",
                           help="orbit-space JSON file with fields rank and weights")
        p.add_argument("--rank", type=int, help="torus rank (with --weights)")
        p.add_argument("--weights", help='weight list, e.g. "(1,0),(0,1),(1,0),(2,1)"')

    def add_format(p, choices=("table", "json")):
        p.add_argument("--format", choices=list(choices), default="table",
                       help="output format (default table)")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("legal", help="check the adjacency conditions")
    add_space_flags(p)
    add_format(p)

    p = sub.add_parser("canon", help="canonical form and the achieving transform")
    add_space_flags(p)
    p.add_argument("--oriented", action="store_true", help="exclude the reversal move")
    add_format(p)

    p = sub.add_parser("equiv", help="decide equivalence of two orbit spaces")
    add_space_flags(p, files=2)
    p.add_argument("--oriented", action="store_true", help="exclude the reversal move")
    add_format(p)

    p = sub.add_parser("pi1", help="fundamental group of the action's manifold")
    add_space_flags(p)
    add_format(p)

    p = sub.add_parser("classify", help="diffeomorphism type of the manifold")
    add_space_flags(p)
    add_format(p)

    p = sub.add_parser("realize", help="action parameters realizing the orbit space")
    add_space_flags(p)
    add_format(p)

    p = sub.add_parser("extend", help="extend a free circle action to a torus action")
    p.add_argument("params", nargs="?", default=None, metavar="circle.json",
                   help='circle-action JSON file {"kind":"circle",...}')
    p.add_argument("--circle", help='inline parameters "(a,b,c,d)"')
    add_format(p)

    p = sub.add_parser("bundle", help="total space of a circle bundle over a quotient")
    p.add_argument("params", nargs="?", default=None, metavar="t2.json",
                   help='torus-action JSON file {"kind":"t2",...}')
    p.add_argument("--t2", help='inline parameters "(a,b,c,d,n,k,m,l)"')
    p.add_argument("--slope", help='sub-circle slope "(p,q)"')
    add_format(p)

    p = sub.add_parser("census", help="enumerate canonical classes in an entry box")
    p.add_argument("--rank", type=int, choices=[2, 3], required=True)
    p.add_argument("--bound", type=int, required=True, help="entry bound of the box")
    add_format(p, choices=("table", "json", "csv"))

    return parser


_INPUT_NAMES = ("space", "space_a", "space_b", "params")


def command_from_args(args: argparse.Namespace) -> Command:
    """The verb, the input files in order, and every other set value as a flag."""
    values = vars(args)
    inputs = tuple(values[name] for name in _INPUT_NAMES if values.get(name) is not None)
    flags = {k: v for k, v in values.items() if v is not None and k not in ("verb", *_INPUT_NAMES)}
    return Command(verb=args.verb, inputs=inputs, flags=flags)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = command_from_args(args)
    try:
        result = run(command)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TorusOrbitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    out = command.flags.get("out")
    if out:
        with open(str(out), "w", encoding="utf-8") as handle:
            handle.write(result.text)
    else:
        sys.stdout.write(result.text)
    if command.verb == "census":
        print(f"census: {result.payload['count']} rows", file=sys.stderr)
    return result.status


if __name__ == "__main__":
    raise SystemExit(main())
