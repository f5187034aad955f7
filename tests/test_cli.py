"""End-to-end checks of the command line interface.

These tests call main() in-process for speed; subprocess tests pin down
byte-level determinism of the census output and its independence of
python -O.
"""

import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest

from torusorbits.biquotient import CircleActionParams
from torusorbits.cli import (
    EXIT_DOMAIN,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_PARSE,
    Command,
    _params_from_fields,
    main,
    parse_int_tuple,
    parse_weights,
    run,
    space_from_object,
)
from torusorbits.errors import ParseError
from torusorbits.lattice import IntMatrix
from torusorbits.orbit_space import WeightedOrbitSpace, canonicalize


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_space(path, rank, weights):
    path.write_text(json.dumps({"rank": rank, "weights": [list(w) for w in weights]}))
    return str(path)


def test_parse_helpers():
    assert parse_int_tuple("(1, -2, 3, 4)", 4) == (1, -2, 3, 4)
    assert parse_weights("(1,0),(0,1)") == ((1, 0), (0, 1))
    # Blanks are allowed around entries, parentheses and separators.
    assert parse_int_tuple(" ( 1, -2 ,3,4 ) ", 4) == (1, -2, 3, 4)
    assert parse_weights(" ( 1 , 0 ) ,(0, -1),\t(+1,0) , (2,1) ") == (
        (1, 0), (0, -1), (1, 0), (2, 1)
    )
    with pytest.raises(ParseError):
        parse_int_tuple("(1,2)", 4)
    with pytest.raises(ParseError):
        parse_int_tuple("(1,2),(3,4)", 2)
    with pytest.raises(ParseError):
        parse_weights("no tuples here")
    with pytest.raises(ParseError):
        parse_weights("(1,x)")


# Per tuple flag, a command line that reads it, and a value that command
# accepts.
_TUPLE_FLAGS = {
    "--weights": ("canon --rank 2 --weights", "(1,0),(0,1),(1,0),(2,1)"),
    "--circle": ("extend --circle", "(1,1,1,2)"),
    "--t2": ("bundle --slope (1,0) --t2", "(1,1,0,0,1,1,1,1)"),
    "--slope": ("bundle --t2 (1,1,0,0,1,1,1,1) --slope", "(1,0)"),
}


@pytest.mark.parametrize(
    "flag, bad",
    [
        ("--weights", "(1,,0),(0,1),(1,0),(2,1)"),
        ("--weights", "(1,0)(0,1)(1,0)(2,1)"),
        ("--weights", ",,(1,0),(0,1),(1,0),(2,1),"),
        ("--weights", "(1,0),,(0,1),(1,0),(2,1)"),
        ("--circle", "(1,,1,1,2)"),
        ("--circle", "[(1,1,1,2)]"),
        ("--circle", "(1,1,1,2),"),
        ("--t2", "(1,1,0,0,1,1,1,,1)"),
        ("--t2", "[(1,1,0,0,1,1,1,1)]"),
        ("--slope", "(1,,0)"),
        ("--slope", "((1,0))"),
        ("--slope", ",(1,0)"),
    ],
)
def test_malformed_tuples_exit_2(capsys, flag, bad):
    # Every tuple flag reads one grammar: "(", integers separated by single
    # commas, ")", with blanks allowed, and a list of such tuples separated
    # by single commas.  Empty entries, missing separators and stray text
    # are refused, not skipped.
    prefix, good = _TUPLE_FLAGS[flag]
    assert invoke(capsys, *prefix.split(), good)[0] == EXIT_OK
    code, out, err = invoke(capsys, *prefix.split(), bad)
    assert code == EXIT_PARSE and not out and "error:" in err


def test_classify_example(capsys):
    code, out, _ = invoke(
        capsys, "classify", "--rank", "2", "--weights", "(1,0),(0,1),(1,0),(2,1)"
    )
    assert code == EXIT_OK
    assert "type: S2xS2" in out


def test_classify_json_format(capsys):
    code, out, _ = invoke(
        capsys,
        "classify",
        "--rank",
        "2",
        "--weights",
        "(1,0),(0,1),(1,1),(2,1)",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["type"] == "CP2#CP2"
    assert payload["verb"] == "classify"


def test_extend_obstruction_example(capsys):
    code, out, _ = invoke(capsys, "extend", "--circle", "(-1,3,16,5)")
    assert code == EXIT_NEGATIVE
    assert "NoExtension(NecessaryConditionFails)" in out


@pytest.mark.parametrize("circle", ["(5,5,2,1)", "(2,1,5,5)"])
def test_extend_no_solution_example(capsys, circle):
    # The necessary condition holds, but the sign equations have no integer
    # solution (test_biquotient cross-checks this by search).
    code, out, _ = invoke(capsys, "extend", "--circle", circle)
    assert code == EXIT_NEGATIVE
    assert "result: NoExtension(NoSolution)" in out.splitlines()


def test_classify_count_and_pi1_lines(capsys):
    code, out, _ = invoke(
        capsys, "classify", "--rank", "2", "--weights", "(1,0),(0,1),(1,0),(0,1),(1,1)"
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["type: ConnectedSumDim4(3)", "rank: 2", "count: 3"]
    code, out, _ = invoke(
        capsys, "classify", "--rank", "3", "--weights", "(1,0,0),(0,1,0),(1,1,2)"
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["type: NotSimplyConnected(Z/2)", "rank: 3", "pi1: Z/2"]


def test_library_value_error_exits_3(capsys):
    code, out, err = invoke(capsys, "canon", "--rank", "3", "--weights", "(1,0),(0,1),(1,1)")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err == "error: weight (1, 0) does not have 3 entries\n"


def test_extend_success(capsys):
    code, out, _ = invoke(capsys, "extend", "--circle", "(1,1,1,2)", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["result"] == "Extended"
    witness = payload["witness"]
    assert witness["kind"] == "t2"
    assert (witness["a"], witness["b"], witness["c"], witness["d"]) == (1, 1, 1, 2)


def test_extend_has_no_bound_flag(capsys):
    # The solver is exact, so a search bound would change nothing.
    with pytest.raises(SystemExit) as exc:
        main(["extend", "--circle", "(1,1,1,1)", "--bound", "3"])
    assert exc.value.code == EXIT_PARSE
    capsys.readouterr()


def test_equiv_same_and_different(tmp_path, capsys):
    a = write_space(tmp_path / "a.json", 2, [(1, 0), (0, 1), (1, 0), (2, 1)])
    b = write_space(tmp_path / "b.json", 2, [(1, 0), (0, 1), (1, 1), (2, 1)])
    code, out, _ = invoke(capsys, "equiv", a, a)
    assert code == EXIT_OK
    assert "equivalent: true" in out
    code, out, _ = invoke(capsys, "equiv", a, b)
    assert code == EXIT_NEGATIVE
    assert "equivalent: false" in out


def test_equiv_accepts_transformed_input(tmp_path, capsys):
    # same class presented in a different basis and rotation
    base = ((1, 0), (0, 1), (1, 0), (2, 1))
    move = IntMatrix([(2, 1), (1, 1)])
    turned = tuple(move.apply(w) for w in base)
    turned = turned[2:] + turned[:2]
    a = write_space(tmp_path / "a.json", 2, base)
    c = write_space(tmp_path / "c.json", 2, turned)
    code, out, _ = invoke(capsys, "equiv", a, c, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["equivalent"] is True


def test_legal_verdicts(capsys):
    code, out, _ = invoke(
        capsys, "legal", "--rank", "2", "--weights", "(1,0),(0,1),(1,0),(0,1)"
    )
    assert code == EXIT_OK
    assert "legal: true" in out
    code, out, _ = invoke(
        capsys, "legal", "--rank", "2", "--weights", "(1,0),(2,0),(1,1),(0,1)"
    )
    assert code == EXIT_DOMAIN
    assert "legal: false" in out
    assert "[[0,1]]" in out.replace(" ", "").replace("\n", ",")


# legal's stdout and exit code, byte for byte, per input: json, then table.
# The second input is legal but spans only a plane, the third is illegal,
# and the fourth is simply connected although no three of its weights have
# determinant +-1.
LEGAL_PINS = (
    (
        "2",
        "(1,0),(0,1),(1,0),(2,1)",
        EXIT_OK,
        '{"failing_pairs":[],"legal":true,"pi1_bound":"1","simply_connected":true,'
        '"spans":true,"verb":"legal"}\n',
        "legal: true\nfailing_pairs: []\nspans: true\npi1_bound: 1\nsimply_connected: true\n",
    ),
    (
        "3",
        "(1,0,0),(0,1,0),(1,1,0)",
        EXIT_OK,
        '{"failing_pairs":[],"legal":true,"pi1_bound":"Z","simply_connected":false,'
        '"spans":false,"verb":"legal"}\n',
        "legal: true\nfailing_pairs: []\nspans: false\npi1_bound: Z\nsimply_connected: false\n",
    ),
    (
        "2",
        "(1,0),(2,0),(3,0)",
        EXIT_DOMAIN,
        '{"failing_pairs":[[0,1],[1,2],[2,0]],"legal":false,"pi1_bound":"Z",'
        '"simply_connected":false,"spans":false,"verb":"legal"}\n',
        "legal: false\nfailing_pairs: [[0,1],[1,2],[2,0]]\nspans: false\npi1_bound: Z\n"
        "simply_connected: false\n",
    ),
    (
        "3",
        "(1,0,0),(0,1,0),(1,0,2),(0,2,3)",
        EXIT_OK,
        '{"failing_pairs":[],"legal":true,"pi1_bound":"1","simply_connected":true,'
        '"spans":true,"verb":"legal"}\n',
        "legal: true\nfailing_pairs: []\nspans: true\npi1_bound: 1\nsimply_connected: true\n",
    ),
)


def test_legal_output_bytes_are_pinned(capsys):
    for rank, weights, code, json_out, table_out in LEGAL_PINS:
        for fmt, expected in (("json", json_out), ("table", table_out)):
            argv = ("legal", "--rank", rank, "--weights", weights, "--format", fmt)
            assert invoke(capsys, *argv)[:2] == (code, expected), argv


def test_canon_matches_library(capsys):
    weights = "(3,1),(7,2),(3,1),(2,1)"
    code, out, _ = invoke(
        capsys, "canon", "--rank", "2", "--weights", weights, "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    space = WeightedOrbitSpace(2, parse_weights(weights))
    canon, transform = canonicalize(space)
    assert tuple(tuple(w) for w in payload["weights"]) == canon.weights
    assert tuple(tuple(r) for r in payload["transform"]) == transform.entries


def test_canon_oriented_flag(capsys):
    code, out, _ = invoke(
        capsys,
        "canon",
        "--rank",
        "2",
        "--weights",
        "(1,0),(0,1),(1,0),(2,1)",
        "--oriented",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["oriented"] is True


def test_pi1_verb(tmp_path, capsys):
    a = write_space(
        tmp_path / "a.json", 3, [(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)]
    )
    code, out, _ = invoke(capsys, "pi1", a)
    assert code == EXIT_OK
    assert "group: 1" in out
    assert "simply_connected: true" in out
    # illegal input is a domain error for pi1
    code, _, err = invoke(
        capsys, "pi1", "--rank", "2", "--weights", "(1,0),(2,0),(1,1),(0,1)"
    )
    assert code == EXIT_DOMAIN
    assert "error:" in err


def test_rank3_realize_and_classify_exit_3_on_bad_input(capsys):
    # Positioned and moved illegal four-weight inputs, and an illegal
    # five-weight input, which fails its weight count first.
    for weights in (
        "(1,0,0),(0,1,0),(0,0,1),(0,0,1)",
        "(0,1,0),(0,0,1),(0,0,1),(1,0,0)",
        "(1,0,0),(0,1,0),(0,0,1),(0,0,1),(1,1,1)",
    ):
        for verb in ("realize", "classify"):
            code, _, err = invoke(capsys, verb, "--rank", "3", "--weights", weights)
            assert code == EXIT_DOMAIN and "error:" in err


def test_realize_both_ranks(tmp_path, capsys):
    a = write_space(tmp_path / "a.json", 2, [(1, 0), (0, 1), (1, 0), (2, 1)])
    code, out, _ = invoke(capsys, "realize", a, "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["kind"] == "t2"
    assert payload["verified"] is True
    b = write_space(
        tmp_path / "b.json", 3, [(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)]
    )
    code, out, _ = invoke(capsys, "realize", b, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["kind"] == "t3"


def test_bundle_verb(capsys):
    code, out, _ = invoke(
        capsys, "bundle", "--t2", "(1,1,0,0,1,1,1,1)", "--slope", "(1,0)"
    )
    assert code == EXIT_OK
    assert "type: " in out
    code, _, _ = invoke(capsys, "bundle", "--t2", "(1,1,0,0,1,1,1,1)")
    assert code == EXIT_PARSE
    code, _, _ = invoke(
        capsys, "bundle", "--t2", "(1,1,0,0,1,1,1,1)", "--slope", "(2,4)"
    )
    assert code == EXIT_DOMAIN


def test_action_param_files(tmp_path, capsys):
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({"kind": "circle", "a": 1, "b": 1, "c": 1, "d": 2}))
    code, out, _ = invoke(capsys, "extend", str(circle), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["result"] == "Extended"
    t2 = tmp_path / "t2.json"
    t2.write_text(
        json.dumps(
            {"kind": "t2", "a": 1, "b": 1, "c": 0, "d": 0, "n": 1, "k": 1, "m": 1, "l": 1}
        )
    )
    code, _, _ = invoke(capsys, "bundle", str(t2), "--slope", "(1,0)")
    assert code == EXIT_OK
    # wrong kind tag is a parse error
    code, _, _ = invoke(capsys, "extend", str(t2))
    assert code == EXIT_PARSE


def test_parse_and_domain_exit_codes(tmp_path, capsys):
    code, _, err = invoke(
        capsys, "canon", "--rank", "2", "--weights", "(1,0),(2,0)garbage"
    )
    assert code == EXIT_PARSE and "error:" in err
    code, _, _ = invoke(capsys, "canon")
    assert code == EXIT_PARSE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = invoke(capsys, "legal", str(bad))
    assert code == EXIT_PARSE
    code, _, _ = invoke(capsys, "equiv", str(tmp_path / "missing.json"), str(bad))
    assert code == EXIT_PARSE
    # rank outside the classified range is a domain error, not a crash
    code, _, err = invoke(
        capsys,
        "classify",
        "--rank",
        "4",
        "--weights",
        "(1,0,0,0),(0,1,0,0),(0,0,1,0),(0,0,0,1)",
    )
    assert code == EXIT_DOMAIN and "error:" in err
    with pytest.raises(SystemExit) as exc:
        main(["badverb"])
    assert exc.value.code == EXIT_PARSE
    capsys.readouterr()


@pytest.mark.parametrize(
    "verb, obj",
    [
        ("canon", {"rank": 3, "weights": [[1.9, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]}),
        ("canon", {"rank": 3, "weights": [[True, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]}),
        ("canon", {"rank": 2.7, "weights": [[1, 0], [0, 1], [1, 0], [2, 1]]}),
        ("canon", {"rank": "2", "weights": [[1, 0], [0, 1], [1, 0], [2, 1]]}),
        ("extend", {"kind": "circle", "a": 1.5, "b": 1, "c": 1, "d": 2}),
        ("extend", {"kind": "circle", "a": 1, "b": False, "c": 1, "d": 2}),
    ],
    ids=["float-weight", "bool-weight", "float-rank", "string-rank", "float-field", "bool-field"],
)
def test_json_inputs_refuse_non_integers(tmp_path, capsys, verb, obj):
    # JSON numbers that are not integers are refused, not truncated, as the
    # inline --weights "(1.5,0,0),..." already is.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code, out, err = invoke(capsys, verb, str(path))
    assert code == EXIT_PARSE and not out and "error:" in err
    with pytest.raises(ParseError):
        if verb == "canon":
            space_from_object(obj)
        else:
            _params_from_fields(CircleActionParams, obj, "abcd")


@pytest.mark.parametrize(
    "verb, flags",
    [
        ("canon", {"rank": 2.7, "weights": "(1,0),(0,1),(1,0),(2,1)"}),
        ("canon", {"rank": True, "weights": "(1,0),(0,1),(1,0),(2,1)"}),
        ("census", {"rank": 2, "bound": 1.9}),
        ("census", {"rank": 2.7, "bound": 1}),
        ("census", {"rank": 2, "bound": True}),
    ],
    ids=["float-rank", "bool-rank", "float-bound", "census-float-rank", "bool-bound"],
)
def test_run_refuses_non_integer_flags(verb, flags):
    # Library callers of run pass flag values directly; a value that is not
    # an int is refused by the JSON integer rule, not truncated.
    with pytest.raises(ParseError, match="must be an integer"):
        run(Command(verb, (), flags))


def test_census_table_and_stderr_count(capsys):
    code, out, err = invoke(capsys, "census", "--rank", "2", "--bound", "1")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("weights")
    assert len(lines) == 5
    assert "census: 4 rows" in err
    assert "rows" not in out


def test_census_csv_parses(capsys):
    code, out, _ = invoke(
        capsys, "census", "--rank", "2", "--bound", "1", "--format", "csv"
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert rows[0]["weights"] == "(1,0),(0,1),(1,0),(0,1)"
    assert all(r["verified"] == "true" for r in rows)


CENSUS_DIGESTS = (
    (("--rank", "2", "--bound", "3"),
     "07d029ffb4583523835d8a0190907f5c3ee3c44878fd331a42c7c2ebfaf1e98f"),
    (("--rank", "2", "--bound", "3", "--format", "csv"),
     "df93f272ed9af46f593685e80659e12df8ab1d522c4455dfec9bbfecce1a1043"),
    (("--rank", "2", "--bound", "7", "--format", "json"),
     "cf1adb4b1bad250f2b45b9924ff6c0030ab1e5897fd524a164e548ee25347d05"),
    (("--rank", "2", "--bound", "20"),
     "75e99f6d217caadd4a33ced155bce6d18b642bf6d94e1944f448f04373bca818"),
    (("--rank", "2", "--bound", "20", "--format", "json"),
     "82446583867a51a802352096f0093d05b847c69cd12b9f2d7b35ea617379c730"),
    (("--rank", "2", "--bound", "20", "--format", "csv"),
     "2de6d57ec0faa82995d277b95a24ced4df077c6b37581f8afe160ebf61c7e144"),
    (("--rank", "3", "--bound", "1"),
     "c17df3880cc7c999ec0003754b1552789ce22162874e21a6a6ccdb819e2ff957"),
    (("--rank", "3", "--bound", "1", "--format", "csv"),
     "20cdd443145e6230e7ea18a8f0be1e51c4db3f52e39ef88465e88e22f3cbc4e6"),
    (("--rank", "3", "--bound", "1", "--format", "json"),
     "93940b7bdc38519e5167a81a4832ccc9993cd03d63763f3e043102babf4b6204"),
)


def test_census_output_bytes_are_pinned(capsys):
    # Every census format, byte for byte, at both ranks.
    for args, digest in CENSUS_DIGESTS:
        code, out, _ = invoke(capsys, "census", *args)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


def test_census_json_and_out_flag(tmp_path, capsys):
    target = tmp_path / "census.ndjson"
    code, out, err = invoke(
        capsys,
        "census",
        "--rank",
        "2",
        "--bound",
        "1",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    assert "census: 4 rows" in err
    lines = target.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == "orbit-census/1"
    assert header["count"] == 4
    assert len(lines) == 5


def test_census_bad_bound(capsys):
    code, _, _ = invoke(capsys, "census", "--rank", "2", "--bound", "-1")
    assert code == EXIT_PARSE
    with pytest.raises(SystemExit):
        main(["census", "--rank", "5", "--bound", "1"])
    capsys.readouterr()


def test_census_byte_identity_subprocess():
    argv = ["census", "--rank", "2", "--bound", "2", "--format", "json"]
    script = "from torusorbits.cli import main; import sys; sys.exit(main(sys.argv[1:]))"
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, check=True
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].endswith(b"\n")


def test_optimized_interpreter_gives_the_same_verified_output():
    # python -O strips assert statements.  The round-trip certificates, the
    # parity cross-check and canonicalize's transform certificate are
    # explicit checks, so the output must not change and every row must
    # still come out verified.
    script = "from torusorbits.cli import main; import sys; sys.exit(main(sys.argv[1:]))"
    workloads = (
        ["census", "--rank", "3", "--bound", "1", "--format", "json"],
        ["realize", "--rank", "3", "--weights", "(0,1,0),(1,1,1),(1,0,0),(1,2,3)",
         "--format", "json"],
        ["classify", "--rank", "3", "--weights", "(0,1,0),(1,1,1),(1,0,0),(1,2,3)",
         "--format", "json"],
        # Several residual moves tie here, so the transform order is used.
        ["canon", "--rank", "3", "--weights", "(1,1,1),(1,0,-1),(1,-1,-1),(0,1,0)",
         "--format", "json"],
    )
    for argv in workloads:
        outputs = [
            subprocess.run(
                [sys.executable, *flags, "-c", script, *argv], capture_output=True, check=True
            ).stdout
            for flags in ([], ["-O"])
        ]
        assert outputs[0] == outputs[1]
        rows = [json.loads(line) for line in outputs[0].splitlines()]
        if argv[0] == "census":
            header, rows = rows[0], rows[1:]
            assert len(rows) == header["count"] == 12
        if argv[0] == "classify":
            assert rows == [{"rank": 3, "type": "S3twistS2", "verb": "classify"}]
        elif argv[0] == "canon":
            assert rows == [{
                "oriented": False,
                "transform": [[1, 0, 0], [0, 1, -1], [1, 0, 1]],
                "verb": "canon",
                "weights": [[1, 0, 0], [0, 1, 0], [1, 0, 2], [1, 1, 0]],
            }]
        else:
            assert rows and all(row["verified"] is True for row in rows)


def test_run_api():
    result = run(
        Command(
            verb="classify",
            flags={"rank": 2, "weights": "(1,0),(0,1),(1,1),(2,1)"},
        )
    )
    assert result.status == EXIT_OK
    assert result.payload["type"] == "CP2#CP2"
    assert result.text.endswith("\n")
    with pytest.raises(ParseError):
        run(Command(verb="nonsense"))


def test_module_run_prints_no_warning():
    # Running the CLI module must not find it already imported by the package.
    argv = ["classify", "--rank", "2", "--weights", "(1,0),(0,1),(1,0),(2,1)"]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "torusorbits.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""


def test_usage_errors_the_parser_lets_through(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    code, out, err = invoke(capsys, "legal", str(listed))
    assert code == EXIT_PARSE and not out and "must hold a JSON object" in err
    code, out, err = invoke(capsys, "extend")
    assert code == EXIT_PARSE and not out and "provide a circle-action file" in err
    # Library callers of run can send what argparse refuses.
    one = write_space(tmp_path / "one.json", 2, [(1, 0), (0, 1), (1, 0), (0, 1)])
    with pytest.raises(ParseError, match="exactly two orbit-space files"):
        run(Command("equiv", (one,), {}))
    with pytest.raises(ParseError, match="census requires --rank and --bound"):
        run(Command("census", (), {"rank": 2}))


def test_realize_refuses_rank_4(capsys):
    code, out, err = invoke(
        capsys, "realize", "--rank", "4", "--weights", "(1,0,0,0),(0,1,0,0),(0,0,1,0),(0,0,0,1)"
    )
    assert code == EXIT_DOMAIN and not out
    assert "realization implemented for ranks 2 and 3, not 4" in err
