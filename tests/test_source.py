"""Source-level checks on the package modules."""

import ast
from pathlib import Path

import torusorbits

MODULES = sorted(Path(torusorbits.__file__).resolve().parent.glob("*.py"))
MARKER = "# Internal invariant:"


def _unmarked_asserts(source):
    """Line numbers of asserts not directly preceded by a run of comment
    lines that contains a line starting with MARKER."""
    lines = [line.strip() for line in source.splitlines()]
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Assert):
            continue
        i = node.lineno - 2
        while i >= 0 and lines[i].startswith("#") and not lines[i].startswith(MARKER):
            i -= 1
        if i < 0 or not lines[i].startswith(MARKER):
            out.append(node.lineno)
    return out


def _raised_names(source):
    """Names of the classes a source raises, as `raise X` or `raise X(...)`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_assert_is_a_marked_internal_invariant():
    # python -O strips asserts, so a check that an input can fail must
    # raise; an assert is allowed only for an invariant no input reaches,
    # and says so in a comment block that starts with the marker.
    assert MODULES
    found = {
        path.name: lines
        for path in MODULES
        if (lines := _unmarked_asserts(path.read_text()))
    }
    assert found == {}


def test_the_assert_lint_catches_an_unmarked_assert():
    source = "def f(x):\n    # Guard the input.\n    assert x > 0\n    return x\n"
    assert _unmarked_asserts(source) == [3]
    assert _unmarked_asserts("assert True\n") == [1]
    marked = "def f(x):\n    # Internal invariant: x is positive.\n    # Why.\n    assert x\n"
    assert _unmarked_asserts(marked) == []
    spaced = "# Internal invariant: x is positive.\n\nassert x\n"
    assert _unmarked_asserts(spaced) == [3]


def test_no_assertion_error_and_every_error_class_is_raised():
    # Implementation faults raise VerificationError, not AssertionError, and
    # errors.py defines no class that nothing raises.
    raised = set().union(*(_raised_names(path.read_text()) for path in MODULES))
    assert "AssertionError" not in raised
    errors = next(path for path in MODULES if path.name == "errors.py")
    defined = {
        node.name
        for node in ast.walk(ast.parse(errors.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    assert defined - raised == {"TorusOrbitsError"}


def test_the_raise_lint_reads_names_and_calls():
    source = "try:\n    raise A\nexcept A:\n    raise\nraise B('x') from None\nraise c.D()\n"
    assert _raised_names(source) == {"A", "B"}
