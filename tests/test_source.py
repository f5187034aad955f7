"""Source-level checks on the package modules."""

import ast
import importlib
import subprocess
import sys
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


def _int_calls(source):
    """(function, line) of each int(...) call whose one argument is not a
    comparison, naming the innermost function that holds it ("" at module
    level)."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "int"
                and not (
                    len(child.args) == 1
                    and not child.keywords
                    and isinstance(child.args[0], ast.Compare)
                )
            ):
                out.append((owner, child.lineno))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else owner)

    visit(ast.parse(source), "")
    return out


def test_int_calls_only_read_comparisons():
    # operator.index is the one integer rule (lattice._integers): int(x)
    # truncates 2.7 to 2, so src calls int only on a comparison, as in
    # int(i == j), and where the command line parses text.
    found = [
        (path.name, owner, line)
        for path in MODULES
        for owner, line in _int_calls(path.read_text())
    ]
    assert [f for f in found if f[:2] != ("cli.py", "_int_entries")] == []


def test_the_int_lint_catches_int_of_a_value():
    source = (
        "def f(x, i, j):\n"
        "    a = int(i == j)\n"
        "    return int(x)\n"
        "class C:\n"
        "    def g(self, s):\n"
        "        return int(s, 16)\n"
        "N = int(2.5)\n"
    )
    assert _int_calls(source) == [("f", 3), ("g", 6), ("", 7)]


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_reads(source):
    """Dotted names a source reads from the package: `from torusorbits.X
    import a` gives torusorbits.X.a, and an attribute chain off a name that
    `import torusorbits...` binds gives the chain, `cli.run` under
    `import torusorbits.cli as cli` torusorbits.cli.run.  String constants
    that parse as Python, the `-c` programs of child processes, are read
    too."""
    reads, roots, trees = set(), {}, [ast.parse(source)]
    for node in ast.walk(trees[0]):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "torusorbits" in node.value:
                try:
                    trees.append(ast.parse(node.value))
                except SyntaxError:
                    pass
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("torusorbits"):
                reads |= {f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "torusorbits":
                        roots[alias.asname or "torusorbits"] = alias.asname and alias.name
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in roots:
                reads.add(".".join([roots[node.id] or node.id, *chain]))
    return reads


def _resolves(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 1):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[: i + 1]))
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


def test_every_package_name_the_benchmark_reads_exists():
    # The benchmark imports the package by name; renaming a name it reads
    # breaks the benchmark run, which the rest of the suite never starts.
    paths = sorted(BENCH.glob("*.py"))
    assert paths
    reads = {(path.name, name) for path in paths for name in _package_reads(path.read_text())}
    assert ("workloads.py", "torusorbits.cli.run") in reads
    assert ("workloads.py", "torusorbits.cli.main") in reads
    assert [(path, name) for path, name in sorted(reads) if not _resolves(name)] == []


def test_cli_import_reports_the_package_and_numpy():
    # bench/workloads.py::import_times reads the torusorbits and numpy lines
    # of this command and fails the benchmark run when either is missing, so
    # the command line keeps importing numpy.  This check goes away with the
    # benchmark change of ROADMAP item 1, which reads a missing numpy line
    # as 0.
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import torusorbits.cli"],
        capture_output=True,
        text=True,
        check=True,
    )
    names = set()
    for line in child.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            names.add(fields[2].strip())
    assert {"torusorbits", "numpy"} <= names


def _traced_layers():
    """The LAYERS tuple of bench/spans.py, read from its source."""
    for node in ast.parse((BENCH / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "LAYERS"
        ]:
            return ast.literal_eval(node.value)
    raise LookupError("bench/spans.py assigns no LAYERS")


def test_cli_import_loads_every_traced_layer():
    # The traced benchmark runs import torusorbits.cli, and Tracer.install
    # then looks each layer up in sys.modules, so a layer the command line
    # stops importing makes every traced run fail.
    layers = _traced_layers()
    assert "biquotient" in layers and "cli" in layers
    child = subprocess.run(
        [sys.executable, "-c", "import sys, torusorbits.cli; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(child.stdout.split())
    assert "numpy" in loaded
    assert [layer for layer in layers if f"torusorbits.{layer}" not in loaded] == []


def test_the_benchmark_lint_reads_imports_attributes_and_programs():
    source = (
        "import torusorbits.cli as cli\n"
        "import torusorbits.lattice\n"
        "from torusorbits.biquotient import gone\n"
        "cli.run(cli.Command.x)\n"
        "torusorbits.lattice.IntMatrix\n"
        "other.attr\n"
        "LAUNCH = 'from torusorbits.cli import main; main()'\n"
    )
    assert _package_reads(source) == {
        "torusorbits.cli.run",
        "torusorbits.cli.Command",
        "torusorbits.cli.Command.x",
        "torusorbits.lattice",
        "torusorbits.lattice.IntMatrix",
        "torusorbits.biquotient.gone",
        "torusorbits.cli.main",
    }
    assert _resolves("torusorbits.cli.run") and _resolves("torusorbits.lattice.IntMatrix")
    assert not _resolves("torusorbits.biquotient.gone")
