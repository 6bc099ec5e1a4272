"""Rules on the library's source, checked on each module's syntax tree."""

import ast
import functools
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "mecnet").glob("*.py"))

# Exports that no other code names, each with the reason it stays public.
UNUSED_EXPORTS_ALLOWED = {
    "pairs.py": {
        "RequestError": "raised to callers of dynamic_parallel_pairs, which catch it by type",
        "RequestNotInComplement": "raised to callers of dynamic_parallel_pairs, which catch it by type",
    },
    "openflights.py": {
        "ParseResult": "return type of parse_openflights",
    },
    "timeline.py": {"LongRunResult": "return type of simulate_mec_long_run"},
    "verify.py": {"SuiteResult": "return type of every suite in ALL_SUITES"},
    "stabilizer.py": {"StabilizerTableau": "return type of graph_state and measure_pauli"},
}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def bound_names(node):
    """Names a top-level statement binds: a def's or class's name, imported
    names and assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def defined_names(module):
    """Names bound at the top level of a module."""
    return {name for node in module.body for name in bound_names(node)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, and the runtime checks with them
    lines = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statement on lines {lines}"


# The only calls into the random modules: seeded generators and seed
# material, each given its seed.
SEEDED_RANDOMNESS = {
    "random": {"Random"},
    "np.random": {"default_rng", "SeedSequence"},
    "numpy.random": {"default_rng", "SeedSequence"},
}


def dotted_name(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def unseeded_randomness(module):
    """Line and name of each call that draws from a module-level generator
    or builds a generator without a seed; names imported out of a random
    module would escape that check, so they count too."""
    found = []
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module in SEEDED_RANDOMNESS:
            found.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, ast.Call):
            owner, _, attr = (dotted_name(node.func) or "").rpartition(".")
            allowed = SEEDED_RANDOMNESS.get(owner)
            if allowed is not None and (attr not in allowed or not (node.args or node.keywords)):
                found.append((node.lineno, f"{owner}.{attr}"))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_randomness_is_seeded(path):
    # everything is deterministic given a seed
    found = unseeded_randomness(parse(path))
    assert not found, f"{path.name}: unseeded randomness {found}"


def test_unseeded_randomness_rule_flags_each_form():
    source = "\n".join([
        "import random",
        "import numpy as np",
        "from random import choice",
        "random.Random(7).choice([1])",
        "np.random.default_rng(3)",
        "np.random.SeedSequence([1, 2])",
        "random.choice([1])",
        "random.Random()",
        "np.random.rand(2)",
        "np.random.default_rng()",
    ])
    found = unseeded_randomness(ast.parse(source))
    assert found == [
        (3, "from random import"),
        (7, "random.choice"),
        (8, "random.Random"),
        (9, "np.random.rand"),
        (10, "np.random.default_rng"),
    ]


# Process I/O (printing, exiting, the standard streams and the environment)
# belongs to the command layer; the library returns values and raises.
PROCESS_IO = {"print", "sys.exit", "sys.stdout", "sys.stderr", "os.environ", "os.getenv"}
PROCESS_IO_MODULES = ("cli.py", "__main__.py")


def process_io_uses(module):
    """(line, name) of each use of a process I/O name: ``print`` as a name,
    the others as an attribute chain or an imported name, in line order."""
    found = []
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and node.id == "print":
            found.append((node.lineno, "print"))
        elif isinstance(node, ast.Attribute) and dotted_name(node) in PROCESS_IO:
            found.append((node.lineno, dotted_name(node)))
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
            found += [(node.lineno, n) for n in names if n in PROCESS_IO]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_process_io_is_in_the_command_layer_only(path):
    found = [] if path.name in PROCESS_IO_MODULES else process_io_uses(parse(path))
    assert not found, f"{path.name}: process I/O outside {PROCESS_IO_MODULES}: {found}"


def test_process_io_rule_flags_each_form():
    source = "\n".join([
        "import os, sys",
        "from sys import stderr, argv",
        "from os import getenv",
        "print('x')",
        "sys.stdout.write('x')",
        "out = os.environ.get('MECNET_OUT')",
        "sys.exit(1)",
        "log = print",
        "path = os.path.join('a', 'b')",
        "self.print_usage(sys.stderr)",
    ])
    assert process_io_uses(ast.parse(source)) == [
        (2, "sys.stderr"),
        (3, "os.getenv"),
        (4, "print"),
        (5, "sys.stdout"),
        (6, "os.environ"),
        (7, "sys.exit"),
        (8, "print"),
        (10, "sys.stderr"),
    ]


def function_level_imports(module):
    """(line, name) of each name imported inside a function body, nested
    functions and methods included, in line order."""
    found = set()
    for func in ast.walk(module):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    found.update((node.lineno, a.name) for a in node.names)
                elif isinstance(node, ast.ImportFrom):
                    module = "." * node.level + (node.module or "")
                    found.update((node.lineno, f"{module}:{a.name}") for a in node.names)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    # an import inside a function hides a module's dependencies, and with
    # them any import cycle
    found = function_level_imports(parse(path))
    assert not found, f"{path.name}: imports inside a function {found}"


def test_function_level_import_rule_flags_each_form():
    source = "\n".join([
        "import os",
        "def f():",
        "    import json",
        "    from .pairs import ParallelPairViolation",
        "class C:",
        "    def m(self):",
        "        def inner():",
        "            from numpy import random as r",
        "            from . import graph",
        "async def g():",
        "    import a.b, c",
        "if os: import sys",
    ])
    assert function_level_imports(ast.parse(source)) == [
        (3, "json"),
        (4, ".pairs:ParallelPairViolation"),
        (8, "numpy:random"),
        (9, ".:graph"),
        (11, "a.b"),
        (11, "c"),
    ]


def exported_names(module):
    return [
        name
        for node in module.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    ]


def used_names(path):
    """Identifiers a file uses: names, attributes, imported names and the
    words of its string constants other than docstrings (the benchmark's
    tracer names its trace points in strings)."""
    module = parse(path)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(module)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    names = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    module = parse(path)
    missing = sorted(set(exported_names(module)) - defined_names(module))
    assert not missing, f"{path.name}: __all__ names {missing} are not defined"


def export_users(path):
    """The names used by the other library modules (not the package's
    re-exports), the demos, the benchmark and every test file but the
    module's own and this one, whose allowlist names every name it holds."""
    own_test = ROOT / "tests" / f"test_{path.stem}.py"
    skip = (path, own_test, ROOT / "src" / "mecnet" / "__init__.py", pathlib.Path(__file__).resolve())
    users = [
        p
        for p in [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")]
        if p not in skip
    ]
    return set().union(*(used_names(p) for p in users))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exports_are_used(path):
    allowed = UNUSED_EXPORTS_ALLOWED.get(path.name, {})
    unused = sorted(set(exported_names(parse(path))) - export_users(path) - set(allowed))
    assert not unused, f"{path.name}: __all__ names {unused} are used nowhere else"


def test_allowlist_holds_only_exports():
    # an entry goes once it is no longer exported, or once a user names it
    exports = {path.name: set(exported_names(parse(path))) for path in MODULES}
    stale = []
    for module, names in UNUSED_EXPORTS_ALLOWED.items():
        used = export_users(ROOT / "src" / "mecnet" / module)
        for name in names:
            if name not in exports.get(module, set()):
                stale.append(f"{module}:{name} is not exported")
            elif name in used:
                stale.append(f"{module}:{name} is used")
    assert not stale, f"stale allowlist entries: {sorted(stale)}"


def public_methods(module):
    """(class, name, line) of each public method and property of a
    top-level class; dunder and underscore names are exempt."""
    return [
        (cls.name, node.name, node.lineno)
        for cls in module.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    ]


def method_names(module):
    """Names a module can call a method by: attributes, and the parts of
    each string that is a dotted name (the benchmark's tracer names its
    trace points ``graph.Graph.measure_x`` or ``mecnet.graph:Graph``)."""
    names = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.:]*", node.value):
                names.update(re.split(r"[.:]", node.value))
    return names


def unused_methods(module, used):
    return [(cls, name, line) for cls, name, line in public_methods(module) if name not in used]


@functools.cache
def method_users():
    """The method names used by the library, the demos and the benchmark; a
    method that only tests call is dead code."""
    users = [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return set().union(*(method_names(parse(p)) for p in users))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_methods_are_used(path):
    unused = [f"{cls}.{name} (line {line})" for cls, name, line in unused_methods(parse(path), method_users())]
    assert not unused, f"{path.name}: public methods {unused} are named by no library code"


def test_method_rule_flags_each_form():
    source = "\n".join([
        "class Graph:",
        "    def used(self): ...",
        "    def planted(self): ...",
        "    @property",
        "    def planted_property(self): ...",
        "    def _private(self): ...",
        "    def __eq__(self, other): ...",
        "    def traced(self): ...",
        "def planted_function(): ...",
        "class Empty: ...",
    ])
    user = "\n".join([
        "g.used()",
        "TRACE_POINT = 'graph.Graph.traced'",
        "MESSAGE = 'planted is a word of a message'",
        "planted = 1",
    ])
    assert unused_methods(ast.parse(source), method_names(ast.parse(user))) == [
        ("Graph", "planted", 3),
        ("Graph", "planted_property", 5),
    ]


def private_definitions():
    """(module, name, line) of each underscore-named top-level function,
    class and constant of the library; dunder names are exempt."""
    return [
        (path, name, node.lineno)
        for path in MODULES
        for node in parse(path).body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        for name in bound_names(node)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]


@functools.cache
def references_by_statement(path):
    """(line, names) of each top-level statement of a module: the names and
    attributes in it."""
    return [
        (
            top.lineno,
            {n.id if isinstance(n, ast.Name) else n.attr
             for n in ast.walk(top) if isinstance(n, (ast.Name, ast.Attribute))},
        )
        for top in parse(path).body
    ]


@pytest.mark.parametrize(
    "path, name, line",
    [pytest.param(*d, id=f"{d[0].name}:{d[1]}") for d in private_definitions()],
)
def test_private_names_are_used_by_the_library(path, name, line):
    # a private helper that only its tests call is dead code
    used = any(
        name in names
        for p in MODULES
        for top_line, names in references_by_statement(p)
        if not (p == path and top_line == line)
    )
    assert used, f"{path.name}:{line}: {name} is used by no library code"


# The closed forms of the paper's figures, applied to the measured facts in
# one layer only
CLOSED_FORMS = {"arqf_cqr", "arqf_mec", "throughput_mec", "throughput_cqr"}
CLOSED_FORMS_APPLIED_IN = ("experiments", "write_reports")


def closed_form_calls(module):
    """(top-level name, line, closed form) of each call to a closed form,
    by name or as an attribute, with the top-level statement it sits in."""
    found = []
    for top in module.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in CLOSED_FORMS:
                    found.append((getattr(top, "name", None), node.lineno, name))
    return found


def test_closed_forms_are_applied_in_write_reports_only():
    calls = [(path.stem, *call) for path in MODULES for call in closed_form_calls(parse(path))]
    stray = [call for call in calls if call[:2] != CLOSED_FORMS_APPLIED_IN]
    assert not stray, f"closed forms applied outside experiments.write_reports: {stray}"
    assert {call[3] for call in calls} == CLOSED_FORMS


def test_closed_form_rule_flags_each_form():
    source = "\n".join([
        "from .metrics import arqf_cqr",
        "def run_instance(n, chi):",
        "    return arqf_cqr(n, chi)",
        "class Record:",
        "    def build(self, t):",
        "        return metrics.throughput_mec(t, 1.0)",
        "FOOTPRINT = arqf_mec(1, 4, (3, 3), 2, 'proactive')",
        "def write_reports(t):",
        "    return throughput_cqr(t)",
    ])
    assert closed_form_calls(ast.parse(source)) == [
        ("run_instance", 3, "arqf_cqr"),
        ("Record", 6, "throughput_mec"),
        (None, 7, "arqf_mec"),
        ("write_reports", 9, "throughput_cqr"),
    ]


# The byte-level conversion between masks and bit matrices, stated in one
# module
BIT_MATRIX_CONVERSIONS = {"packbits", "unpackbits", "from_bytes", "to_bytes"}
BIT_MATRIX_MODULE = "graph.py"


def bit_matrix_conversions(module):
    """(line, name) of each use of a byte-level conversion, as a name, an
    attribute (``np.packbits``, ``int.from_bytes``, ``m.to_bytes``) or an
    imported name, in line order."""
    found = []
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, a.name) for a in node.names if a.name in BIT_MATRIX_CONVERSIONS)
            continue
        else:
            continue
        if name in BIT_MATRIX_CONVERSIONS:
            found.append((node.lineno, name))
    return sorted(found)


def test_bit_matrix_conversions_are_in_graph_only():
    found = {path.name: bit_matrix_conversions(parse(path)) for path in MODULES}
    stray = {name: uses for name, uses in found.items() if uses and name != BIT_MATRIX_MODULE}
    assert not stray, f"mask/bit-matrix conversions outside {BIT_MATRIX_MODULE}: {stray}"
    assert {name for _, name in found[BIT_MATRIX_MODULE]} == BIT_MATRIX_CONVERSIONS


def test_bit_matrix_rule_flags_each_form():
    source = "\n".join([
        "import numpy as np",
        "from numpy import unpackbits",
        "rows = np.packbits(grid, axis=1, bitorder='little')",
        "grid = unpackbits(rows)",
        "mask = int.from_bytes(raw, 'little')",
        "raw = (5).to_bytes(1, 'little')",
        "grid = np.frombuffer(raw, np.uint8)",
    ])
    assert bit_matrix_conversions(ast.parse(source)) == [
        (2, "unpackbits"),
        (3, "packbits"),
        (4, "unpackbits"),
        (5, "from_bytes"),
        (6, "to_bytes"),
    ]


# Test files share code through tests/reference.py alone, which pytest does
# not collect and which defines nothing pytest would collect.
SUITE_FILES = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def imports_of_test_modules(module):
    """(line, name) of each imported name whose dotted path has a ``test_*``
    part, as in ``import test_x``, ``from test_x import y`` and
    ``from tests import test_x``."""
    found = []
    for node in ast.walk(module):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if getattr(node, "module", None) else ""
            names = [prefix + a.name for a in node.names]
            found += [(node.lineno, n) for n in names if any(p.startswith("test_") for p in n.split("."))]
    return found


def collected_definitions(module):
    """(line, name) of each function named ``test*`` and class named ``Test*``."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(module)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test")
        or isinstance(node, ast.ClassDef) and node.name.startswith("Test")
    )


def test_test_code_is_shared_through_the_reference_module_only():
    found = {p.name: uses for p in SUITE_FILES if (uses := imports_of_test_modules(parse(p)))}
    assert not found, f"test modules imported: {found}"
    assert collected_definitions(parse(ROOT / "tests" / "reference.py")) == []


def test_test_module_rules_flag_each_form():
    source = "\n".join([
        "import os, test_cqr",
        "from test_netgen import EVAL_CONFIG",
        "from tests import test_graph",
        "from reference import bfs_dist",
        "def test_helper():",
        "    class TestInner: pass",
        "def helper(): pass",
    ])
    module = ast.parse(source)
    assert imports_of_test_modules(module) == [(1, "test_cqr"), (2, "test_netgen.EVAL_CONFIG"), (3, "tests.test_graph")]
    assert collected_definitions(module) == [(5, "test_helper"), (6, "TestInner")]


# Each library module has a row in the README's module table, its first
# cell naming it as `mecnet.<module>`.
README = ROOT / "README.md"
UNLISTED_MODULES = {"__init__", "__main__"}


def module_table_names(text):
    """The modules named in the first cell of each row of the table under
    the "What's inside" heading, up to the next heading."""
    section = text.partition("\n## What's inside\n")[2].partition("\n## ")[0]
    return {
        name
        for line in section.splitlines()
        if line.startswith("|")
        for name in re.findall(r"`mecnet\.(\w+)`", line.split("|")[1])
    }


def test_every_module_has_a_readme_row():
    listed = module_table_names(README.read_text(encoding="utf-8"))
    missing = sorted(p.stem for p in MODULES if p.stem not in UNLISTED_MODULES | listed)
    assert not missing, f"modules with no row in README's module table: {missing}"


def test_readme_row_rule_reads_the_first_cells_of_that_table_only():
    text = "\n".join([
        "# mecnet",
        "| `mecnet.before` | a table above the section |",
        "## What's inside",
        "",
        "| module | contents |",
        "| --- | --- |",
        "| `mecnet.graph` | bitset graphs, as `mecnet.qnet` uses them |",
        "| `mecnet.experiments`, `mecnet.cli` | batch pipeline |",
        "prose naming `mecnet.prose`",
        "## Install",
        "| `mecnet.after` | a table below it |",
    ])
    assert module_table_names(text) == {"graph", "experiments", "cli"}
