"""Every import in the package and in its tests is used, and so is every
private function and class of the package: stand-ins for a linter's
unused-import and unused-definition rules, built on the standard
library's ast.  The filtration side and the q-analog side of the
identity import nothing from each other beyond the Weyl dimension.
Every name the benchmark's tracer wraps also still exists in the
package.  Importing the package loads neither `dataclasses` nor the
`inspect` machinery it pulls in, which every process would pay for in
start-up time and memory."""

import ast
import collections
import importlib
import importlib.util
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "lieq"
TRACING = TESTS.parent / "perfbench" / "tracing.py"
# __init__ imports are the public API, re-exported rather than used
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # quoted annotations such as "RootSystem"
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                expr = ast.parse(annotation.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    source = (
        "import os\nfrom json import dumps, loads\nfrom pathlib import Path\n"
        "x: 'Path' = loads('os')\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unused_private_functions(sources: dict) -> list:
    """(file, line, name) for every _-prefixed function, method or class
    that no code in the given {file: source} references outside its own
    body."""
    defs, total, inside = [], collections.Counter(), collections.Counter()

    def references(tree):
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr

    for file, source in sources.items():
        tree = ast.parse(source)
        total.update(references(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _is_private(node.name):
                defs.append((file, node.lineno, node.name))
                inside.update(r for r in references(node) if r == node.name)
    return sorted(d for d in defs if total[d[2]] == inside[d[2]])


def test_checker_flags_an_unused_private_function():
    sources = {
        "a.py": (
            "def _used():\n    return 1\n"
            "def _dead():\n    return _used()\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def _called_from_b():\n    return 0\n"
            "class C:\n    def __init__(self):\n        self.x = 0\n"
            "    def _method(self):\n        return 2\n"
            "    def _dead_method(self):\n        return self._method()\n"
            "class _Used:\n    pass\n"
            "class _DeadClass:\n    def make(self):\n        return _DeadClass(), _Used()\n"
        ),
        "b.py": "import a\na._called_from_b()\n",
    }
    assert unused_private_functions(sources) == [
        ("a.py", 3, "_dead"), ("a.py", 5, "_recursive"), ("a.py", 14, "_dead_method"),
        ("a.py", 18, "_DeadClass"),
    ]


def test_no_unused_private_functions():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_functions(sources) == []


# The two sides of the identity stay independent: the filtration side
# reads only the Weyl dimension from the q-analog side, which imports
# nothing from the module side.  (importer, imported module): the names
# the importer may take from it.
IMPORT_RULES = {
    **{(module, "qanalog"): {"weyl_dimension"} for module in ("irreps", "chevalley", "orbits")},
    **{
        (module, other): set()
        for module in ("qanalog", "height")
        for other in ("irreps", "chevalley", "orbits", "verify")
    },
}


def forbidden_imports(sources: dict, rules: dict) -> list:
    """(module, line, imported module, name) for every import in the
    given {module name: source}, at any depth, that a rule forbids; an
    imported module is named by its last dotted part, and "*" stands for
    the whole of it."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module in (None, "lieq")
            ):
                pairs = [(alias.name, "*") for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                pairs = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            for target, name in pairs:
                target = target.split(".")[-1]
                allowed = rules.get((module, target))
                if allowed is not None and name not in allowed:
                    found.append((module, node.lineno, target, name))
    return sorted(found)


def test_checker_flags_a_forbidden_import():
    sources = {
        "irreps": (
            "from .qanalog import weyl_dimension\nfrom .qanalog import q_partition\n"
            "from .linalg import eliminate\n"
        ),
        "orbits": "from . import qanalog\nfrom fractions import Fraction\n",
        "chevalley": "from lieq import qanalog\n",
        "height": "def f():\n    from lieq.verify import verify_theorem\n",
        "qanalog": "import lieq.chevalley\nfrom .rootsystem import Weight\n",
        "verify": "from .irreps import build_irrep\nfrom .qanalog import q_partition\n",
    }
    assert forbidden_imports(sources, IMPORT_RULES) == [
        ("chevalley", 1, "qanalog", "*"), ("height", 2, "verify", "verify_theorem"),
        ("irreps", 2, "qanalog", "q_partition"), ("orbits", 1, "qanalog", "*"),
        ("qanalog", 1, "chevalley", "*"),
    ]


def test_the_two_sides_import_nothing_from_each_other():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert forbidden_imports(sources, IMPORT_RULES) == []


def test_traced_names_resolve_in_the_package():
    """Each function in perfbench's LAYERS is found the way
    `Tracer.install` finds it: a method in its class's own namespace, a
    function in its module and at one or more lookup sites in lieq."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    importlib.import_module("lieq")
    sites = [m for n, m in sys.modules.items() if n == "lieq" or n.startswith("lieq.")]
    missing = []
    for layer, quals in tracing.LAYERS.items():
        module = importlib.import_module(f"lieq.{layer}")
        for qual in quals:
            if "." in qual:
                cls_name, meth = qual.split(".")
                found = meth in vars(getattr(module, cls_name, object))
            else:
                original = getattr(module, qual, None)
                found = original is not None and any(
                    value is original for site in sites for value in vars(site).values()
                )
            if not found:
                missing.append(f"{layer}.{qual}")
    assert missing == []
    # the counters read these two directly
    rootsystem = importlib.import_module("lieq.rootsystem")
    assert "root_coords" in vars(rootsystem.RootSystem)
    assert callable(rootsystem.weyl_group_order)


def test_importing_the_package_loads_no_dataclasses_or_inspect():
    """In a fresh interpreter without site packages, `import lieq`
    leaves neither `dataclasses` nor `inspect` in sys.modules."""
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import lieq; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
