"""Design rules of the package, checked on its source: exact arithmetic
only (no float literal, no float() call, no math.sqrt, math.log or
math.exp, and no true division: `/` of two ints gives a float, so the
package divides only by `//` and keeps every rational as an int over a
known denominator), no knobs (no read of os.environ or os.getenv), no
dead code (every public top-level function and class is used somewhere
in the package), no unused import (every imported name is read in its
module) and one Fraction builder (fractions is imported only inside
qseries.fraction).

Start-up imports: `import hcn7.cli`, which every hcn7 command pays, loads
none of dataclasses, inspect, ast, json, fractions, decimal or numbers;
json loads only when a command asks for json output, and verify, newform
and table never load the last three."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "hcn7").glob("*.py"))

BANNED_ATTRIBUTES = {
    "math": {"sqrt", "log", "exp"},
    "os": {"environ", "getenv"},
}


def violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"line {node.lineno}: float() call")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {node.lineno}: true division /")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.attr in BANNED_ATTRIBUTES.get(node.value.id, ())
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in BANNED_ATTRIBUTES:
            for alias in node.names:
                if alias.name in BANNED_ATTRIBUTES[node.module]:
                    found.append(f"line {node.lineno}: from {node.module} import {alias.name}")
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "hurwitz.py", "qseries.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_and_no_knobs(path):
    assert violations(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 1e3",
        "x = float(n)",
        "import math\nx = math.sqrt(n)",
        "import math\nx = math.log(n)",
        "import math\nx = math.exp(n)",
        "from math import sqrt",
        "import os\nx = os.environ.get('N')",
        "import os\nx = os.environ['N']",
        "import os\nx = os.getenv('N')",
        "from os import environ",
        "x = a / b",
        "x /= 2",
    ],
)
def test_rules_catch(source):
    assert violations(ast.parse(source))


# Public names that no module of the package uses, each with its reason.
UNREFERENCED_ALLOWED = {
    "qseries.max_order": "read by bench/child.py",
}


def _names_used(node: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported anywhere in node."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def unreferenced(sources) -> list[str]:
    """module.name of each public top-level function or class in sources
    that no top-level statement of sources uses, its own definition aside."""
    defined = []  # (module.name, name, the definition)
    uses = []  # (the statement, names it uses)
    for path in sources:
        for node in ast.parse(path.read_text(), str(path)).body:
            uses.append((node, _names_used(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((f"{path.stem}.{node.name}", node.name, node))
    return sorted(
        qualified
        for qualified, name, definition in defined
        if not any(name in used for node, used in uses if node is not definition)
    )


def test_every_public_name_has_a_caller_in_the_package():
    assert unreferenced(SOURCES) == sorted(UNREFERENCED_ALLOWED)



# Imported names that their module never reads, each with its reason.
UNREAD_IMPORTS_ALLOWED = {
    "__init__.hmm_series": "re-exported: bench/child.py reads it",
    "__init__.hmm_sum": "re-exported: bench/child.py reads it",
}


def unread_imports(tree: ast.AST) -> list[str]:
    """Each name an import binds in tree that tree never reads; the
    __future__ imports are directives, not names."""
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [name for name in imported if name not in read]


def test_every_imported_name_is_read():
    unread = [
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in unread_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert sorted(unread) == sorted(UNREAD_IMPORTS_ALLOWED)


@pytest.mark.parametrize(
    "source, unread",
    [
        ("import os\nx = 1", ["os"]),
        ("import os.path\nx = os.sep", []),
        ("from dataclasses import dataclass\nx = 1", ["dataclass"]),
        ("from .arith import LambdaSpec, lambda_series\nx = lambda_series(1, 1, 7, 9)", ["LambdaSpec"]),
        ("from typing import Iterator as It\ndef f() -> It[int]: ...", []),
        ("from __future__ import annotations", []),
    ],
)
def test_unread_import_rule(source, unread):
    assert unread_imports(ast.parse(source)) == unread


def fractions_imports(tree: ast.AST, where: str = "<module>") -> list[str]:
    """The innermost function or class around each import of fractions in
    tree, "<module>" for one at top level."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "fractions" for a in node.names):
            found.append(where)
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append(where)
        scope = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else where
        found.extend(fractions_imports(node, scope))
    return found


def test_fractions_is_imported_only_by_qseries_fraction():
    found = [
        f"{path.stem}.{where}"
        for path in SOURCES
        for where in fractions_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == ["qseries.fraction"]


@pytest.mark.parametrize(
    "source, found",
    [
        ("import fractions", ["<module>"]),
        ("from fractions import Fraction as F", ["<module>"]),
        ("class T:\n    def f(self):\n        from fractions import Fraction", ["f"]),
        ("def g():\n    if x:\n        import fractions, math", ["g"]),
        ("from decimal import Decimal\nimport numbers", []),
    ],
)
def test_fractions_import_rule(source, found):
    assert fractions_imports(ast.parse(source)) == found


STARTUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import hcn7.cli
print(" ".join(sorted(set(sys.modules) - before)))
stdout, sys.stdout = sys.stdout, open(sys.argv[2], "w")
codes = [hcn7.cli.main(argv.split()) for argv in sys.argv[3:]]
sys.stdout.close()
sys.stdout = stdout
print(*codes, *sorted({"fractions", "decimal", "numbers"} & set(sys.modules)))
code = hcn7.cli.main(["sum", "--m", "1", "--M", "7", "--n", "5", "--format", "json"])
print(code, "json" in sys.modules)
"""

STARTUP_BANNED = {"dataclasses", "inspect", "ast", "json", "fractions", "decimal", "numbers"}

# Commands that must run without fractions, decimal and numbers, not only start so.
RUN_WITHOUT_FRACTIONS = [
    "verify --suite all --format csv",
    "newform --nmax 2000 --method cross --format csv",
    "table --pmax 100 --format csv",
]


def test_startup_imports_only_what_commands_use(tmp_path):
    # -S: no site module, so nothing the interpreter's setup preloads can hide a load
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-S", "-E", "-c", STARTUP_PROBE, str(src), str(tmp_path / "out"), *RUN_WITHOUT_FRACTIONS],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.splitlines()
    loaded = set(out[0].split())
    assert "hcn7.cli" in loaded
    assert loaded & STARTUP_BANNED == set()
    assert out[1] == "0 0 0"  # every command ran, and loaded none of fractions, decimal, numbers
    assert json.loads("\n".join(out[2:-1]))["payload"]["value"] == "1"
    assert out[-1] == "0 True"
