"""Source hygiene checks; this module imports nothing beyond the standard library."""

import ast
import collections
import io
import os
import pathlib
import re
import subprocess
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "reglab"


def _unused_imports(tree):
    """Names a module imports but never reads; names in ``__all__`` count as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    unused = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_unused_import_scan_sees_names_and_all():
    tree = ast.parse(
        "import os.path\nfrom a import b, c as d\nfrom __future__ import annotations\n"
        "__all__ = ['d']\nos.sep\n"
    )
    assert _unused_imports(tree) == [(2, "b")]


def _definitions(tree):
    """(line, name) of every function, class and method, dunders excluded."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, kinds) and not re.fullmatch(r"__\w+__", node.name)
    ]


def _names(source):
    """Identifier tokens of Python source; words in strings and comments do not count."""
    return [
        tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.NAME
    ]


def test_no_unreferenced_definitions():
    names = collections.Counter(
        name
        for top in ("src", "tests", "perfbench")
        for path in (ROOT / top).rglob("*.py")
        for name in _names(path.read_text())
    )
    unreferenced = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _definitions(ast.parse(path.read_text(), str(path)))
        if names[name] <= 1
    ]
    assert not unreferenced, "definitions never referenced:\n" + "\n".join(unreferenced)


def test_name_scan_skips_strings_and_comments():
    assert _names("f(x)  # g\ns = 'h'\n") == ["f", "x", "s"]


def test_definition_scan_sees_functions_classes_and_methods():
    tree = ast.parse(
        "class A:\n    def m(self): pass\n    def __init__(self): pass\n"
        "def f():\n    def g(): pass\nasync def h(): pass\n"
    )
    assert sorted(_definitions(tree)) == [(1, "A"), (2, "m"), (4, "f"), (5, "g"), (6, "h")]


def _simplify_uses(tree):
    """Lines that reach sympy's heuristic ``simplify``, by attribute, name or import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "simplify":
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "simplify":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == "simplify" for a in node.names):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_exact_layers_never_simplify():
    uses = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _simplify_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not uses, "sympy simplify is a heuristic; use cancel:\n" + "\n".join(uses)


def test_simplify_scan_sees_attributes_names_and_imports():
    tree = ast.parse(
        "import sympy\nfrom sympy import simplify as s\nsympy.simplify(x)\n"
        "e.simplify()\nsympy.cancel(x)\n"
    )
    assert _simplify_uses(tree) == [2, 3, 4]


def test_verify_main_leaves_sympy_physics_unimported():
    # sympy imports sympy.physics.units on the first simplify call, 0.2 s
    # that the exact layers do not need
    script = (
        "import contextlib, io, sys\n"
        "from reglab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(['verify-main', '--level', '40'])\n"
        "assert code == 0, code\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['sympy', 'physics']))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def _document_writes(tree):
    """(line, call) of each call outside ``main`` that could write to stdout or build the
    result document: ``json.dumps``, ``_manifest``, or ``print`` without ``file=sys.stderr``."""
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == "main":
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            to_stderr = any(
                kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr" for kw in node.keywords
            )
            if name in ("json.dumps", "_manifest") or (name == "print" and not to_stderr):
                found.append((node.lineno, name))
    return sorted(found)


def test_only_cli_main_writes_the_document():
    path = SRC / "cli.py"
    writes = _document_writes(ast.parse(path.read_text(), str(path)))
    assert not writes, "stdout writes outside main:\n" + "\n".join(
        f"cli.py:{line}: {name}" for line, name in writes
    )


def test_document_write_scan_sees_dumps_manifest_and_stdout_prints():
    tree = ast.parse(
        "import json, sys\n"
        "def cmd(a):\n    print(a, file=sys.stderr)\n    print(a)\n    json.dumps(a)\n"
        "    diag = lambda *x: print(*x, file=sys.stderr)\n    return _manifest(a)\n"
        "def main():\n    print(json.dumps(_manifest(1)))\n"
        "print('module level')\n"
    )
    assert _document_writes(tree) == [
        (4, "print"),
        (5, "json.dumps"),
        (7, "_manifest"),
        (10, "print"),
    ]
