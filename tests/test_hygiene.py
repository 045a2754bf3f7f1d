"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "reglab"


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
