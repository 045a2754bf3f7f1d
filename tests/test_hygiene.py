"""Source hygiene checks; this module imports nothing beyond the standard library."""

import ast
import builtins
import collections
import functools
import io
import json
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


# sympy's heuristic simplifier, and its expression parsers: values and polynomials are
# read by the grammar of symbolic/poly.py
_SYMPY_HEURISTICS = {"simplify", "sympify", "parse_expr"}


def _simplify_uses(tree):
    """Lines that reach sympy's ``simplify``, ``sympify`` or ``parse_expr``, by attribute,
    name or import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _SYMPY_HEURISTICS:
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in _SYMPY_HEURISTICS:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
            a.name in _SYMPY_HEURISTICS for a in node.names
        ):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_exact_layers_never_simplify():
    uses = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _simplify_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not uses, (
        "sympy simplify is a heuristic and sympify a second parser; parse with"
        " symbolic/poly.py and compute exactly in its rings QQ[vars] and fields QQ(s):\n"
        + "\n".join(uses)
    )


def test_simplify_scan_sees_attributes_names_and_imports():
    tree = ast.parse(
        "import sympy\nfrom sympy import simplify as s\nsympy.simplify(x)\n"
        "e.simplify()\nsympy.cancel(x)\n"
        "sympy.sympify(v, rational=True)\n"
        "from sympy.parsing.sympy_parser import parse_expr\n"
    )
    assert _simplify_uses(tree) == [2, 3, 4, 6, 7]


@functools.lru_cache(maxsize=None)
def _modules_after(*argv):
    """Modules a fresh interpreter holds after ``import reglab.cli`` and one command."""
    script = (
        "import contextlib, io, json, sys\n"
        "from reglab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({list(argv)!r})\n"
        "assert code == 0, code\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def _modules_after_verify_main():
    return _modules_after("verify-main", "--level", "40")


def test_verify_main_leaves_sympy_physics_unimported():
    # sympy imports sympy.physics.units on the first simplify call, 0.2 s
    # that the exact layers do not need
    modules = _modules_after_verify_main()
    assert [m for m in modules if m.split(".")[:2] == ["sympy", "physics"]] == []


def test_verify_main_leaves_sympy_combinatorics_unimported():
    # sympify pulled in sympy.combinatorics and sympy.tensor on the first divisor
    # value, most of a cold load_divisors call; the grammar of symbolic/poly.py does not
    modules = _modules_after_verify_main()
    assert [m for m in modules if m.split(".")[:2] == ["sympy", "combinatorics"]] == []


def test_k3_leaves_sympy_combinatorics_unimported():
    # sympy expressions pull in sympy.combinatorics; the k3 document prints delta and
    # the places with symbolic/poly.py, from the ring elements themselves
    modules = _modules_after("k3")
    assert [m for m in modules if m.split(".")[:2] == ["sympy", "combinatorics"]] == []


def test_verify_main_leaves_scipy_unimported():
    # no layer uses scipy; importing scipy.integrate alone costs about 0.6 s of a cold start
    assert [m for m in _modules_after_verify_main() if m.split(".")[0] == "scipy"] == []


# sympy's polynomial rings, by module, constructor or class, sympy's dense Poly class,
# and its rational function fields QQ(s), by constructor or class; a method call such
# as ``p.set_ring(R)``, ``basis.ring(1)`` or ``divisor.field(2)`` is not one, and
# neither is the element class ``FracElement``
_RING_FORMAT = re.compile(
    r"sympy\.polys\.rings|(?<![\w.])ring\(|\bPolyRing\b|\bPoly\b"
    r"|frac_field\(|\bFracField\b|(?<![\w.])field\("
)


def _ring_format_uses(source):
    """Lines that build a polynomial ring or a field QQ(s), or name sympy's dense Poly."""
    return [n for n, line in enumerate(source.splitlines(), 1) if _RING_FORMAT.search(line)]


def test_only_symbolic_poly_owns_the_polynomial_format():
    owner = SRC / "symbolic" / "poly.py"
    uses = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path != owner
        for line in _ring_format_uses(path.read_text())
    ]
    assert not uses, "polynomials or fields built outside symbolic/poly.py:\n" + "\n".join(uses)


def test_ring_format_scan_sees_imports_constructors_and_from_dict():
    source = (
        "from sympy.polys.rings import ring\nR = ring('x', QQ)[0]\np.set_ring(R)\n"
        "q = basis.ring(1)\nsympy.Poly.from_dict(d, gens)\nPolyRing(('x',), QQ)\n"
        "poly_ring(vs)\nsympy.Poly(c, x).sqf_list(), PolyElement\n"
        "K = sympy.QQ.frac_field(s)\nFracField(('s',), QQ)\nK, s = field('s', QQ)\n"
        "isinstance(v, FracElement), divisor.field(2), rational_field(p)\n"
    )
    assert _ring_format_uses(source) == [1, 2, 5, 6, 8, 9, 10, 11]


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


def _nested_self_calls(tree):
    """(line, name) of each function nested in another that calls itself by name: the
    function and its closure cell form a reference cycle that only the cyclic collector
    frees."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, kinds):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, kinds):
                continue
            if any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == inner.name
                for node in ast.walk(inner)
            ):
                found.add((inner.lineno, inner.name))
    return sorted(found)


def test_no_nested_function_calls_itself():
    hits = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _nested_self_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert not hits, (
        "nested functions that call themselves (a reference cycle per call; recurse in a"
        " module-level function or loop):\n" + "\n".join(hits)
    )


def test_nested_self_call_scan_sees_only_nested_recursion():
    tree = ast.parse(
        "def top(n):\n    return top(n - 1)\n"
        "def outer(xs):\n    def rec(i):\n        return rec(i + 1)\n"
        "    def helper(i):\n        return top(i)\n"
        "    class C:\n        def m(self):\n            return self.m()\n"
        "    return rec(0)\n"
        "def deep():\n    def a():\n        def b():\n            return b()\n        return b()\n"
    )
    assert _nested_self_calls(tree) == [(4, "rec"), (14, "b")]


def _lineage(name, bases):
    """name and the names of all its bases, followed through the classes in ``bases``."""
    seen, todo = [], [name]
    while todo:
        n = todo.pop()
        if n not in seen:
            seen.append(n)
            todo.extend(bases.get(n, []))
    return seen


def _failure_paths(trees):
    """(module, line, what) of each way the modules in ``trees`` (name -> AST) could
    report trouble other than ``ValueError`` (bad input) and ``NumericalFailure`` (no
    finite checked value): an import of ``warnings``, or an exception class that
    derives from neither. Classes are matched by name across the modules."""
    bases = {
        node.name: [ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases]
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            if any(n.split(".")[0] == "warnings" for n in names):
                found.append((module, node.lineno, "import warnings"))
            if not isinstance(node, ast.ClassDef) or node.name == "NumericalFailure":
                continue
            builtin = [getattr(builtins, n, None) for n in _lineage(node.name, bases)]
            builtin = [c for c in builtin if isinstance(c, type) and issubclass(c, BaseException)]
            if builtin and not any(issubclass(c, ValueError) for c in builtin):
                found.append((module, node.lineno, f"class {node.name}"))
    return found


def test_one_numerical_failure_path():
    trees = {
        str(path.relative_to(SRC.parent)): ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.rglob("*.py"))
    }
    found = _failure_paths(trees)
    assert not found, (
        "report bad input with ValueError and a numerical failure with"
        " numerics.NumericalFailure, not with warnings or other exceptions:\n"
        + "\n".join(f"{module}:{line}: {what}" for module, line, what in found)
    )


def test_failure_path_scan_sees_warnings_and_other_exceptions():
    trees = {
        "a.py": ast.parse(
            "import warnings\nclass ParseError(ValueError): pass\n"
            "class Deeper(ParseError): pass\nclass Stuck(RuntimeError): pass\n"
            "class NumericalFailure(RuntimeError): pass\nclass Plain: pass\n"
            "class Loud(UserWarning): pass\nclass Text(UnicodeError): pass\n"
        ),
        "b.py": ast.parse(
            "from warnings import warn\nimport warnings_free\n"
            "class Later(a.Stuck): pass\nclass Fine(a.Deeper): pass\n"
        ),
    }
    assert _failure_paths(trees) == [
        ("a.py", 1, "import warnings"),
        ("a.py", 4, "class Stuck"),
        ("a.py", 7, "class Loud"),
        ("b.py", 1, "import warnings"),
        ("b.py", 3, "class Later"),
    ]
