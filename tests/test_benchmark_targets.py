"""The package attributes the traced benchmark wraps must exist.

``perfbench/tracing.py`` replaces functions by name through module
attributes; a rename in the package breaks only the traced benchmark
passes, so the names are checked here.
"""

import importlib
import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_attributes_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (modname, attr)
        for modname, attr, _, _ in tracing.TARGETS
        if not hasattr(importlib.import_module(modname), attr)
    ]
    missing += [
        (modname, "integrate_box")
        for modname, _ in tracing.ENGINE_TARGETS
        if not hasattr(importlib.import_module(modname), "integrate_box")
    ]
    assert not missing
