"""The package attributes the traced benchmark wraps must exist, the calls it
counts must go through them, and the calls its workloads make must resolve.

``perfbench/tracing.py`` replaces functions by name through module
attributes; a rename in the package, or a call that bypasses the attribute,
breaks only the traced benchmark passes, so both are checked here.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from reglab import cli, quadrature
from reglab.quadrature import QuadratureConfig, mahler
from reglab.symbolic import parse_poly

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_benchmark_calls_resolve(monkeypatch):
    # the benchmark's workloads build configs with a seed and run `verify-main --seed`;
    # removing either from the package breaks them, so it must fail here too
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for _, _, _, cfg, _, _ in workloads.DIRECT_CASES:
        QuadratureConfig(seed=1, **cfg)
    argv = workloads.VerifyMain.prepare(1, {})["argv"]
    args = cli.build_parser().parse_args(argv)
    assert (args.command, args.seed) == ("verify-main", 1)


def _count_engine_rows(monkeypatch):
    """Wrap mahler's integrate_box and each integrand it is handed, as the tracer does."""
    seen = {"calls": 0, "rows": 0, "evaluations": 0}
    engine = mahler.integrate_box

    def counted(f, *args, **kwargs):
        def integrand(points):
            seen["rows"] += len(points)
            return f(points)

        seen["calls"] += 1
        out = engine(integrand, *args, **kwargs)
        seen["evaluations"] += out[2]
        return out

    monkeypatch.setattr(mahler, "integrate_box", counted)
    return seen


@pytest.mark.parametrize(
    "poly, variables, check, cfg",
    [
        ("1+x+y+z", "xyz", "mahler_measure", dict(rule="adaptive_gk", prec=4)),
        ("1+x+y+z", "xyz", "mahler_measure", dict(level=8)),
        ("1+x+y", "xy", "deninger_gamma_check", dict(level=16)),
    ],
    ids=["measure-adaptive", "measure-gl", "deninger-gl"],
)
def test_torus_integrals_go_through_the_traced_attribute(
    monkeypatch, poly, variables, check, cfg
):
    # the benchmark counts mahler rows by wrapping this module attribute: every
    # torus integral must call it, and its integrand must see every node
    seen = _count_engine_rows(monkeypatch)
    P = parse_poly(poly, list(variables))
    res = getattr(quadrature, check)(P, QuadratureConfig(**cfg))
    assert seen["calls"] >= 1
    assert seen["rows"] == seen["evaluations"] == res.evaluations > 0
