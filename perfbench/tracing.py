"""Spans around calls into reglab's layers, recorded from outside the package.

The benchmark replaces public functions by wrappers through the module
attributes their callers look them up by (``instrumented``). A wrapper
forwards its arguments and result unchanged and records one span: name,
start, end, parent span and operation id, plus a work count such as the
number of points passed. Spans stay in memory until ``write`` is called.

A span's self time is its duration minus the time its child spans cover; a
layer's busy time is the total duration of its outermost spans, so a layer
function that calls another function of the same layer is counted once.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

# span fields
_ID, _PARENT, _OP, _NAME, _T0, _T1, _COUNT, _NESTED = range(8)


def _size(args, out):
    return int(getattr(args[0], "size", 1))


def _rows(args, out):
    return len(args[0])


def _evaluations(args, out):
    return int(out.evaluations)


def _divisors(args, out):
    return len(out["divisors"])


class Tracer:
    """Records spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    @contextlib.contextmanager
    def operation(self, op):
        """Tag every span opened inside the block with operation id ``op``."""
        outer, self._op = self._op, op
        try:
            yield
        finally:
            self._op = outer

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name):
        stack = self._stack
        rec = [
            len(self.spans),
            stack[-1][_ID] if stack else None,
            self._op,
            name,
            time.perf_counter(),
            None,
            0,
            any(r[_NAME] == name for r in stack),
        ]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec):
        rec[_T1] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, count=None):
        """``fn`` with a span per call; ``count(args, result)`` sets its work count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[_COUNT] = count(args, out)
            return out

        return traced

    def wrap_engine(self, fn, integrand):
        """``integrate_box`` with an ``engine`` span, and its integrand wrapped as ``integrand``."""

        def engine(f, *args, **kwargs):
            return fn(self.wrap(f, integrand, _rows), *args, **kwargs)

        return self.wrap(functools.wraps(fn)(engine), "engine", lambda a, out: out[2])

    def write(self, path):
        """Write the spans as JSON lines, times in seconds from the first span."""
        base = self.spans[0][_T0] if self.spans else 0.0
        keys = ("id", "parent", "op", "name", "start", "end", "count")
        with open(path, "w") as fh:
            for s in self.spans:
                row = s[:_T0] + [s[_T0] - base, s[_T1] - base, s[_COUNT]]
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")

    def stats(self):
        """Per span name: calls, busy_s, self_s and count over outermost spans."""
        covered = defaultdict(float)
        for s in self.spans:
            if s[_PARENT] is not None:
                covered[s[_PARENT]] += s[_T1] - s[_T0]
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0})
        for s in self.spans:
            st = out[s[_NAME]]
            dur = s[_T1] - s[_T0]
            st["self_s"] += dur - covered[s[_ID]]
            if not s[_NESTED]:
                st["calls"] += 1
                st["busy_s"] += dur
                st["count"] += s[_COUNT]
        return out


class NullTracer:
    """Same interface as Tracer for untraced passes; records nothing."""

    def operation(self, op):
        return contextlib.nullcontext()

    def span(self, name):
        return contextlib.nullcontext()


# (module, attribute, span name, work count). Callers that import a function by
# name hold their own reference, so each such module is listed separately.
TARGETS = (
    ("reglab.cli", "check_decomposition", "symbolic", None),
    ("reglab.cli", "build_xi", "symbolic", None),
    ("reglab.symbolic", "check_decomposition", "symbolic", None),
    ("reglab.symbolic", "build_xi", "symbolic", None),
    ("reglab.symbolic.algebra", "check_decomposition", "symbolic", None),
    ("reglab.cli", "certify_all_residues", "residues", _divisors),
    ("reglab.residues", "certify_all_residues", "residues", _divisors),
    ("reglab.cli", "regulator_boundary_integral", "boundary", _evaluations),
    ("reglab.quadrature.boundary", "rho_of_element_at", "forms", None),
    ("reglab.forms", "bloch_wigner", "kernels", _size),
    ("reglab.kernels", "bloch_wigner", "kernels", _size),
    ("reglab.numerics", "bloch_wigner", "numerics", None),
    ("reglab.cli", "lprime_minus1", "lfunctions", None),
    ("reglab.cli", "zeta_prime_minus2", "lfunctions", None),
    ("reglab.lfunctions", "lprime_minus1", "lfunctions", None),
    ("reglab.lfunctions", "zeta_prime_minus2", "lfunctions", None),
    ("reglab.lfunctions", "dirichlet_L", "lfunctions", None),
    ("reglab.lfunctions", "dirichlet_Lprime_neg", "lfunctions", None),
    ("reglab.cli", "find_integer_relation", "lattice", None),
    ("reglab.lattice", "find_integer_relation", "lattice", None),
    ("reglab.k3", "surface_invariants", "k3", None),
)

# integrate_box as seen by each caller, and the span name of the integrand it is given
ENGINE_TARGETS = (
    ("reglab.quadrature.mahler", "mahler"),
    ("reglab.quadrature.boundary", "boundary.chart"),
)


@contextlib.contextmanager
def instrumented(tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for modname, attr, name, count in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, tracer.wrap(fn, name, count))
        for modname, integrand in ENGINE_TARGETS:
            mod = importlib.import_module(modname)
            fn = mod.integrate_box
            saved.append((mod, "integrate_box", fn))
            mod.integrate_box = tracer.wrap_engine(fn, integrand)
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
