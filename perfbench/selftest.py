"""Self-test of the benchmark's checks and contract; run from the checkout root:

    python3 perfbench/selftest.py

It shows that the checks pass on genuine program outputs and count a
perturbed m(P) value or a perturbed planted triple as a failed operation, and
that the runner refuses to report in a directory without reglab's sources.
Takes about 15 s; exits 1 if anything is off.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import mpmath

import tracing
import worker  # puts src/ on sys.path
from workloads import HighPrecision, VerifyMain, lattice, lfunctions

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
problems = []


def expect(label, verdict, failed_ops):
    got = sorted(op for op, ok, _ in verdict.checks if not ok)
    ok = got == sorted(failed_ops)
    print(f"[{'ok' if ok else 'FAIL'}] {label}: failed operations {got}")
    if not ok:
        problems.append(label)


def check_verify_main(data):
    inputs = VerifyMain.prepare(1, data)
    outputs = VerifyMain.execute(inputs, tracing.NullTracer())
    expect("verify_main, genuine output", VerifyMain.evaluate(inputs, outputs), [])
    doc = json.loads(outputs["stdout"])
    for stage, delta in (("boundary_integral", "1e-9"), ("direct_measure", "1e-3")):
        bent = json.loads(outputs["stdout"])
        value = mpmath.mpf(doc["stages"][stage]["value"]) + mpmath.mpf(delta)
        bent["stages"][stage]["value"] = mpmath.nstr(value, 17)
        perturbed = {**outputs, "stdout": json.dumps(bent)}
        expect(f"verify_main, m(P) {stage} + {delta}",
               VerifyMain.evaluate(inputs, perturbed), [stage])


def check_high_precision(data, pairs=5):
    inputs = HighPrecision.prepare(1, data)
    inputs["pairs"] = inputs["pairs"][:pairs]
    outputs = HighPrecision.execute(inputs, tracing.NullTracer())
    expect("high-precision part, genuine outputs", HighPrecision.evaluate(inputs, outputs), [])
    with mpmath.mp.workprec(160):
        lp = lfunctions.lprime_minus1(lfunctions.F7, 32).mpf()
        zp = lfunctions.zeta_prime_minus2(32).mpf()
        bent = -6 * lp - mpmath.mpf(48) / 7 * zp + mpmath.mpf("1e-12")
        rep = lattice.find_integer_relation([bent, lp, zp], 64, 30)
    outputs["relation"] = (rep, outputs["relation"][1])
    expect("high-precision part, planted triple + 1e-12",
           HighPrecision.evaluate(inputs, outputs), ["relation_planted"])


def check_bare_directory():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", VerifyMain.name, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare)
    ok = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"[{'ok' if ok else 'FAIL'}] without src/: exit {proc.returncode}, no result")
    if not ok:
        problems.append("bare directory")


def main():
    data = worker.setup()
    check_verify_main(data)
    check_high_precision(data)
    check_bare_directory()
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
