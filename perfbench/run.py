"""reglab benchmark: run one workload for a fixed time and report its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each pass of a workload runs in a fresh interpreter (``worker.py``) limited to
one thread, so set-up time and peak memory belong to that pass. Passes run
back to back, at least one, and the run stops at the pass boundary expected
to lie nearest to ``--seconds``. With ``--trace 0`` the end-to-end metrics are
the medians over the passes. With ``--trace 1`` untraced and traced passes
alternate; the per-layer metrics are medians over the traced passes, and
``trace.overhead_s`` is the traced minus the untraced median wall time.
Workload and metric names and units are read from ``BENCHMARK.json`` at the
root of the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation fails if
it raises or leaves its tolerance; a pass that crashes counts as one failed
operation. ``--workload all`` runs every workload with tracing off and on,
prints a table of every metric together with ``fail_rate``, and ends with the
same JSON object over all of them, metric names prefixed by the workload.

Without reglab's sources in ``src/`` beside this directory the benchmark
exits with status 2 and prints no result.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _BENCH = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in _BENCH["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}
# per-layer metrics that compare passes rather than read one traced pass
RUN_LEVEL = ("cli.result_identical", "trace.overhead_s")
OUT_DIR = os.path.join(HERE, "out")
RUN_LIMIT_S = 170.0  # every run must end within 180 s
# one thread per pass: numpy's BLAS would otherwise start a pool
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_pass(workload, seed, traced, deadline):
    """Run one pass in a fresh process; its result dict, or None if it crashed."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(traced)),
        "--spans", os.path.join(OUT_DIR, f"{workload}.spans.jsonl"),
        "--spawn-time", repr(time.time()),
    ]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env={**os.environ, **ENV},
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: pass timed out", file=sys.stderr)
        return None, time.perf_counter() - t0
    duration = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: pass exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None, duration
    result = json.loads(lines[-1])
    print(
        f"{workload}: {'traced' if traced else 'untraced'} pass, setup {result['setup_s']:.3f} s,"
        f" wall {result['wall_s']:.3f} s, {result['failed']}/{result['attempted']} failed",
        file=sys.stderr,
    )
    for failure in result["failures"]:
        print(f"{workload}: FAILED {failure}", file=sys.stderr)
    return result, duration


def measure(workload, seed, seconds, trace):
    """Run passes for about ``seconds``; (correct, attempted, failed, metrics)."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    kinds = (False, True) if trace else (False,)
    passes = {False: [], True: []}
    durations = []
    crashed = 0
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        i += 1
        result, duration = run_pass(workload, seed, traced, deadline)
        durations.append(duration)
        if result is None:
            crashed += 1
        else:
            passes[traced].append(result)
        elapsed = time.perf_counter() - start
        covered = i >= len(kinds)
        # stop where the run ends nearest to ``seconds``: now, or after one more pass
        if covered and elapsed + statistics.median(durations) / 2 > seconds:
            break
        if elapsed + max(durations) > RUN_LIMIT_S:
            break

    if not passes[False] or (trace and not passes[True]):
        return None
    done = passes[False] + passes[True]
    attempted = sum(p["attempted"] for p in done) + crashed
    failed = sum(p["failed"] for p in done) + crashed

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    if trace:
        layers = [p["layers"] for p in passes[True]]
        metrics = {name: med(layers, name) for name in PER_LAYER if name not in RUN_LEVEL}
        metrics["cli.result_identical"] = int(len({p["fingerprint"] for p in done}) == 1)
        metrics["trace.overhead_s"] = med(passes[True], "wall_s") - med(passes[False], "wall_s")
        units = PER_LAYER
    else:
        metrics = {name: med(done, name) for name in END_TO_END}
        units = END_TO_END
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return failed == 0, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # unwind on SIGTERM too, so that subprocess.run kills and reaps a running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "reglab", "__init__.py")):
        print(f"reglab sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    if args.workload != "all":
        out = measure(args.workload, args.seed, args.seconds, args.trace)
        if out is None:
            print("no pass completed", file=sys.stderr)
            return 3
        correct, attempted, failed, metrics = out
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = measure(workload, args.seed, args.seconds, trace)
            if out is None:
                print(f"{workload}: no pass completed", file=sys.stderr)
                return 3
            ok, n, bad, m = out
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            if trace == 0:
                m["fail_rate"] = {"value": bad / n, "unit": "ratio"}
            for name, mv in m.items():
                print(f"{workload:15s} {name:34s} {mv['value']:>14.6g} {mv['unit']}")
                metrics[f"{workload}.{name}"] = mv
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
