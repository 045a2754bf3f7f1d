"""One pass of one workload in a fresh interpreter; ``run.py`` starts it.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
           --spawn-time T [--spans PATH]

Prints one JSON line: set-up time (from ``--spawn-time``, the wall clock at
which the parent started this process, to reglab imported and its shipped
data loaded), pass wall time, peak RSS, the checked operations, quality
figures and, when traced, the per-layer metrics.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402  (imports nothing from reglab)


def setup():
    """Import every layer of reglab and load its shipped data."""
    import reglab.cli  # noqa: F401  (imports every layer)
    from reglab.k3 import data_dir, load_curve
    from reglab.residues import load_divisors
    from reglab.symbolic import load_decomposition

    d = data_dir()
    return {
        "decomposition_n3": load_decomposition(os.path.join(d, "decomposition_n3.json")),
        "decomposition_n4": load_decomposition(os.path.join(d, "decomposition_n4.json")),
        "divisors": load_divisors(os.path.join(d, "divisors_n4.json")),
        "k3_curve": load_curve(os.path.join(d, "k3_curve.json")),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(stats, quality):
    """Per-layer metrics of one traced pass, from span statistics and checked quality."""
    k, f, b = stats["kernels"], stats["forms"], stats["boundary"]
    e, m, chart = stats["engine"], stats["mahler"], stats["boundary.chart"]
    integrand_calls = m["calls"] + chart["calls"]
    ratios = {key: val for key, val in quality.items() if key.startswith("engine.err_ratio.")}
    out = {
        "kernels.calls": k["calls"],
        "kernels.points_per_call": _ratio(k["count"], k["calls"]),
        "kernels.busy_s": k["busy_s"],
        "kernels.mpts": _ratio(k["count"], k["busy_s"]) / 1e6,
        "kernels.max_err": quality.get("kernels.max_err", 0.0),
        "forms.calls": f["calls"],
        "forms.busy_s": f["busy_s"],
        "forms.self_s": f["self_s"],
        "forms.nodes_per_s": _ratio(f["calls"], f["busy_s"]),
        "boundary.nodes": b["count"],
        "boundary.busy_s": b["busy_s"],
        "boundary.nodes_per_s": _ratio(b["count"], b["busy_s"]),
        "boundary.chart_s": chart["self_s"],
        "engine.calls": e["calls"],
        "engine.evaluations": e["count"],
        "engine.integrand_calls": integrand_calls,
        "engine.points_per_call": _ratio(m["count"] + chart["count"], integrand_calls),
        "engine.self_s": e["self_s"],
        "engine.err_ratio": min(ratios.values(), default=0.0),
        "mahler.rows": m["count"],
        "mahler.busy_s": m["busy_s"],
        "mahler.rows_per_s": _ratio(m["count"], m["busy_s"]),
        "numerics.calls": stats["numerics"]["calls"],
        "numerics.busy_s": stats["numerics"]["busy_s"],
        "lfunctions.calls": stats["lfunctions"]["calls"],
        "lfunctions.busy_s": stats["lfunctions"]["busy_s"],
        "lattice.calls": stats["lattice"]["calls"],
        "lattice.busy_s": stats["lattice"]["busy_s"],
        "symbolic.busy_s": stats["symbolic"]["busy_s"],
        "residues.busy_s": stats["residues"]["busy_s"],
        "residues.divisors": stats["residues"]["count"],
        "k3.busy_s": stats["k3"]["busy_s"],
        "cli.self_s": stats["cli"]["self_s"],
    }
    for key in (
        "engine.err_ratio.verify_direct",
        "engine.err_ratio.verify_boundary",
        "engine.err_ratio.flagship_gl16",
        "engine.err_ratio.smith2_gk12",
        "engine.err_ratio.smith3_gk8",
        "numerics.five_term_digits",
        "digits_direct",
        "digits_boundary",
        "digits_lvalue",
        "relation_found",
    ):
        out[key] = quality.get(key, 0)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    data = setup()
    setup_s = time.time() - args.spawn_time

    # imported after set-up is timed: the references are the benchmark's own work
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    inputs = w.prepare(args.seed, data)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    with tracing.instrumented(tracer) if args.trace else contextlib.nullcontext():
        t0 = time.perf_counter()
        outputs = w.execute(inputs, tracer)
        wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = w.evaluate(inputs, outputs)
    failures = [f"{op}: {detail}" for op, ok, detail in verdict.checks if not ok]
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "digits_min": min((verdict.quality.get(k, 0.0) for k in w.digit_keys), default=0.0),
        "attempted": len(verdict.checks),
        "failed": len(failures),
        "failures": failures[:20],
        "fingerprint": verdict.fingerprint,
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer.stats(), verdict.quality)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
