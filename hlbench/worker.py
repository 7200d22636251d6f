"""One workload in a fresh interpreter; run by run.py, never directly.

    worker.py --workload W --seed S --seconds T --trace 0|1 --out-dir D [--setup]

With --setup it times `import hardylane` plus the workload's warm-up call
and prints {"setup_s": ...}.  Otherwise the block (the workload's first
BLOCK_ROUNDS rounds of operations) runs pass after pass until the run's
seconds have passed, and at least twice: untraced (--trace 0), or
alternately untraced and traced (--trace 1).  Each operation's latency is
the median of its untraced executions, each scaled by the reference
samples nearest to it (reference.py).  It prints one JSON object as its
last line.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from itertools import islice
from time import perf_counter

#: Seconds of operations between two reference samples.
REF_EVERY = 0.1


class Tally:
    """Attempted and failed executions, and output-check failures."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.fails = []


def run_round(wl, ops, call, tally, clock):
    """Execute and check each operation; (start, seconds) of each.

    call(fn, op) returns (output, seconds).  An operation that raises gives
    None, is counted as failed and its traceback is printed once.  The
    clock takes its reference samples between operations.
    """
    lat = []
    for op in ops:
        tally.attempted += 1
        start = perf_counter()
        try:
            out, dt = call(wl.run, op)
        except Exception:
            if not tally.failed:
                traceback.print_exc()
            tally.failed += 1
            lat.append(None)
        else:
            lat.append((start, dt))
            tally.fails += wl.check(op, out)
        clock.tick()
    return lat


def per_op(runs, clock):
    """Each operation's latency in seconds at the reference's nominal speed.

    Every execution is scaled by the reference samples around it; an
    operation's latency is the median over the passes.
    """
    return [statistics.median(dt * clock.factor(t, t + dt) for t, dt in xs)
            for xs in zip(*runs) if None not in xs]


def direct(fn, op):
    t0 = perf_counter()
    out = fn(op)
    return out, perf_counter() - t0


def timed_passes(wl, ops, seconds, tracer, tally, clock):
    """Run the block until `seconds` have passed, and at least twice.

    With a tracer, odd passes are traced, so that traced and untraced
    passes alternate and see the same spells of the host.  Returns the
    untraced and the traced passes, each a list of latencies.
    """
    plain, traced = [], []
    clock.tick()
    start = perf_counter()
    while len(plain) + len(traced) < 2 or perf_counter() - start < seconds:
        if tracer is not None and len(plain) > len(traced):
            tracer.install()
            try:
                traced.append(run_round(wl, ops, tracer.op, tally, clock))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_round(wl, ops, direct, tally, clock))
    return plain, traced


def program_info():
    import numpy
    import platform
    import scipy
    import hardylane
    from hardylane import regions
    threads = regions._thread_count() if hasattr(regions, "_thread_count") \
        else None
    return {"hardylane": hardylane.__version__,
            "kernel_backend": hardylane.kernel_backend,
            "classify_field_threads": threads,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def layer_metrics(tracer, overhead_pct):
    ops = max(tracer.ops, 1)
    incl, calls, selft = tracer.inclusive, tracer.calls, tracer.self_time
    spans = {name: {"calls_per_op": calls[name] / ops,
                    "inclusive_s_per_op": incl[name] / ops,
                    "self_s_per_op": selft[name] / ops}
             for name in sorted(calls)}
    cnt = tracer.counters
    points = cnt["_kernels.points"]
    witness_calls = calls["regions.nonexistence_witness"]
    m = {
        "_kernels.classify_codes_s": incl["_kernels.classify_codes"] / ops,
        "_kernels.points": points / ops,
        "_kernels.ns_per_point":
            incl["_kernels.classify_codes"] / points * 1e9 if points else 0.0,
        "regions.classify_field_s": incl["regions.classify_field"] / ops,
        "regions.classify_field_self_s": selft["regions.classify_field"] / ops,
        "regions.nonexistence_witness_s":
            incl["regions.nonexistence_witness"] / ops,
        "regions.witness_us": incl["regions.nonexistence_witness"]
            / witness_calls * 1e6 if witness_calls else 0.0,
        "regions.witnesses_integrability":
            cnt["regions.witnesses_integrability"] / ops,
        "regions.witnesses_iteration": cnt["regions.witnesses_iteration"] / ops,
        "exponents.hardy_params_calls": calls["exponents.HardyParams"] / ops,
        "exponents.hardy_params_s": incl["exponents.HardyParams"] / ops,
        "iteration.iterate_s": (incl["iteration.iterate_plain"]
                                + incl["iteration.iterate_clamped"]) / ops,
        "iteration.traces": cnt["iteration.traces"] / ops,
        "iteration.steps": cnt["iteration.steps"] / ops,
        "integrability.is_gamma_integrable_s":
            incl["integrability.is_gamma_integrable"] / ops,
        "integrability.calls": calls["integrability.is_gamma_integrable"] / ops,
        "constructions.build_candidate_s":
            incl["constructions.build_candidate"] / ops,
        "constructions.find_scale_s": incl["constructions.find_scale"] / ops,
        "constructions.find_scale_calls":
            calls["constructions.find_scale"] / ops,
        "constructions.verify_on_grid_s":
            incl["constructions.verify_on_grid"] / ops,
        "constructions.verify_on_grid_calls":
            calls["constructions.verify_on_grid"] / ops,
        "constructions.find_domain_s": incl["constructions.find_domain"] / ops,
        "radial.evaluate_s": incl["radial.evaluate"] / ops,
        "radial.evaluate_calls": calls["radial.evaluate"] / ops,
        "radial.apply_hardy_s": incl["radial.apply_hardy"] / ops,
        "radial.hardy_fd_oracle_s": incl["radial.hardy_fd_oracle"] / ops,
        "radial.hardy_fd_oracle_calls": calls["radial.hardy_fd_oracle"] / ops,
        "plotting.emit_csv_s": incl["plotting.emit_csv"] / ops,
        "plotting.csv_bytes": cnt["plotting.csv_bytes"] / ops,
        "plotting.emit_svg_s": incl["plotting.emit_svg"] / ops,
        "plotting.svg_bytes": cnt["plotting.svg_bytes"] / ops,
        "plotting.region_markers_s": incl["plotting.region_markers"] / ops,
        "cli.main_s": incl["cli.main"] / ops,
        "cli.main_self_s": selft["cli.main"] / ops,
        "trace.overhead_pct": overhead_pct,
    }
    return m, spans


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup", action="store_true")
    args = ap.parse_args()

    t0 = perf_counter()
    import hardylane  # noqa: F401  (the import is what is timed)
    import_s = perf_counter() - t0
    import reference
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.out_dir)
    t0 = perf_counter()
    wl.warm_up()
    setup_s = import_s + perf_counter() - t0
    if args.setup:
        print(json.dumps({"setup_s": setup_s}))
        return

    result = {"info": program_info()}
    tally = Tally()
    ops = [op for rnd in islice(wl.rounds(args.seed), wl.BLOCK_ROUNDS)
           for op in rnd]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    clock = reference.Clock(REF_EVERY)
    plain, traced = timed_passes(wl, ops, args.seconds, tracer, tally, clock)
    if args.trace:
        overhead = (sum(per_op(traced, clock)) / sum(per_op(plain, clock))
                    - 1.0) * 100.0
        result["metrics"], result["spans"] = layer_metrics(tracer, overhead)
        if tracer.worst_self_excess > 1e-9:
            tally.fails.append(f"span self times exceed their operation's "
                               f"duration by {tracer.worst_self_excess:.3g} s")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lat = sorted(x * 1e3 for x in per_op(plain, clock))
        result["metrics"] = {
            "ops_per_s": len(lat) / sum(lat) * 1e3,
            "op_p50_ms": statistics.median(lat),
            "op_p90_ms": statistics.quantiles(lat, n=10,
                                              method="inclusive")[8],
            "peak_rss_mb": peak_mb,
        }
        result["passes"] = [[x and x[1] for x in run] for run in plain]
        result["reference"] = {"times": clock.times, "seconds": clock.seconds}
        wall = sum(x[1] for run in plain for x in run if x is not None)
        result["notes"] = [
            f"{len(lat)} operations, each executed {len(plain)} times; "
            f"{tally.attempted - tally.failed} executions in {wall:.3f} s "
            f"of wall time"]
    more, wl_notes = wl.finish()
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.fails + more,
                  notes=result.get("notes", []) + wl_notes)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
