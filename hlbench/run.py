#!/usr/bin/env python3
"""hardylane benchmark: one workload per invocation, from a checkout's root.

    python3 hlbench/run.py --workload plot-grid --seed 1 --seconds 20 --trace 0

Workloads: plot-grid, sweep-certify, construct-verify (see README.md).
Every interpreter it starts is a fresh one with src/ first on PYTHONPATH,
started one after the other:

  * three set-up probes, two before the worker and one after it, each
    timing `import hardylane` plus the workload's first call (setup_s is
    their median);
  * with --trace 1, three `python -X importtime -c "import hardylane"`
    probes for the import layer;
  * the worker that runs the timed phase and checks the outputs.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1).  Run records and trace summaries go to .bench_out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from reference import NOMINAL_SECONDS, reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plot-grid", "sweep-certify", "construct-verify")
SETUP_PROBES = 3
IMPORT_PROBES = 3
CHILD_TIMEOUT = 150

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    for suffix, unit in (("_us", "us"), ("ns_per_point", "ns"),
                         ("_bytes", "B"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def child(argv, env):
    """Run one interpreter to completion; its stdout, or exit on failure."""
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"benchmark: {os.path.basename(argv[1])} exited "
                 f"{proc.returncode}")
    return proc.stdout


def import_times(env):
    """Median cumulative import time of hardylane and scipy.integrate."""
    samples = {"hardylane": [], "scipy.integrate": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hardylane"],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            sys.exit(f"benchmark: import probe failed:\n{proc.stderr}")
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for name in samples:
            samples[name].append(seen.get(name, 0.0))
    return {"import.hardylane_s": statistics.median(samples["hardylane"]),
            "import.scipy_integrate_s":
                statistics.median(samples["scipy.integrate"])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hardylane",
                                       "__init__.py")):
        sys.exit("benchmark: src/hardylane not found next to the benchmark; "
                 "run from a hardylane checkout")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in
                                       [env.get("PYTHONPATH", "")] if p])
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    out_root = os.path.join(ROOT, ".bench_out")
    out_dir = os.path.join(out_root, f"{tag}-{os.getpid()}")
    os.makedirs(out_dir)
    worker = [sys.executable, os.path.join(HERE, "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--out-dir", out_dir]

    def setup_probes(n):
        """Set-up times, each scaled by reference samples around it."""
        out = []
        for _ in range(n):
            refs = [reference() for _ in range(3)]
            probe = child(worker + ["--setup"], env).splitlines()[-1]
            refs += [reference() for _ in range(3)]
            out.append(json.loads(probe)["setup_s"] * NOMINAL_SECONDS
                       / statistics.median(refs))
        return out

    try:
        if args.trace:
            extra = import_times(env)
            run = json.loads(child(worker, env).splitlines()[-1])
        else:
            # probes before and after the worker, so that a slow spell of
            # the host does not catch all of them
            setups = setup_probes(SETUP_PROBES // 2 + 1)
            run = json.loads(child(worker, env).splitlines()[-1])
            setups += setup_probes(SETUP_PROBES // 2)
            extra = {"setup_s": statistics.median(setups)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = dict(extra, **run["metrics"])
    units = END_TO_END_UNITS if not args.trace else \
        {name: layer_unit(name) for name in metrics}
    info = run["info"]
    print("program: hardylane {hardylane} kernel_backend={kernel_backend} "
          "classify_field_threads={classify_field_threads}; python {python} "
          "numpy {numpy} scipy {scipy}; nproc={nproc}".format(**info))
    print(f"workload {args.workload} seed {args.seed} "
          f"{'traced' if args.trace else 'untraced'}: "
          f"{run['attempted']} attempted, {run['failed']} failed")
    for name in (END_TO_END_UNITS if not args.trace else sorted(metrics)):
        print(f"  {name:40s} {metrics[name]:16.6g} {units[name]}")
    for name, s in sorted(run.get("spans", {}).items()):
        print(f"  span {name:36s} calls/op {s['calls_per_op']:12.6g}  "
              f"self s/op {s['self_s_per_op']:.6g}")
    for note in run["notes"]:
        print(f"  note: {note}")
    correct = not run["failures"]
    print(f"output checks: {'pass' if correct else 'FAIL'}")
    for msg in run["failures"][:10]:
        print(f"  check failed: {msg}")

    record = {"correct": correct, "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    with open(os.path.join(out_root, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(record, info=info, notes=run["notes"],
                       failures=run["failures"], spans=run.get("spans", {}),
                       passes=run.get("passes", []),
                       reference=run.get("reference", {})), fh, indent=1)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
