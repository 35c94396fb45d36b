"""Benchmark entry point.

    python3 bench/run.py --workload diffusion-protocol --seed 0 --seconds 25 --trace 0

Runs from the root of a checkout.  The workload runs in a fresh child process
whose BLAS/OpenMP thread counts are pinned to 1; with ``--trace 0`` a few more
children only measure set-up time, and the median is reported.  Set-up time is
sampled by a host probe and scaled to the reference host speed, like the
workload's unit times (see hostspeed.py and README.md).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Exits non-zero,
without a result line, when a child fails or the metrics do not match
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5          # set-up-only children, on top of the worker's own set-up
SETUP_PROBE_INTERVAL_S = 0.02   # set-up lasts under a second
CHILD_TIMEOUT_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("parent", "worker", "setup"), default="parent",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    probe = HostProbe(("python",), SETUP_PROBE_INTERVAL_S)
    with probe.sampling():
        t0 = time.perf_counter()
        import workloads  # imports numpy, scipy and smlmc: timed as set-up
        ctx = workloads.prepare(args.workload)
        t1 = time.perf_counter()
    setup_s = (t1 - t0 - probe.paused(t0, t1)) / probe.slowdown(t0, t1)
    result = {}
    if args.role == "worker":
        result = workloads.measure(ctx, args.seed, args.seconds, bool(args.trace))
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


def run_child(args, role: str, deadline: float) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} child exited with code {proc.returncode}")
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role != "parent":
        return child_main(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setups = [] if args.trace else [
            run_child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        result = run_child(args, "worker", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups + [result["setup_s"]])
    if set(values) != set(declared):
        print(f"metrics differ from BENCHMARK.json: missing "
              f"{sorted(set(declared) - set(values))}, extra "
              f"{sorted(set(values) - set(declared))}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
