"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a checkout, prints what it measured
line by line, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1``.  Exits 1 when an output differs from its oracle and
2 when the checkout holds no program to measure.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread in this process and every process it starts, set
# before numpy loads.  The in-process workloads are then timed on one
# thread's CPU clock; with the default of one thread per core, the
# daemon's two workers oversubscribe a 2-core host (see README.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    import loops
    import paced

    return {
        "loop_unet": loops.loop_unet,
        "loop_unet_chaos": loops.loop_unet_chaos,
        "cartpole_ticks": loops.cartpole_ticks,
        "daemon_paced": paced.daemon_paced,
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT} is not a checkout of the program "
              f"(needs BENCHMARK.json and src/repro)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    return _run(args, spec)


def _run(args, spec) -> int:
    from harness import environment

    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    print("env: " + json.dumps(environment(args.seed, args.workload,
                                           args.seconds, trace)))
    out = _workloads()[args.workload](args.seed, args.seconds, trace)
    for note in out.notes:
        print(f"note: {note}")
    for err in out.errors:
        print(f"FAILED: {err}")

    metrics = {}
    missing = []
    for m in wanted:
        value = out.metrics.get(m["name"])
        if value is None:
            missing.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
        print(f"{m['name']:<28} {value:>14.6g} {m['unit']}"
              + ("   (not exercised by this workload)"
                 if m["name"] in missing else ""))
    extra = sorted(set(out.metrics) - {m["name"] for m in wanted})
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {extra}")
    if not trace and missing and out.correct:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    print(json.dumps({"correct": out.correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
