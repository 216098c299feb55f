#!/usr/bin/env python3
"""Layered benchmark for ladderdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-ga --seed 1 --seconds 20 --trace 0

Workloads: desk-ga, prod-trace, eigensolve-prod (see perfbench/NOTES.md).
The package is imported from ``src/`` of the same checkout. With ``--trace 0``
the last line of standard output holds the end-to-end metrics, with
``--trace 1`` the per-layer ones. The line before it is the full report,
which also goes to ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
WORKLOAD_NAMES = ("desk-ga", "prod-trace", "eigensolve-prod")


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "blas": {k: {f: deps.get(k, {}).get(f) for f in ("name", "version", "openblas configuration")}
                 for k in ("blas", "lapack")},
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the command until this much time has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ladderdown
    except ImportError as exc:
        print(f"perfbench: cannot import ladderdown from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(ladderdown.__file__).resolve().is_relative_to(src):
        print(f"perfbench: ladderdown imported from {ladderdown.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), WORK)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(), **result}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(result["metrics"]):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} do not match {sorted(units)}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
