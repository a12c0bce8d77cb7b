#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median and its quartile spread as a share of the median, next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workloads fig4-mem churn-mixed --seeds 10

Run it from the repository root. `--exe` points at an already built
binary instead of going through `cargo run`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--exe")
    ap.add_argument("--verbose", action="store_true", help="print every value")
    args = ap.parse_args()

    manifest = json.load(open("BENCHMARK.json"))
    command = [args.exe] if args.exe else manifest["command"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in manifest["workloads"]]
    ok = True
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(manifest["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in sorted(values.items()):
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds[name]
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:<14} {name:<20} median {med:<14.6g} spread {spread:8.4f}"
                  f"  bound {bound}{flag}")
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
