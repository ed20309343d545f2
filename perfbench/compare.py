#!/usr/bin/env python3
"""Compares benchmark results of two versions of the program.

    python3 perfbench/compare.py --base A1.json A2.json ... --change B1.json B2.json ...

Each file is a result `run.py` saved under `<target dir>/perfbench-results/`.
Prints, per metric, the median of each side and the change's median as a
ratio to the base's. Refuses (exit 2) when the results come from different
host fingerprints (nproc, CPU model, caches, rustc, cargo features) or
different workloads: a ratio across hosts says nothing about the code.
"""

import argparse
import json
import statistics
import sys

# Fingerprint fields that identify the host and build settings; the commit
# and source hash are what a comparison is about, so they may differ.
HOST_FIELDS = ("nproc", "cpu_model", "caches", "rustc", "features")


def host(result):
    fp = result["fingerprint"]
    return {k: fp.get(k) for k in HOST_FIELDS}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    sides = {}
    for side in ("base", "change"):
        sides[side] = []
        for path in getattr(args, side):
            with open(path) as f:
                sides[side].append(json.load(f))
    results = sides["base"] + sides["change"]
    hosts = {json.dumps(host(r), sort_keys=True) for r in results}
    if len(hosts) != 1:
        print("refusing to compare results from different host fingerprints:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + h, file=sys.stderr)
        sys.exit(2)
    keys = {(r["workload"], r["trace"]) for r in results}
    if len(keys) != 1:
        print(f"refusing to compare different workloads or trace modes: {sorted(keys)}",
              file=sys.stderr)
        sys.exit(2)
    names = sorted(set.intersection(*(set(r["metrics"]) for r in results)))
    print(f"{'metric':<30} {'base':>14} {'change':>14} {'change/base':>12}")
    for name in names:
        base = statistics.median(r["metrics"][name] for r in sides["base"])
        change = statistics.median(r["metrics"][name] for r in sides["change"])
        ratio = f"{change / base:.4f}" if base else "-"
        print(f"{name:<30} {base:>14.6g} {change:>14.6g} {ratio:>12}")


if __name__ == "__main__":
    main()
