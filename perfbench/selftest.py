#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. A tampered pin must be caught: `figure-set` at the default seed with one
   pin flipped must report a failed check and a positive check_fail_ratio,
   while the same run with the committed pins reports none.
2. A metric a workload does not exercise must be absent, never 0: the
   traced `celebrity-fanout` result must carry no `graph.*`, `workload.*`
   or `crawler.*` metric, and must carry every metric the layer map
   assigns to that workload.
3. compare.py must refuse results whose host fingerprints differ.

Exits 0 when every test passes.
"""

import copy
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

SECONDS = "2"


def bench(workload, trace, pins=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seconds", SECONDS, "--trace", str(trace)]
    if pins:
        cmd += ["--pins", pins]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"selftest: {' '.join(cmd)} failed:\n{proc.stderr}")
    seed = run.load_json(os.path.join(BENCH_DIR, "layers.json"))["default_seed"]
    saved = os.path.join(run.target_dir(), "perfbench-results",
                         f"{workload}-seed{seed}-trace{trace}.json")
    return json.loads(proc.stdout.strip().splitlines()[-1]), run.load_json(saved), proc.stdout


def main():
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    # 1. Pins.
    line, saved, _ = bench("figure-set", 0)
    expect(line["correct"] and line["failed"] == 0, "committed pins pass")
    pins = run.load_json(os.path.join(BENCH_DIR, "pins.json"))
    tampered = copy.deepcopy(pins)
    name, value = next(iter(tampered["figure-set"].items()))
    tampered["figure-set"][name] = f"{int(value, 16) ^ 1:#018x}"
    path = os.path.join(run.target_dir(), "perfbench-results", "tampered-pins.json")
    with open(path, "w") as f:
        json.dump(tampered, f)
    line, saved, _ = bench("figure-set", 0, pins=path)
    expect(not line["correct"] and line["failed"] >= 1, f"tampered pin {name} fails a check")
    expect(saved["metrics"]["check_fail_ratio"] > 0, "tampered pin raises check_fail_ratio")

    # 2. Absent, never 0.
    line, saved, stdout = bench("celebrity-fanout", 1)
    foreign = [m for m in saved["metrics"] if m.split(".")[0] in ("graph", "workload", "crawler")]
    expect(not foreign, f"no graph/workload/crawler metric on celebrity-fanout {foreign}")
    expect(any(l.startswith("graph.decide_s") and "absent" in l for l in stdout.splitlines()),
           "graph.decide_s printed as absent on celebrity-fanout")
    layers = run.load_json(os.path.join(BENCH_DIR, "layers.json"))
    owed = [m["name"] for m in layers["metrics"] if "celebrity-fanout" in m["on"]]
    missing = [m for m in owed if m not in saved["metrics"]]
    expect(not missing, f"every celebrity-fanout metric reported (missing: {missing})")

    # 3. Fingerprints.
    other = copy.deepcopy(saved)
    other["fingerprint"]["nproc"] += 1
    paths = []
    for i, r in enumerate((saved, other)):
        p = os.path.join(run.target_dir(), "perfbench-results", f"fingerprint-{i}.json")
        with open(p, "w") as f:
            json.dump(r, f)
        paths.append(p)
    cmp = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "compare.py"),
                          "--base", paths[0], "--change", paths[1]], capture_output=True)
    expect(cmp.returncode == 2, "compare.py refuses a different host fingerprint")

    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
