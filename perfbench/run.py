#!/usr/bin/env python3
"""Runs one livescope benchmark workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from this checkout twice (untraced:
`--features parallel`; traced: `--features "parallel profile"`), under
`$CARGO_TARGET_DIR` (default `.bench_build`). With `--trace 0` it runs the
untraced binary for `--seconds`; with `--trace 1` it runs the untraced and
then the traced binary for half of `--seconds` each. The repetitions of
the first fifth of a binary's time (at most 4 s) are an untimed warm-up
whose outputs are still checked. `setup_s` is the time from spawning the
untraced binary to its first measured call, the median over several
spawns.

Every metric of `perfbench/layers.json` is printed with its unit and layer
(or as absent, on a workload that does not exercise it), then the output
checks, then the host fingerprint. The full result, fingerprint included,
is saved under `<target dir>/perfbench-results/`. The last line of stdout
is one JSON object: `correct`, `attempted` and `failed` count the output
checks, and `metrics` holds the `end_to_end` (`--trace 0`) or `per_layer`
(`--trace 1`) metrics of `BENCHMARK.json`.

Checks: every repetition reproduces the first one's output digests; at
the default seed every digest equals its pin in `perfbench/pins.json`
(`--pins` reads another file); with `--trace 1` the traced run's digests
equal the untraced run's; plus each workload's own invariants.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper-replay", "figure-set", "celebrity-fanout")
VARIANTS = {"untraced": "parallel", "traced": "parallel profile"}
# Every process this script starts must end within the run's 180 s.
RUN_DEADLINE_S = 170.0
# setup_s is the median over this many spawns of the untraced binary.
SETUP_SPAWNS = 31


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def target_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(variant):
    """Builds one variant; returns the binary path."""
    out = os.path.join(target_dir(), variant)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
        "--features", VARIANTS[variant],
        "--target-dir", out,
    ]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: building the {variant} benchmark failed")
    return os.path.join(out, "release", "perfbench")


def run_binary(binary, workload, seed, deadline, extra):
    cmd = [binary, workload, "--seed", str(seed)] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: {workload} did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {workload} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def setup_seconds(binary, workload, seed, deadline):
    """Process spawn to the first measured call: the median over
    SETUP_SPAWNS spawns that stop there."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        spawned = time.time_ns()
        ready = run_binary(binary, workload, seed, deadline, ["--setup-only"])["ready_unix_ns"]
        samples.append((ready - spawned) / 1e9)
    return statistics.median(samples)


def fingerprint():
    """The host and build a result belongs to; results compare only
    within one fingerprint (see compare.py)."""
    fp = {"nproc": len(os.sched_getaffinity(0)), "features": VARIANTS}
    try:
        with open("/proc/cpuinfo") as f:
            fp["cpu_model"] = next(
                (l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "unknown")
    except OSError:
        fp["cpu_model"] = "unknown"
    caches = {}
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_root)) if os.path.isdir(cache_root) else []:
        try:
            level, kind, size = (read_text(os.path.join(cache_root, index, f))
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    fp["caches"] = caches
    fp["rustc"] = command_output(["rustc", "-V"]) or "unknown"
    # A checkout that is not itself a repository has no commit; its
    # sources are identified by source_sha256 alone.
    lines = (command_output(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"])
             or "").split()
    own = len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT)
    fp["commit"] = lines[1] if own else None
    fp["source_sha256"] = source_hash()
    return fp


def read_text(path):
    with open(path) as f:
        return f.read().strip()


def command_output(cmd):
    """The command's stdout, or None when it is missing or fails. Git may
    not look for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_hash():
    """Hash of the sources the benchmark builds (the checkout it runs in
    need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, fs in os.walk(path):
            dirs[:] = [x for x in dirs if x[0] not in "._" and x != "target"]
            files += [os.path.join(d, f) for f in fs]
        files.sort()
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


class Checks:
    def __init__(self):
        self.rows = []

    def add(self, name, attempted, failed, detail):
        self.rows.append({"name": name, "attempted": attempted, "failed": failed,
                          "detail": detail})

    def expect_equal(self, name, got, want):
        self.add(name, 1, int(got != want), f"got {got}, want {want}")

    @property
    def attempted(self):
        return sum(r["attempted"] for r in self.rows)

    @property
    def failed(self):
        return sum(r["failed"] for r in self.rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pins", default=os.path.join(BENCH_DIR, "pins.json"))
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    layers = load_json(os.path.join(BENCH_DIR, "layers.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    pins = load_json(args.pins)
    seed = layers["default_seed"] if args.seed is None else args.seed

    binaries = {v: build(v) for v in VARIANTS}
    deadline = time.monotonic() + RUN_DEADLINE_S
    checks = Checks()
    runs = {}
    share = 1 if args.trace == 0 else 2
    for v in ("untraced", "traced")[:share]:
        runs[v] = run_binary(binaries[v], args.workload, seed, deadline,
                             ["--seconds", f"{args.seconds / share:.3f}"])
    runs["untraced"]["metrics"]["setup_s"] = setup_seconds(
        binaries["untraced"], args.workload, seed, deadline)

    for v, r in runs.items():
        for c in r["checks"]:
            checks.add(f"{v}.{c['name']}", c["attempted"], c["failed"], c["detail"])
    base = runs["untraced"]
    if seed == layers["default_seed"]:
        for name, want in sorted(pins[args.workload].items()):
            checks.expect_equal(f"pin.{name}", base["digests"].get(name), want)
    if "traced" in runs:
        for name, want in sorted(base["digests"].items()):
            checks.expect_equal(f"traced_equals_untraced.{name}",
                                runs["traced"]["digests"].get(name), want)

    # Every metric, by the run that measures it on this workload.
    values = {}
    for m in layers["metrics"]:
        source = m["on"].get(args.workload)
        if source in runs and m["name"] in runs[source]["metrics"]:
            values[m["name"]] = runs[source]["metrics"][m["name"]]
    if "traced" in runs:
        traced = runs["traced"]["metrics"]
        values["traced_wall_s"] = traced["wall_s"]
        values["attributed_s"] = traced["attributed_s"]
        values["unattributed_s"] = traced["unattributed_s"]
        values["unattributed_share"] = values["unattributed_s"] / traced["wall_s"]
        values["telemetry.trace_overhead_s"] = traced["wall_s"] - base["metrics"]["wall_s"]

    kind = "per_layer" if args.trace else "end_to_end"
    wanted = bench[kind]
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    checks.add("metrics_present", 1, int(bool(missing)), f"missing: {missing}")
    values["check_fail_ratio"] = checks.failed / checks.attempted

    fp = fingerprint()
    report(args, seed, runs, layers, values, checks, fp)
    save(args, seed, runs, values, checks, fp)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] not in missing},
    }
    print(json.dumps(result))


def report(args, seed, runs, layers, values, checks, fp):
    run_kind = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {seed}  "
          + "  ".join(f"{v}: {r['iterations']} repetitions after {r['warmup']} warm-up"
                      for v, r in runs.items()))
    walls = runs["untraced"]["walls"]
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(f"wall_s over {len(walls)} untraced repetitions: median {statistics.median(walls):.4g} s, "
          f"quartiles {q[0]:.4g}..{q[2]:.4g} s, max {max(walls):.4g} s")
    print(f"{'metric':<30} {'value':>16} {'unit':<6} {'layer':<10} run")
    for m in layers["metrics"]:
        name = m["name"]
        source = m["on"].get(args.workload)
        if source is None:
            shown = "absent"
        elif source not in runs:
            shown = f"needs --trace {int(not args.trace)}"
        elif name in values:
            shown = f"{values[name]:.6g}"
        else:
            shown = "NOT REPORTED"
        print(f"{name:<30} {shown:>16} {m['unit']:<6} {m['layer']:<10} {source or '-'}")
    if "unattributed_share" in values:
        share = values["unattributed_share"]
        flag = "FLAG: above" if share > layers["closure_flag_share"] else "within"
        print(f"layer closure: {share:.1%} of the traced wall unattributed "
              f"({flag} {layers['closure_flag_share']:.0%})")
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed ({run_kind} run)")
    for c in checks.rows:
        if c["failed"]:
            print(f"  FAILED {c['name']}: {c['detail']}")
    print("host: " + json.dumps(fp, sort_keys=True))


def save(args, seed, runs, values, checks, fp):
    out_dir = os.path.join(target_dir(), "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": seed, "trace": args.trace,
                   "seconds": args.seconds, "fingerprint": fp, "metrics": values,
                   "checks": checks.rows, "runs": runs}, f, indent=1, sort_keys=True)
    log(f"perfbench: result saved to {path}")


if __name__ == "__main__":
    main()
