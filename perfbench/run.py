#!/usr/bin/env python3
"""Build and run the Diffuse benchmark, check its outputs, print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The script builds the `perfbench`
package (into `$CARGO_TARGET_DIR`, default `.bench_build`), runs the measured
configuration in one child process and the reference configuration in
another, compares their outputs, and prints as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. It exits non-zero
when the build fails or an output check fails. Workloads, metrics and what
each metric should move are described in `perfbench/METRICS.md`.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
SPANS_DIR = os.path.join(ROOT, "perfbench", "out")
# Each child must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def child_env():
    """The caller's environment without `DIFFUSE_*` knobs: the benchmark pins
    every configuration field, and this keeps defaults from reading them."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DIFFUSE_")}


def run_child(argv):
    """Runs one child to completion and returns its JSON result. Lines before
    the result are passed through."""
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(argv[1:3])} ran longer than {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(argv[1:3])} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def same(key, value, expected):
    # The simulated clock sums per-launch times, so a phase's share of it
    # carries rounding from the clock's absolute value.
    if key == "sim_ms_per_iter":
        return abs(value - expected) <= 1e-9 * abs(expected)
    return value == expected


def check(measured, reference):
    """Compares every measured phase that has a reference record; returns
    (checks made, checks failed)."""
    refs = {r["index"]: r for r in reference["phases"]}
    checks = failed = 0
    for phase in measured["phases"]:
        ref = refs.get(phase["index"])
        if ref is None:
            continue
        checks += 1
        for key in ("digest", "submitted", "launched", "sim_ms_per_iter"):
            if ref[key] is not None and not same(key, phase[key], ref[key]):
                print(f"# check failed: phase {phase['index']} {key} {phase[key]} != {ref[key]}")
                failed += 1
                break
    return checks, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    measure = [binary, "measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        measure += ["--spans", os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}.jsonl")]
    measured = run_child(measure)
    phases = ",".join(str(p["index"]) for p in measured["phases"])
    reference = run_child([binary, "reference", *common, "--phases", phases])

    checks, failed_checks = check(measured, reference)
    if checks == 0:
        fail("no phase was checked against the reference")
    attempted = measured["launches"] + checks
    failed = measured["launch_failures"] + failed_checks
    print(f"# checks: {checks} phases compared, {failed_checks} failed; "
          f"{measured['launch_failures']} of {measured['launches']} launches failed")

    metrics = dict(measured["metrics"])
    if not args.trace:
        metrics["ok_frac"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    for m in declared:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {metrics[m['name']]['unit']}, declared in {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: metrics[n] for n in names},
    }
    print(json.dumps(result))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
