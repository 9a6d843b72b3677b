#!/usr/bin/env python3
"""The repository benchmark: builds the simulator and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the simulator sources plus the dltbench driver)
under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
runs only re-check the build. The driver's last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list; this script refuses a result that does not match them. See
perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY_TIMEOUT_S = 170


def clean_env():
    """The environment without DLT_* variables, which would otherwise
    restyle the simulator (thread counts, storage mode, tracing, ...)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DLT_")}


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (ROOT / target / "perfbench").resolve()


def build(out_dir):
    """Configures (once) and builds the driver; build logs go to stderr."""
    env = clean_env()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out_dir), "--target", "dltbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            return False
    return (out_dir / "dltbench").exists()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError("duplicate keys in result: %s" % keys)
    return dict(pairs)


def validate(result, expected):
    """Problems with a parsed result line; empty when it meets the contract."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("metrics missing %s, unexpected %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            problems.append("metric %s is %s, want unit %s" % (name, m, unit))
        elif not isinstance(m["value"], (int, float)) or isinstance(
                m["value"], bool):
            problems.append("metric %s value is not a number" % name)
    return problems


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--short", action="store_true",
                   help="shortened workloads (the benchmark's own tests)")
    args = p.parse_args(argv)

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [str(out_dir / "dltbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    if args.trace:
        cmd += ["--spans", str(out_dir / ("spans-%s-%d.jsonl" %
                                          (args.workload, args.seed)))]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=clean_env(), timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s exceeded %d s" % (args.workload,
                                               BINARY_TIMEOUT_S),
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1], object_pairs_hook=no_duplicate_keys)
    except ValueError as e:
        sys.stdout.write(proc.stdout)
        print("perfbench: no result line (%s), exit %d" % (e,
                                                           proc.returncode),
              file=sys.stderr)
        return 1
    problems = validate(result, expected_metrics(args.trace))
    if problems:
        print("\n".join(lines[:-1]))
        for problem in problems:
            print("perfbench: " + problem, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print("# driver wall %.3f s" % (time.monotonic() - t0))
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
