#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/perfbench.cc).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The engine and the benchmark are built from
source with CMake into $CARGO_TARGET_DIR (default .bench_build); the database
of a run lives under that directory and is removed when the run ends. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the span log of the traced pass
is written to <build dir>/spans-<workload>-<seed>.tsv.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_binary(binary, args, db_dir):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    shutil.rmtree(db_dir, ignore_errors=True)
    try:
        proc = subprocess.run([binary] + args + ["--db-dir", db_dir],
                              stdout=subprocess.PIPE, text=True, timeout=170)
    finally:
        shutil.rmtree(db_dir, ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


def selftest(binary, build_dir):
    """Tiny-scale runs of every workload in both modes; checks the printed
    metric names against BENCHMARK.json and the model-check and FADE-gate
    unit checks built into the binary."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures = 0
    code, _ = run_binary(binary, ["--selftest"], os.path.join(build_dir, "db-selftest"))
    if code != 0:
        print("selftest: binary unit checks failed", file=sys.stderr)
        failures += 1
    gated = {w["name"] for w in spec["workloads"]}
    for workload in ("fade_ingest", "point_read", "kv_sep_scan"):
        for trace in (0, 1):
            code, lines = run_binary(
                binary, ["--workload", workload, "--seed", "7", "--seconds", "4",
                         "--trace", str(trace), "--tiny"],
                os.path.join(build_dir, "db-selftest"))
            result = json.loads(lines[-1]) if code == 0 and lines else None
            want = per_layer if trace else end_to_end
            problems = []
            if result is None:
                problems.append("no result (exit %d)" % code)
            else:
                got = set(result["metrics"])
                if got != want:
                    problems.append("metric names differ: missing %s, extra %s"
                                    % (sorted(want - got), sorted(got - want)))
                if workload in gated and not result["correct"]:
                    problems.append("outputs are not correct")
                if workload in gated and result["failed"] != 0:
                    problems.append("%d ops failed" % result["failed"])
            verdict = "FAILED: " + "; ".join(problems) if problems else "ok"
            if result is not None and workload not in gated:
                verdict += " (not gated; correct=%s, failed=%d of %d)" % (
                    result["correct"], result["failed"], result["attempted"])
            print("selftest: %s --trace %d: %s" % (workload, trace, verdict))
            failures += bool(problems)
    print("selftest: %s" % ("passed" if failures == 0 else "%d failures" % failures))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if args.selftest:
        return selftest(binary, build_dir)

    name = "%s-%d" % (args.workload, args.seed)
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        bench_args += ["--spans-out", os.path.join(build_dir, "spans-%s.tsv" % name)]
    code, lines = run_binary(binary, bench_args, os.path.join(build_dir, "db-" + name))
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
