#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library (../src) and the perfbench binary into $CARGO_TARGET_DIR (default
.bench_build) with CMake; later runs rebuild only what changed. The binary
prints a calibration block and progress on stderr and, as the last stdout
line, the result object. This script checks that object against
BENCHMARK.json (the metric names and units of the run's kind) before
printing it, stores the run record under <build dir>/runs/, and exits
non-zero on any failure.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs,
                    "--target", "perfbench"], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last stdout line is not JSON: %r" % line[:200])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys %s" % sorted(res))
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s"
             % (missing, extra, units))
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e, 2)
    runs = os.path.join(bdir, "runs")
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "%g" % args.seconds, "--trace", str(args.trace),
           "--record", os.path.join(runs, stem + ".json")]
    if args.trace:
        cmd += ["--spans", os.path.join(runs, stem + ".spans.json")]
    # cc, run by the specializer, writes its temporaries under TMPDIR.
    env = dict(os.environ, TMPDIR=tmp)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.splitlines()
    if not lines:
        fail("benchmark printed no result (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    res = validate(lines[-1], args.trace)
    print(lines[-1], flush=True)
    if proc.returncode != 0 or not res["correct"]:
        fail("benchmark failed (exit %d, %d of %d operations failed)"
             % (proc.returncode, res["failed"], res["attempted"]))


if __name__ == "__main__":
    main()
