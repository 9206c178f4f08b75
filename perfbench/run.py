#!/usr/bin/env python3
"""Build and run one SmartStore benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds perfbench/ (CMake, Release) into .bench_build/; later calls only
re-check the build. The perfbench binary runs the workload, checks its
outputs and prints every metric it measured; this script prints, as the
last line of stdout, one JSON object with `correct`, `attempted`, `failed`
and `metrics` holding the end-to-end metrics of BENCHMARK.json (--trace 0)
or its per-layer metrics (--trace 1). A per-layer metric of a layer the
workload does not run through reads 0. Progress and the full metric table
(with sample counts) go to stderr. Exits non-zero, printing no result,
when the sources, the build or the run fail.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
WORK_DIR = BUILD / "run"
# A run must end within 180 s; past this the workload is killed.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(env):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no SmartStore sources next to {HERE.name}/ (looked in {ROOT})")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(CMAKE_DIR), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return CMAKE_DIR / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    # Compiler and program temporaries stay inside the checkout too.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    binary = build(env)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran past {RUN_TIMEOUT_S} s and was stopped")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {proc.returncode}")
    raw = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"{args.workload} did not measure {m['name']}")
            print(f"perfbench: {m['name']} = 0 ({args.workload} does not "
                  "run through that layer)", file=sys.stderr)
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {got['unit']}, declared "
                 f"{m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
