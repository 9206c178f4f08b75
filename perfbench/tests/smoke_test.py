#!/usr/bin/env python3
"""Tiny-size smoke run of every benchmark workload.

Runs the perfbench binary on each workload of BENCHMARK.json with small
inputs, untraced and traced, and checks that every run is correct, that
each untraced run measures every end-to-end metric with its declared unit,
and that every per-layer metric is measured, with its unit, by the traced
run of at least one workload.

    python3 perfbench/tests/smoke_test.py --binary PATH/perfbench \\
        --benchmark-json BENCHMARK.json --work-dir DIR
"""
import argparse
import json
import subprocess
import sys


def run(binary, workload, trace, work_dir):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny",
           "--work-dir", work_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    ap.add_argument("--benchmark-json", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()
    with open(args.benchmark_json) as f:
        spec = json.load(f)

    errors = []
    per_layer_seen = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            r = run(args.binary, name, trace, args.work_dir)
            if not r["correct"] or r["attempted"] < 1:
                errors.append(f"{name} trace={trace}: correct={r['correct']} "
                              f"attempted={r['attempted']}")
            got = r["metrics"]
            if trace == 0:
                for m in spec["end_to_end"]:
                    g = got.get(m["name"])
                    if g is None:
                        errors.append(f"{name}: no {m['name']}")
                    elif g["unit"] != m["unit"] or not g["value"] > 0:
                        errors.append(f"{name}: {m['name']} = {g}")
            else:
                for m in spec["per_layer"]:
                    g = got.get(m["name"])
                    if g is not None:
                        per_layer_seen.setdefault(m["name"], []).append(
                            (name, g["unit"] == m["unit"]))
    for m in spec["per_layer"]:
        seen = per_layer_seen.get(m["name"])
        if not seen:
            errors.append(f"per-layer {m['name']} measured by no workload")
        elif not all(ok for _, ok in seen):
            errors.append(f"per-layer {m['name']} has the wrong unit")
    if errors:
        sys.exit("smoke test failed:\n  " + "\n  ".join(errors))
    print(f"smoke test passed: {len(spec['workloads'])} workloads, "
          f"{len(spec['end_to_end'])} end-to-end and "
          f"{len(spec['per_layer'])} per-layer metrics")


if __name__ == "__main__":
    main()
