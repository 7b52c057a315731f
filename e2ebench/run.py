#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the library and the benchmark
program from source into .bench_build/e2ebench (first run only; later
runs re-check the build), runs one workload, and prints as its last
stdout line one JSON object with exactly the keys correct, attempted,
failed and metrics.  The metrics are the end_to_end metrics of
BENCHMARK.json with --trace 0 and its per_layer metrics with
--trace 1; a per-layer metric that does not apply to the workload
(a layer of another model) reads 0.  Metrics the program measures
beyond the list go to a line of their own before the result.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "reuse_e2ebench")
WORKLOADS = ("kaldi-stream", "autopilot-stream", "eesen-seq", "kaldi-serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; returns True on success."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "reuse_e2ebench"])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                log("build timed out")
                return False
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
                log("build failed: " + " ".join(cmd))
                return False
    return os.path.exists(BINARY)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as err:
        log(f"cannot read BENCHMARK.json: {err}")
        return 1
    if not build():
        return 1

    # The library reads REUSE_* knobs from the environment; the
    # benchmark always runs its defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REUSE_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if not lines:
        log(f"no output (exit {proc.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        log("last line is not a result")
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = raw["metrics"]
    metrics = {}
    ok = True
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in got:
            if not args.trace:
                log(f"end-to-end metric {name} missing")
                ok = False
            metrics[name] = {"value": 0, "unit": unit}
            continue
        value = got[name]["value"]
        if got[name]["unit"] != unit or not math.isfinite(value):
            log(f"metric {name}: {value} {got[name]['unit']} "
                f"does not match BENCHMARK.json ({unit})")
            ok = False
        metrics[name] = {"value": value, "unit": unit}
    extra = {k: v for k, v in got.items() if k not in metrics}
    if extra:
        print("extra: " + json.dumps(extra))
    if not ok:
        return 1
    correct = bool(raw["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
