#!/usr/bin/env python3
"""Builds the simulator from source and runs one benchmark workload.

    python3 nwbench/run.py --workload serve_rsa --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, with CMake in Release mode. The
program's human-readable lines are passed through; each scenario digest is
shown beside the one recorded in nwbench/digests.json for that seed. The
last line is the program's JSON result. Any build or run failure exits
non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_rsa", "grid_4x4", "campaign_table1")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"nwbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds the benchmark program; returns its path."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "nwbench", "-j", "4"],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build failed: {' '.join(cmd)}")
    program = os.path.join(build_dir, "nwbench")
    if not os.access(program, os.X_OK):
        fail("benchmark program missing after build")
    return program


def recorded_digests():
    try:
        with open(os.path.join(HERE, "digests.json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def annotate(line, recorded, tally):
    """'digest <workload> seed <n> scenario <i> <hex>' gains the recorded one."""
    parts = line.split()
    if len(parts) != 7 or parts[0] != "digest":
        return line
    _, workload, _, seed, _, index, digest = parts
    known = recorded.get(workload, {}).get(seed, [])
    want = known[int(index)] if int(index) < len(known) else None
    if want is None:
        tally["unrecorded"] += 1
        return f"{line}  recorded none"
    verdict = "match" if want == digest else "DIFFERS"
    tally["match" if want == digest else "differ"] += 1
    return f"{line}  recorded {want} {verdict}"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "nwbench")
    program = build(build_dir)

    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark program timed out after {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"benchmark program exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark program printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")

    recorded = recorded_digests()
    tally = {"match": 0, "differ": 0, "unrecorded": 0}
    for line in lines[:-1]:
        print(annotate(line, recorded, tally))
    print(f"recorded digests: {tally['match']} match, {tally['differ']} differ,"
          f" {tally['unrecorded']} not recorded for this seed")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
