#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload couple-bulk --seed 1 --seconds 10 --trace 0

Builds the library from ../src and the driver into .bench_build/ at the
repository root, runs one workload, and passes the driver's output through.
The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Counts that must repeat exactly for a given seed (the driver's "EXACT" line)
are recorded per build and seed; a later run of the same build and seed
that reports different counts is marked incorrect.
"""

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("couple-bulk", "couple-fine", "prmi-mixed")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    cmake_dir = BUILD / "cmake"
    log = BUILD / "build.log"
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "mxnbench",
                  "-j", "4"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return cmake_dir / "mxnbench"


def check_exact(binary, workload, seed, trace, exact):
    """Compare exact counts with an earlier run of the same build and seed."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    record = BUILD / "exact" / f"{digest}-{workload}-seed{seed}-trace{trace}.json"
    if record.is_file():
        before = json.loads(record.read_text())
        if before != exact:
            print(f"run.py: exact counts differ from an earlier run with seed "
                  f"{seed}: {before} != {exact}", file=sys.stderr)
            return False
        return True
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps(exact, sort_keys=True))
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=2 * args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("EXACT "):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    exact = json.loads(lines[-2][len("EXACT "):])
    if not check_exact(binary, args.workload, args.seed, args.trace, exact):
        result["correct"] = False
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
