#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 moonbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 moonbench/run.py --workload all ...
    python3 moonbench/run.py --self-test

Run from the repository root. The simulator and the `moonbench` driver are
built from source into .bench_build/moonbench (Release); the driver's output
is passed through, and its last line is the result: one JSON object with
the keys correct, attempted, failed and metrics. `all` runs every workload
in turn and prints each one's result. The exit code is the driver's:
non-zero when a correctness check failed. Nothing is printed as a result
when the sources are missing or the build fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "moonbench")
BINARY = os.path.join(BUILD, "moonbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOADS = ("sort-maxmin", "sort-bshare", "stream-chaos")


def fail(message):
    print("moonbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "experiment", "scenario.hpp")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only benchmark output.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run(args, workload, extra=()):
    """Runs the driver, echoing its stdout; returns (exit code, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(), *extra]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        if lines:
            print(lines[-1])
        fail("driver exited with %d and no result line" % proc.returncode)
    return proc.returncode, result


def self_test():
    """A perturbed fingerprint must trip the determinism check, in both the
    round comparison (--trace 0) and the traced-vs-reference comparison
    (--trace 1); the same runs unperturbed must pass."""
    build()
    ok = True
    for trace in (0, 1):
        args = argparse.Namespace(seed=7, seconds=1, trace=trace)
        for perturb in (False, True):
            code, result = run(args, "sort-maxmin",
                               ["--perturb-fingerprint"] if perturb else [])
            expect_pass = not perturb
            passed = code == 0 and result["correct"] and result["failed"] == 0
            verdict = "ok" if passed == expect_pass else "WRONG"
            ok = ok and passed == expect_pass
            print("self-test trace=%d perturb=%s: exit %d, correct=%s -> %s"
                  % (trace, perturb, code, result["correct"], verdict))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build()
    worst = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        code, result = run(args, workload)
        print(json.dumps(result))
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
