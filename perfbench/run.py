#!/usr/bin/env python3
"""Build and run the SGL end-to-end / per-layer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mesh96 --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the SGL library sources one
directory up plus the sgl_perfbench program) in Release under
.bench_build/perfbench; later calls rebuild incrementally. The program's stdout
is relayed unchanged: a host/build record line, comment lines, and as the
last line one JSON object with the keys correct, attempted, failed, metrics.
Traced runs (--trace 1) also write a Chrome trace-event file under
.bench_build/traces/.

Exit codes: 0 ok, 1 build or run failure (no result line), 2 usage error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sgl_perfbench")
WORKLOADS = ("mesh256", "mesh96", "serve-mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds sgl_perfbench; exits 1 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the SGL sources (CMakeLists.txt, src/) are not next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(
        ["cmake", "--build", BUILD, "--target", "sgl_perfbench", "-j", str(nproc())]
    )
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(
                    cmd, stdout=log, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S
                ).returncode
            except (OSError, subprocess.TimeoutExpired) as exc:
                fail("build step %s failed: %s" % (cmd[:2], exc))
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build step %s exited with %d (log: %s)" % (cmd[:2], code, log_path))
    if not os.path.isfile(BINARY):
        fail("build produced no %s" % BINARY)


def commit_id():
    """HEAD of the git checkout rooted at ROOT, or "unknown" (plain checkout)."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def run_program(args, timeout=RUN_TIMEOUT_S):
    """Runs the built sgl_perfbench; returns (returncode, stdout lines, stderr).

    sgl_perfbench sets its own thread counts (nproc), whatever the caller's
    SGL_NUM_THREADS says.
    """
    cmd = [BINARY, "--commit", commit_id()] + list(args)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("sgl_perfbench timed out after %d s" % timeout)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def parse_result(lines):
    """The last stdout line as the result object, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
        "correct",
        "attempted",
        "failed",
        "metrics",
    }:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    program_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        program_args += [
            "--trace-out",
            os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed)),
        ]
    code, lines, err = run_program(program_args)
    sys.stderr.write(err)
    if code != 0:
        fail("sgl_perfbench exited with %d" % code)
    if parse_result(lines) is None:
        fail("sgl_perfbench printed no result line")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
