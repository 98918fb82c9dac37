#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Run from the repository root:

    python3 perfbench/smoke.py

Checks that
  - every workload in BENCHMARK.json runs at tiny size, passes its
    correctness gates, and emits every end_to_end metric (--trace 0) and
    every per_layer metric (--trace 1) with the unit BENCHMARK.json names;
  - count metrics repeat exactly between two runs of one seed;
  - traced runs write a Chrome trace whose spans all belong to a layer;
  - the learned-graph gate passes on a real learned graph and fires on
    corrupted copies of it (one negative weight, a NaN weight, a node cut
    off), so the gates are not vacuous;
  - the host record says Release with NDEBUG (sgl_perfbench refuses to record
    numbers otherwise).
Exits 0 when every check passes, 1 otherwise.
"""
import json
import os
import sys

import run

LAYERS = {"measure", "solver", "knn", "graph", "spectral", "eig", "core", "serve"}
TRACE_FILE = os.path.join(run.ROOT, ".bench_build", "traces", "smoke.json")

COUNT_METRICS = (
    "core.iterations",
    "knn.edges",
    "solver.factor_nnz",
    "solver.pcg_iterations",
    "eig.lanczos_steps",
    "spectral.smoother_sweeps",
)


def run_tiny(workload, seed, trace):
    os.makedirs(os.path.dirname(TRACE_FILE), exist_ok=True)
    code, lines, err = run.run_program(
        ["--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny", "--trace-out", TRACE_FILE]
    )
    if code != 0:
        sys.stderr.write(err)
        return None, lines
    return run.parse_result(lines), lines


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run.build()
    problems = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            problems.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run_tiny(workload, 5, trace)
            check(result is not None, "%s trace=%d printed a result line" % (workload, trace))
            if result is None:
                continue
            host = json.loads(lines[0])["host"]
            check(host["build_type"] == "Release" and host["ndebug"],
                  "%s trace=%d host record says Release" % (workload, trace))
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  "%s trace=%d gates pass (attempted=%d failed=%d)"
                  % (workload, trace, result["attempted"], result["failed"]))
            metrics = result["metrics"]
            for m in spec[group]:
                got = metrics.get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and isinstance(got["value"], (int, float)),
                      "%s trace=%d emits %s [%s]" % (workload, trace, m["name"], m["unit"]))
            if trace == 1:
                with open(TRACE_FILE) as f:
                    events = json.load(f)["traceEvents"]
                check(events and all(e["name"].split(".")[0] in LAYERS for e in events),
                      "%s trace file holds %d spans, all in known layers" % (workload, len(events)))
                again, _ = run_tiny(workload, 5, 1)
                for name in COUNT_METRICS:
                    check(again is not None and again["metrics"][name] == metrics[name],
                          "%s count %s repeats" % (workload, name))

    code, lines, err = run.run_program(["--gate-selftest"])
    report = json.loads(lines[-1])["gate_selftest"] if lines else {}
    check(code == 0 and report.get("clean_passes") and report.get("corrupted_fail"),
          "learned-graph gate passes clean and fires on corrupted copies")

    print("%d problem(s)" % len(problems))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
