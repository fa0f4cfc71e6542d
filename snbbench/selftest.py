#!/usr/bin/env python3
"""Self-test of the SNB benchmark, at tiny scale (about a minute).

    python3 snbbench/selftest.py

Run from the repository root. For every workload it checks that an
untraced run reports every end-to-end metric of BENCHMARK.json with its
unit and a positive value, that a traced run reports every per-layer
metric with its unit, that both pass their result checks, and that a
deliberately wrong expectation is counted as a failed operation.
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (the metric lists live there)

TINY = ["--seconds", "0.2", "--sf", "0.05"]


def invoke(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "7", "--trace", str(trace)]
    done = subprocess.run(cmd + TINY + list(extra), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-3000:])
        raise AssertionError("%s trace=%d exited %d"
                             % (workload, trace, done.returncode))
    return json.loads(lines[-1])


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def check_metrics(result, spec, positive, label):
    metrics = result["metrics"]
    expect(set(metrics) == {name for name, _ in spec},
           "%s: metric names differ: %s" % (label, sorted(
               set(metrics) ^ {name for name, _ in spec})))
    for name, unit in spec:
        expect(metrics[name]["unit"] == unit,
               "%s: %s has unit %r, want %r"
               % (label, name, metrics[name]["unit"], unit))
        value = metrics[name]["value"]
        expect(isinstance(value, (int, float)),
               "%s: %s is not a number" % (label, name))
        if positive:
            expect(value > 0, "%s: %s is %r, want > 0" % (label, name, value))


def main():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        bench = json.load(f)
    expect([(m["name"], m["unit"]) for m in bench["end_to_end"]]
           == run.END_TO_END, "BENCHMARK.json end_to_end != run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in bench["per_layer"]]
           == run.PER_LAYER, "BENCHMARK.json per_layer != run.PER_LAYER")
    expect(sorted(w["name"] for w in bench["workloads"])
           == sorted(run.WORKLOADS), "BENCHMARK.json workloads differ")

    for workload in run.WORKLOADS:
        for trace, spec in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            label = "%s trace=%d" % (workload, trace)
            result = invoke(workload, trace)
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, label + ": result keys")
            expect(result["correct"] and result["failed"] == 0,
                   label + ": run not correct: %r" % result)
            expect(result["attempted"] >= 1, label + ": nothing attempted")
            check_metrics(result, spec, trace == 0, label)
            print("selftest: %s ok (%d operations)"
                  % (label, result["attempted"]))
        wrong = invoke(workload, 0, "--wrong-expectation")
        expect(not wrong["correct"] and wrong["failed"] >= 1,
               "%s: a wrong expectation was not counted as failed: %r"
               % (workload, wrong))
        print("selftest: %s wrong expectation counted as %d failed"
              % (workload, wrong["failed"]))
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
