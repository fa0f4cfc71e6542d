#!/usr/bin/env python3
"""SNB benchmark entry point: builds the driver from source, runs one
workload, checks its results and prints them as one JSON line.

    python3 snbbench/run.py --workload snb_serve --seed 1 --seconds 3 --trace 0

Run from the repository root. The engine is compiled from ../src into
$CARGO_TARGET_DIR (default .bench_build) on first use. --seconds sets the
amount of work, never a deadline: each workload does a fixed number of
operations per second of --seconds (about a second of work each on a
4-core host), so two runs with the same arguments do the same work.

--trace 0 runs the workload in PROCESSES fresh driver processes and
reports the median of each end-to-end metric. --trace 1 runs it
untraced, traced and untraced again, and reports the per-layer metrics:
spans and registry deltas from the traced run, per-request-kind latencies
from the first untraced one, and obs.tracing_overhead from all three.
The traced run's spans are left as trace_event JSON under the build
directory. snbbench/README.md says what each metric means.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import statistics
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

WORKLOADS = ("snb_serve", "snb_append", "snb_spill")

END_TO_END = [
    ("setup_s", "s"),
    ("setup_rss_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_request", "ms"),
]

PER_LAYER = [
    # Per-request-kind latencies from the untraced run (0 where a workload
    # has no request of that kind; tails need >= 10 samples beyond them).
    ("e2e.setup_wall_s", "s"),
    ("e2e.qps", "1/s"),
    ("e2e.p50_ms", "ms"),
    ("e2e.p99_ms", "ms"),
    ("e2e.lookup_p50_ms", "ms"),
    ("e2e.lookup_p99_ms", "ms"),
    ("e2e.join_p50_ms", "ms"),
    ("e2e.join_p99_ms", "ms"),
    ("e2e.append_rows_per_s", "rows/s"),
    ("e2e.append_p50_ms", "ms"),
    ("e2e.vanilla_join_p50_ms", "ms"),
    ("e2e.scan_p50_ms", "ms"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.handoff_ms_p50", "ms"),
    ("server.rejected", "count"),
    ("sql.plan_ms_p50", "ms"),
    ("sql.collect_ms_p50", "ms"),
    ("sql.hash_build_s", "s"),
    ("core.get_rows_ms_p50", "ms"),
    ("core.append_ms_p50", "ms"),
    ("core.create_index_s", "s"),
    ("core.index_bytes_per_data_byte", "ratio"),
    ("core.batch_copies_per_append", "count"),
    ("core.ctrie_snapshots_per_append", "count"),
    ("ctrie.probes_per_lookup", "count"),
    ("ctrie.hit_ratio", "ratio"),
    ("ctrie.lookup_ns_1t", "ns"),
    ("ctrie.lookup_mops_4t", "Mops/s"),
    ("storage.row_batch.allocations", "count"),
    ("storage.batches.cow_opens", "count"),
    ("storage.resident_bytes", "bytes"),
    ("engine.stage.wall_s", "s"),
    ("engine.tasks_per_request", "count"),
    ("engine.scheduler.steals", "count"),
    ("engine.shuffle.stall_s", "s"),
    ("engine.shuffle.pushed_mb", "MB"),
    ("engine.blocks_retained_per_request", "count"),
    ("mem.spill_write_mb", "MB"),
    ("mem.reload_read_mb", "MB"),
    ("mem.evictions", "count"),
    ("sched.resident_hit_ratio", "ratio"),
    ("mem.spill_dir_mb_end", "MB"),
    ("obs.tracing_overhead", "ratio"),
    ("host.steal_share", "ratio"),
    ("self.server.queue_ms", "ms"),
    ("self.body_ms", "ms"),
    ("self.server.handoff_ms", "ms"),
    ("self.sql.plan_ms", "ms"),
    ("self.sql.execute_ms", "ms"),
    ("self.sql.collect_ms", "ms"),
    ("self.core.get_rows_ms", "ms"),
    ("self.core.append_ms", "ms"),
]

# Per-layer metrics the traced run reports from the untraced one: the
# per-request-kind latencies are end-to-end numbers, so tracing must not
# touch them.
UNTRACED_KEYS = [name for name, _ in PER_LAYER if name.startswith("e2e.")]

# An untraced run is this many driver processes doing the same work; each
# end-to-end metric is the median over them. Fresh processes keep one run's
# heap from shaping the next one's RSS, and set-up is timed once per process.
PROCESSES = 3
RUN_LIMIT_S = 165       # wall-clock limit for the runs of one invocation
BUILD_LIMIT_S = 850     # first invocation in a checkout also builds


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(target)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        log("snbbench: engine sources (src/) not found next to snbbench/")
        sys.exit(2)
    build_dir = os.path.join(target_dir(), "snbbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    deadline = time.monotonic() + BUILD_LIMIT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("snbbench: build timed out")
            sys.exit(2)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("snbbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(build_dir, "snb_bench")


class HangError(Exception):
    def __init__(self, phase):
        super().__init__(phase)
        self.phase = phase


def run_driver(binary, argv, deadline):
    """Runs the driver until `deadline`; returns its JSON report. A run
    still going at the deadline is killed and raises HangError naming the
    phase it was in."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("IDF_", "MALLOC_"))}
    # glibc raises its mmap threshold as large blocks are freed and then keeps
    # freed heap memory; under snb_spill's budget that retention, not live
    # data, made peak RSS read 0.7-1.3 GB across runs of one build. Fixing
    # the threshold at glibc's starting value keeps RSS to live memory.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    phase = ["start"]
    out = []

    def pump_stderr():
        for line in proc.stderr:
            if line.startswith("phase="):
                phase[0] = line.strip()[len("phase="):]
            else:
                sys.stderr.write(line)

    readers = [threading.Thread(target=pump_stderr),
               threading.Thread(target=lambda: out.append(proc.stdout.read()))]
    for reader in readers:
        reader.start()
    try:
        proc.wait(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise HangError(phase[0])
    finally:
        for reader in readers:
            reader.join()
    out = "".join(out)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("driver exited with %d in phase %s"
                           % (proc.returncode, phase[0]))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Self-test knobs (snbbench/selftest.py): a tiny data set, and a
    # deliberately wrong expectation that must be counted as a failure.
    ap.add_argument("--sf", type=float, default=1.0, help=argparse.SUPPRESS)
    ap.add_argument("--wrong-expectation", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0 or args.sf <= 0:
        ap.error("--seconds and --sf must be positive")

    binary = build()
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = os.path.join(target_dir(), "snbbench-run-%d" % os.getpid())
    spill_dir = os.path.join(scratch, "spill")
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--work", repr(args.seconds), "--sf", repr(args.sf),
            "--spill-dir", spill_dir]
    if args.wrong_expectation:
        base.append("--wrong-expectation")
    trace_file = os.path.join(target_dir(), "snbbench-traces",
                              "%s-seed%d.json" % (args.workload, args.seed))

    reports = []
    try:
        if args.trace == 0:
            for i in range(PROCESSES):
                shutil.rmtree(spill_dir, ignore_errors=True)
                warmup = ["--warmup", "1.0" if i == 0 else "0.3"]
                reports.append(run_driver(binary, base + warmup, deadline))
        else:
            os.makedirs(os.path.dirname(trace_file), exist_ok=True)
            # Untraced, traced, untraced: the traced run is compared with
            # the mean of the two around it, which cancels a steady drift
            # of the host's speed between consecutive processes.
            for traced in (False, True, False):
                shutil.rmtree(spill_dir, ignore_errors=True)
                extra = ["--trace-out", trace_file] if traced else []
                reports.append(run_driver(binary, base + extra, deadline))
    except HangError as hang:
        log("snbbench: run exceeded its %d s limit in phase '%s'; "
            "counted as failed" % (RUN_LIMIT_S, hang.phase))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except RuntimeError as crash:
        log("snbbench: %s" % crash)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(int(r["attempted"]) for r in reports)
    failed = sum(int(r["failed"]) for r in reports)
    for r in reports:
        for err in r["errors"]:
            log("snbbench: %s" % err)
    if args.trace == 0:
        values = {name: statistics.median(r["metrics"][name] for r in reports)
                  for name, _ in END_TO_END}
        spec = END_TO_END
        # End-to-end metrics are never 0; a zero means nothing completed.
        sane = all(math.isfinite(v) and v > 0 for v in values.values())
    else:
        untraced, traced, after = (r["metrics"] for r in reports)
        values = {}
        for name, _ in PER_LAYER:
            if name == "obs.tracing_overhead":
                values[name] = 2.0 * traced["cpu_ms_per_request"] / (
                    untraced["cpu_ms_per_request"]
                    + after["cpu_ms_per_request"]) - 1.0
            elif name in UNTRACED_KEYS:
                values[name] = untraced[name]
            else:
                values[name] = traced[name]
        spec = PER_LAYER
        sane = all(math.isfinite(v) for v in values.values())

    host = reports[0]["host"]
    print("workload %s seed %d: %d attempted, %d failed"
          % (args.workload, args.seed, attempted, failed))
    print("host: %s" % json.dumps(host, sort_keys=True))
    for name, unit in spec:
        print("  %-36s %14.6g %s" % (name, values[name], unit))
    if args.trace == 1:
        print("trace: %s" % trace_file)
    result = {
        "correct": failed == 0 and sane,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
