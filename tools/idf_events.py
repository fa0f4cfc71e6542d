#!/usr/bin/env python3
"""Decode an IDF flight-recorder journal into a per-stage timeline.

The flight recorder (src/obs/flight_recorder.h) dumps JSONL events — one
object per line with fields seq, ts_us, type, tid, name, a, b, c. This tool
groups task events by stage and interleaves governor/storage activity
(spills, evictions, reloads) by timestamp, so a single
journal reads as "what the scheduler and the memory governor were doing to
each other" during a run.

Every event carries a `q` field: the id of the query whose work produced
it (0 = unattributed background work). `--query N` narrows every view to
one query; the summary always ends with a per-query attribution table.

`--chrome OUT.json` writes the journal as Chrome `trace_event` JSON (load it
in chrome://tracing or ui.perfetto.dev): events whose payload carries a
duration become complete slices ending at their timestamp, everything else
an instant.

Usage:
  tools/idf_events.py journal.jsonl              # per-stage timeline
  tools/idf_events.py journal.jsonl --summary    # counts only
  tools/idf_events.py journal.jsonl --raw        # normalized event dump
  tools/idf_events.py journal.jsonl --query 7    # one query's events only
  tools/idf_events.py journal.jsonl --strict     # nonzero exit on bad input
  tools/idf_events.py journal.jsonl --chrome run.trace.json

Malformed (truncated) lines and unknown event kinds are skipped and
counted; they fail the run (exit 2) only under --strict, so a journal from
a newer binary still decodes on a best-effort basis.

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys
from collections import Counter, defaultdict

# Payload-field meaning per event type (see obs::EventType).
TASK_EVENTS = {"task_start", "task_finish", "task_fail", "steal",
               "resident_hit", "resident_miss"}
GOVERNOR_EVENTS = {"evict", "spill_write", "reload_demand", "batch_seal"}
ENGINE_EVENTS = {"stage_finish", "recovery_block", "executor_kill"}
SHUFFLE_EVENTS = {"shuffle_push"}
QUERY_EVENTS = {"query_submit", "query_admit", "query_reject", "query_start",
                "query_finish", "query_cancel", "query_deadline"}
CHAOS_EVENTS = {"chaos_arm", "chaos_fault"}
META_EVENTS = {"crash", "build_info"}

KNOWN_EVENTS = (TASK_EVENTS | GOVERNOR_EVENTS | ENGINE_EVENTS |
                SHUFFLE_EVENTS | QUERY_EVENTS | CHAOS_EVENTS | META_EVENTS)

# Events recorded as an interval ends, and the payload field holding its
# length in micros: the Chrome slice spans [ts_us - duration, ts_us].
DURATION_FIELD = {"task_finish": "c", "task_fail": "c", "stage_finish": "c",
                  "query_finish": "c", "recovery_block": "c"}

# chaos_fault packs a = site << 8 | kind (see idf::chaos::Site / Fault).
CHAOS_SITES = {1: "task", 2: "reload", 5: "admission"}
CHAOS_FAULTS = {1: "task-delay", 2: "evict-world", 3: "kill-executor",
                4: "cancel-query", 5: "expire-query", 6: "budget-squeeze",
                7: "reload-fail", 8: "reload-delay", 12: "admit-delay"}


def load_events(path):
    """Parses a JSONL journal. Malformed lines (a crash dump may be truncated
    mid-line) and unknown event kinds (journal from a newer binary) are
    skipped and counted, not fatal — see --strict."""
    events = []
    dropped = 0
    unknown = Counter()
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError:
                dropped += 1
                continue
            if not isinstance(ev, dict) or "type" not in ev:
                dropped += 1
                continue
            if ev["type"] not in KNOWN_EVENTS:
                unknown[ev["type"]] += 1
                continue
            events.append(ev)
    events.sort(key=lambda e: (e.get("ts_us", 0), e.get("seq", 0)))
    return events, dropped, unknown


def fmt_bytes(n):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n}B"


def describe(ev):
    """One human line per event; a/b/c meanings follow obs::EventType docs."""
    t = ev["type"]
    a, b, c = ev.get("a", 0), ev.get("b", 0), ev.get("c", 0)
    if t == "task_start":
        return f"task {a} start on executor {b}"
    if t == "task_finish":
        return f"task {a} finish on executor {b} ({c} us)"
    if t == "task_fail":
        return f"task {a} FAILED on executor {b} ({c} us)"
    if t == "steal":
        return f"task {a} stolen from lane {b}"
    if t == "resident_hit":
        return f"task {a} dispatched resident (inputs in memory)"
    if t == "resident_miss":
        return f"task {a} dispatched non-resident (spilled inputs)"
    if t == "evict":
        return f"evict {fmt_bytes(a)} rdd={b} shard={c}"
    if t == "spill_write":
        return f"spill write {fmt_bytes(a)} rdd={b} shard={c}"
    if t == "reload_demand":
        return f"demand reload {fmt_bytes(a)} rdd={b} shard={c}"
    if t == "batch_seal":
        return f"batch sealed {fmt_bytes(a)} rdd={b} shard={c}"
    if t == "shuffle_push":
        return f"shuffle push {fmt_bytes(a)} map={b} -> reduce={c}"
    if t == "query_submit":
        return (f"query {a} submitted (reservation {fmt_bytes(b)}, "
                f"queue depth {c})")
    if t == "query_admit":
        return (f"query {a} admitted (reservation {fmt_bytes(b)}, "
                f"queued {c / 1000.0:.1f}ms)")
    if t == "query_reject":
        reason = "queue full" if c == 0 else "reservation does not fit"
        return f"query {a} REJECTED ({reason}, reservation {fmt_bytes(b)})"
    if t == "query_start":
        return f"query {a} start (reservation {fmt_bytes(b)}, priority {c})"
    if t == "query_finish":
        outcome = "OK" if b == 0 else f"status code {b}"
        return f"query {a} finish {outcome} ({c / 1000.0:.1f}ms running)"
    if t == "query_cancel":
        phase = "while queued" if b == 0 else "while running"
        return f"query {a} cancelled {phase} ({c / 1000.0:.1f}ms after submit)"
    if t == "query_deadline":
        phase = "while queued" if b == 0 else "while running"
        return (f"query {a} deadline expired {phase} "
                f"({c / 1000.0:.1f}ms after submit)")
    if t == "stage_finish":
        return (f"stage finish, {a} tasks ({c / 1000.0:.1f}ms wall, "
                f"{b / 1000.0:.1f}ms simulated)")
    if t == "recovery_block":
        return f"recovery: recomputed rdd={a} partition={b} ({c} us)"
    if t == "executor_kill":
        return f"executor {b} killed, {c} blocks lost"
    if t == "chaos_arm":
        return f"chaos armed, seed {a} (replay with IDF_CHAOS_SEED={a})"
    if t == "chaos_fault":
        site = CHAOS_SITES.get(a >> 8, f"site-{a >> 8}")
        kind = CHAOS_FAULTS.get(a & 0xFF, f"kind-{a & 0xFF}")
        aux = ""
        if kind in ("task-delay", "reload-delay", "admit-delay"):
            aux = f" ({c} us)"
        elif kind == "evict-world":
            aux = f" ({c} evicted)"
        elif kind == "reload-fail":
            aux = f" (reload #{c})"
        elif kind == "kill-executor":
            aux = f" (executor {c})"
        return f"CHAOS {kind} at {site} site, key {b:#x}{aux}"
    if t == "crash":
        return f"FATAL SIGNAL {a} — journal dumped by crash handler"
    if t == "build_info":
        return f"build {ev.get('name', '?')} (up {a}s)"
    return f"{t} a={a} b={b} c={c}"


def build_stages(events):
    """Groups events into per-stage windows.

    Task events carry the stage name; governor/storage events carry none, so
    they are attributed to whichever stages are live at their timestamp
    (between the stage's first task_start and last task end). A stage_finish
    joins the stage of its name; a fused "map+reduce" one is placed by
    timestamp like governor events."""
    stages = {}  # name -> dict(first_ts, last_ts, events)
    order = []
    for ev in events:
        if ev["type"] in TASK_EVENTS and ev.get("name"):
            name = ev["name"]
            if name not in stages:
                stages[name] = {"first": ev["ts_us"], "last": ev["ts_us"],
                                "events": []}
                order.append(name)
            st = stages[name]
            st["first"] = min(st["first"], ev["ts_us"])
            st["last"] = max(st["last"], ev["ts_us"])
            st["events"].append(ev)
    unattributed = []
    for ev in events:
        if ev["type"] in TASK_EVENTS and ev.get("name"):
            continue
        if ev["type"] == "stage_finish" and ev.get("name") in stages:
            stages[ev["name"]]["events"].append(ev)
            continue
        ts = ev.get("ts_us", 0)
        hosts = [n for n in order
                 if stages[n]["first"] <= ts <= stages[n]["last"]]
        if hosts:
            for n in hosts:
                stages[n]["events"].append(ev)
        else:
            unattributed.append(ev)
    for st in stages.values():
        st["events"].sort(key=lambda e: (e.get("ts_us", 0), e.get("seq", 0)))
    return order, stages, unattributed


def print_timeline(events, out=sys.stdout):
    crash = [e for e in events if e["type"] == "crash"]
    if crash:
        build = [e for e in events if e["type"] == "build_info"]
        print("=" * 66, file=out)
        print(f"  CRASH JOURNAL: {describe(crash[0])}", file=out)
        if build:
            print(f"  {describe(build[-1])}", file=out)
        print("=" * 66, file=out)
    order, stages, unattributed = build_stages(events)
    base_ts = events[0]["ts_us"] if events else 0
    for name in order:
        st = stages[name]
        tasks = Counter(e["type"] for e in st["events"])
        dur_ms = (st["last"] - st["first"]) / 1000.0
        print(f"\nstage {name!r}  "
              f"[{tasks['task_start']} tasks, {dur_ms:.1f} ms window]",
              file=out)
        gov = sum(1 for e in st["events"] if e["type"] in GOVERNOR_EVENTS)
        if gov:
            print(f"  governor activity during stage: {gov} events", file=out)
        shuf = sum(1 for e in st["events"] if e["type"] in SHUFFLE_EVENTS)
        if shuf:
            print(f"  shuffle activity during stage: {shuf} events", file=out)
        for ev in st["events"]:
            rel_ms = (ev["ts_us"] - base_ts) / 1000.0
            marker = "·" if ev["type"] in TASK_EVENTS else ">"
            print(f"  {rel_ms:10.3f}ms {marker} tid={ev.get('tid', 0):<3} "
                  f"q={ev.get('q', 0):<3} {describe(ev)}", file=out)
    if unattributed:
        print(f"\noutside any stage window ({len(unattributed)} events):",
              file=out)
        for ev in unattributed:
            rel_ms = (ev.get("ts_us", 0) - base_ts) / 1000.0
            print(f"  {rel_ms:10.3f}ms > tid={ev.get('tid', 0):<3} "
                  f"q={ev.get('q', 0):<3} {describe(ev)}", file=out)


def print_summary(events, out=sys.stdout):
    by_type = Counter(e["type"] for e in events)
    print(f"{len(events)} events", file=out)
    for t, n in sorted(by_type.items()):
        print(f"  {t:<16} {n}", file=out)
    spilled = sum(e.get("a", 0) for e in events if e["type"] == "spill_write")
    reloaded = sum(e.get("a", 0) for e in events
                   if e["type"] == "reload_demand")
    if spilled or reloaded:
        print(f"  bytes spilled={fmt_bytes(spilled)} "
              f"reloaded={fmt_bytes(reloaded)}", file=out)
    pushed = sum(e.get("a", 0) for e in events if e["type"] == "shuffle_push")
    if pushed:
        print(f"  shuffle pushed={fmt_bytes(pushed)}", file=out)
    submits = by_type.get("query_submit", 0)
    if submits:
        finishes = [e for e in events if e["type"] == "query_finish"]
        failed = sum(1 for e in finishes if e.get("b", 0) != 0)
        queued_us = sum(e.get("c", 0) for e in events
                        if e["type"] == "query_admit")
        run_us = sum(e.get("c", 0) for e in finishes)
        print(f"  queries: {submits} submitted, "
              f"{by_type.get('query_admit', 0)} admitted, "
              f"{by_type.get('query_reject', 0)} rejected, "
              f"{by_type.get('query_cancel', 0)} cancelled, "
              f"{by_type.get('query_deadline', 0)} expired, "
              f"{failed} failed", file=out)
        if finishes:
            print(f"  query time: queued {queued_us / 1000.0:.1f}ms total, "
                  f"running {run_us / 1000.0:.1f}ms total "
                  f"({run_us / len(finishes) / 1000.0:.1f}ms mean)", file=out)
    arms = [e for e in events if e["type"] == "chaos_arm"]
    faults = [e for e in events if e["type"] == "chaos_fault"]
    if arms or faults:
        seeds = sorted({e.get("a", 0) for e in arms})
        by_kind = Counter(CHAOS_FAULTS.get(e.get("a", 0) & 0xFF,
                                           f"kind-{e.get('a', 0) & 0xFF}")
                          for e in faults)
        kinds = ", ".join(f"{k}={n}" for k, n in sorted(by_kind.items()))
        print(f"  chaos: armed seeds {seeds}, {len(faults)} faults injected"
              + (f" ({kinds})" if kinds else ""), file=out)
    by_stage = defaultdict(Counter)
    for e in events:
        if e["type"] in TASK_EVENTS and e.get("name"):
            by_stage[e["name"]][e["type"]] += 1
    for name, counts in by_stage.items():
        hits, misses = counts["resident_hit"], counts["resident_miss"]
        extra = f", residency {hits}H/{misses}M" if hits or misses else ""
        print(f"  stage {name!r}: {counts['task_start']} tasks, "
              f"{counts['steal']} steals{extra}", file=out)
    print_query_table(events, out=out)


def print_query_table(events, out=sys.stdout):
    """Per-query attribution: what each query id cost, from its events."""
    by_q = defaultdict(Counter)
    for e in events:
        q = e.get("q", 0)
        t = e["type"]
        by_q[q][t] += 1
        if t == "spill_write":
            by_q[q]["spilled_bytes"] += e.get("a", 0)
        elif t == "reload_demand":
            by_q[q]["reloaded_bytes"] += e.get("a", 0)
    if set(by_q) <= {0}:
        return
    print("  per-query attribution:", file=out)
    for q in sorted(by_q):
        c = by_q[q]
        who = "(unattributed)" if q == 0 else ""
        parts = [f"{c['task_finish'] + c['task_fail']} tasks"]
        if c["steal"]:
            parts.append(f"{c['steal']} steals")
        if c["resident_hit"] or c["resident_miss"]:
            parts.append(f"{c['resident_hit']}H/{c['resident_miss']}M")
        if c["spilled_bytes"]:
            parts.append(f"spilled {fmt_bytes(c['spilled_bytes'])}")
        if c["reloaded_bytes"]:
            parts.append(f"reloaded {fmt_bytes(c['reloaded_bytes'])}")
        print(f"    q={q:<4} {', '.join(parts)} {who}".rstrip(), file=out)


def chrome_trace(events):
    """The journal as a Chrome trace_event document: an X slice per event
    that carries a duration, an instant per other event, on the recording
    thread's track, with q, the raw payload and its decoding in args."""
    trace = []
    for ev in events:
        t = ev["type"]
        name = ev.get("name") or t
        args = {k: ev.get(k, 0) for k in ("q", "a", "b", "c")}
        args["event"] = describe(ev)
        slice_ = {"name": name, "cat": t, "pid": 1, "tid": ev.get("tid", 0),
                  "args": args}
        ts = ev.get("ts_us", 0)
        field = DURATION_FIELD.get(t)
        if field:
            dur = ev.get(field, 0)
            slice_.update(ph="X", ts=ts - dur, dur=dur)
        else:
            slice_.update(ph="i", s="t", ts=ts)
        trace.append(slice_)
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("journal", help="flight-recorder JSONL journal")
    parser.add_argument("--summary", action="store_true",
                        help="print aggregate counts only")
    parser.add_argument("--raw", action="store_true",
                        help="print every event, decoded, in time order")
    parser.add_argument("--query", type=int, metavar="ID",
                        help="only events attributed to this query id")
    parser.add_argument("--chrome", metavar="OUT",
                        help="write the events as Chrome trace_event JSON")
    parser.add_argument("--strict", action="store_true",
                        help="exit 2 when any line was malformed or any "
                             "event kind was unknown")
    args = parser.parse_args()

    events, dropped, unknown = load_events(args.journal)
    if dropped:
        print(f"warning: skipped {dropped} malformed line(s)", file=sys.stderr)
    if unknown:
        kinds = ", ".join(f"{k} x{n}" for k, n in sorted(unknown.items()))
        print(f"warning: skipped {sum(unknown.values())} event(s) of "
              f"unknown kind(s): {kinds}", file=sys.stderr)
    if args.strict and (dropped or unknown):
        return 2
    if args.query is not None:
        events = [e for e in events if e.get("q", 0) == args.query]
        if not events:
            print(f"no events attributed to query {args.query}",
                  file=sys.stderr)
            return 1
    if not events:
        print("no events in journal", file=sys.stderr)
        return 1

    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as f:
            json.dump(chrome_trace(events), f)
        print(f"chrome trace of {len(events)} events written to "
              f"{args.chrome} (load in ui.perfetto.dev)")
    elif args.summary:
        print_summary(events)
    elif args.raw:
        base_ts = events[0]["ts_us"]
        for ev in events:
            rel_ms = (ev["ts_us"] - base_ts) / 1000.0
            print(f"{rel_ms:10.3f}ms tid={ev.get('tid', 0):<3} "
                  f"q={ev.get('q', 0):<3} {describe(ev)}")
    else:
        print_timeline(events)
        print()
        print_summary(events)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piped into `head` etc.: exit quietly, and detach stdout so the
        # interpreter's shutdown flush doesn't raise a second error.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
