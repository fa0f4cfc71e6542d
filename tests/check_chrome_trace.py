#!/usr/bin/env python3
"""Checks a Chrome trace written by `tools/idf_events.py --chrome`.

Usage: tests/check_chrome_trace.py TRACE.json

Exits non-zero, naming the first violation, unless:
  - the file parses as JSON with a traceEvents list;
  - every complete (X) slice has a duration >= 0;
  - every stage_finish slice holds exactly `a` (its task count) task_finish
    events of its stage: same name, or either half of a fused "map+reduce"
    name, and same q;
  - every task_start/task_finish event of such a stage lies inside one of
    that stage's slices.
"""

import json
import sys


def belongs(task, stage):
    names = {stage["name"], *stage["name"].split("+")}
    return task["name"] in names and task["args"]["q"] == stage["args"]["q"]


def inside(task, stage):
    at = task["ts"] + task.get("dur", 0)  # a finish slice ends at its event
    return stage["ts"] <= at <= stage["ts"] + stage["dur"]


def main():
    with open(sys.argv[1], encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    for ev in events:
        if ev["ph"] == "X" and ev["dur"] < 0:
            sys.exit(f"negative duration: {ev}")
    stages = [ev for ev in events if ev["cat"] == "stage_finish"]
    tasks = [ev for ev in events
             if ev["cat"] in ("task_start", "task_finish")]
    for stage in stages:
        held = sum(1 for t in tasks if t["cat"] == "task_finish" and
                   belongs(t, stage) and inside(t, stage))
        if held != stage["args"]["a"]:
            sys.exit(f"{stage} holds {held} task_finish events")
    for task in tasks:
        own = [s for s in stages if belongs(task, s)]
        if own and not any(inside(task, s) for s in own):
            sys.exit(f"{task} lies outside its stage's slices")
    print(f"ok: {len(events)} events, {len(stages)} stage slices")


if __name__ == "__main__":
    main()
