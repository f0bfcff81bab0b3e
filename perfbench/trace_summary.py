#!/usr/bin/env python3
"""Summarize a Chrome trace-event file written by `--trace-out`.

For every span name it reports how often the span occurs, its total and
largest duration, and its self time: the duration minus the part of it
that child spans on the same thread cover.  Spans on other threads (the
executor's shard jobs) are never subtracted, so a coordinator span that
waits on worker threads keeps the waiting as self time.

The recorder emits strictly nested begin/end events per thread, so the
children of a span never overlap one another and self time is the span's
duration minus the sum of its direct children's durations.

Usage:
  python3 perfbench/trace_summary.py TRACE.json
"""

import argparse
import json
import sys


def summarize(events):
    """Returns {name: {"count", "total_s", "self_s", "max_s"}}.

    `events` is the trace's `traceEvents` list of B/E events with
    microsecond `ts`.  Raises ValueError on an unbalanced stream.
    """
    stacks = {}
    spans = {}
    for event in events:
        phase = event.get("ph")
        if phase not in ("B", "E"):
            continue
        key = (event.get("pid"), event.get("tid"))
        stack = stacks.setdefault(key, [])
        if phase == "B":
            # [name, begin ts, microseconds covered by direct children]
            stack.append([event["name"], event["ts"], 0.0])
            continue
        if not stack or stack[-1][0] != event["name"]:
            raise ValueError(f"unbalanced end of {event['name']!r} on {key}")
        name, begin, covered = stack.pop()
        duration = event["ts"] - begin
        if stack:
            stack[-1][2] += duration
        entry = spans.setdefault(
            name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += duration / 1e6
        entry["self_s"] += (duration - covered) / 1e6
        entry["max_s"] = max(entry["max_s"], duration / 1e6)
    for key, stack in stacks.items():
        if stack:
            raise ValueError(f"spans left open on {key}: "
                             f"{[frame[0] for frame in stack]}")
    return spans


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return summarize(json.load(handle)["traceEvents"])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("trace")
    args = parser.parse_args()
    try:
        spans = load(args.trace)
    except (OSError, ValueError, KeyError) as error:
        print(f"trace_summary: {error}", file=sys.stderr)
        return 1
    print(f"{'span':<32} {'count':>7} {'total_s':>10} {'self_s':>10} "
          f"{'max_s':>10}")
    for name, entry in sorted(spans.items(), key=lambda item: -item[1]["total_s"]):
        print(f"{name:<32} {entry['count']:>7} {entry['total_s']:>10.4f} "
              f"{entry['self_s']:>10.4f} {entry['max_s']:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
