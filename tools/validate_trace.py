#!/usr/bin/env python3
"""Validates a Chrome trace-event JSON file produced by the obs tracer.

Checks, per lane (pid, tid):
  - every "B" event is closed by a matching "E" at a timestamp >= its
    start, with nothing left open at the end (stack discipline);
  - timestamps are monotonically non-decreasing in emission order;
  - only the documented phases appear (B/E and "i" instants on the sim
    process, X on the wall process, M metadata) and every event carries
    the required keys;
  - the sim process (pid 1) and its lane metadata are present;
  - every "alert"-category instant names its health rule in args.rule and
    lands inside the stream-step span its args.step points at;
  - the per-phase sim spans tile the timeline: their summed duration
    matches the summed duration of the top-level stream-step spans within
    the given tolerance (default 1%).

With --metrics FILE (the same run's --metrics-out Prometheus dump), also
checks that the registry agrees with the trace: each
dismastd_core_sim_seconds{phase=P} gauge equals the summed 'phase' spans
named P, the phase="total" gauge equals the summed stream-step spans, and
every phase span name has a gauge. Values agree within the export's
rounding: each timestamp is printed to 1e-3 us, plus 1e-9 relative.

Usage: validate_trace.py TRACE.json [--tolerance 0.01] [--require-phases]
                         [--metrics METRICS.prom]

Exit status 0 on a valid trace, 1 (with a message) otherwise.
"""

import argparse
import json
import re
import sys

REQUIRED_KEYS = {"ph", "pid", "ts"}
SIM_PID = 1
WALL_PID = 2

# Superstep names the decomposition commits as 'phase'-category spans.
# 'repartition' and 'migrate' are the elastic cluster's online rebalance
# supersteps (partition recompute and factor-row/Gram-shard migration).
# 'cwin_update'/'cwin_stitch' are the continuous-window session's phases:
# fused per-event row updates and the periodic exact re-decomposition,
# tiling each publish's 'step N' span.
KNOWN_PHASES = {
    "partition",
    "products",
    "mttkrp_update",
    "gram_reduce",
    "loss",
    "recovery",
    "repartition",
    "migrate",
    "cwin_update",
    "cwin_stitch",
}


def fail(message):
    print(f"validate_trace: FAIL: {message}")
    sys.exit(1)


PHASE_GAUGE = re.compile(
    r'^dismastd_core_sim_seconds\{phase="([^"]*)"\} (\S+)$')


def check_phase_gauges(path, phase_spans, step_spans_us):
    """Fails unless the phase gauges in the Prometheus dump at `path` match
    the trace. `phase_spans` maps a phase name to [summed us, span count];
    `step_spans_us` lists the stream-step span durations."""
    gauges = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                match = PHASE_GAUGE.match(line.strip())
                if match:
                    gauges[match.group(1)] = float(match.group(2)) * 1e6
    except OSError as error:
        fail(f"cannot load {path}: {error}")
    if "total" not in gauges:
        fail(f"{path} has no dismastd_core_sim_seconds{{phase=\"total\"}}")
    expected = {"total": [sum(step_spans_us), len(step_spans_us)]}
    expected.update(phase_spans)
    for name in sorted(phase_spans.keys() - gauges.keys()):
        fail(f"phase span {name!r} has no dismastd_core_sim_seconds gauge")
    for name, gauge_us in sorted(gauges.items()):
        trace_us, count = expected.get(name, [0.0, 0])
        tolerance = 1e-3 * count + 1e-9 * max(abs(gauge_us), abs(trace_us))
        if abs(gauge_us - trace_us) > tolerance:
            fail(
                f"gauge phase={name!r} reads {gauge_us:.3f} us but the trace "
                f"sums to {trace_us:.3f} us (tolerance {tolerance:.3f} us)"
            )
    return len(gauges)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.01,
        help="relative tolerance for the phase-sum check (default 1%%)",
    )
    parser.add_argument(
        "--require-phases",
        action="store_true",
        help="fail if the trace has no 'phase'-category spans (i.e. was "
        "recorded below --trace-detail phases)",
    )
    parser.add_argument(
        "--metrics",
        help="the same run's Prometheus dump; check its "
        "dismastd_core_sim_seconds gauges against the trace",
    )
    args = parser.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot load {args.trace}: {error}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top-level object must carry a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail("traceEvents is empty")

    sim_lanes_named = set()
    sim_process_named = False
    open_spans = {}  # (pid, tid) -> stack of B events
    last_ts = {}  # (pid, tid) -> last timestamp seen
    phase_us = 0.0
    phase_spans = {}  # phase name -> [summed us, span count]
    step_us = 0.0
    step_spans_us = []
    category_us = {}
    n_spans = 0
    step_spans = {}  # step number -> (begin_ts, end_ts)
    alerts = []  # (event index, ts, step number, rule)

    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph not in ("B", "E", "X", "M", "i"):
            fail(f"event {i}: unexpected phase {ph!r}")
        if ph == "M":
            if event.get("name") == "process_name":
                if event.get("pid") == SIM_PID:
                    sim_process_named = True
            elif event.get("name") == "thread_name":
                if event.get("pid") == SIM_PID:
                    sim_lanes_named.add(event.get("tid"))
            continue

        missing = REQUIRED_KEYS - event.keys()
        if missing:
            fail(f"event {i}: missing keys {sorted(missing)}")
        pid, tid, ts = event["pid"], event.get("tid", 0), event["ts"]
        if pid not in (SIM_PID, WALL_PID):
            fail(f"event {i}: unknown pid {pid}")
        if ph in ("B", "E") and pid != SIM_PID:
            fail(f"event {i}: B/E span off the sim process (pid {pid})")
        if ph == "X" and pid != WALL_PID:
            fail(f"event {i}: X span off the wall process (pid {pid})")
        if ph == "X" and "dur" not in event:
            fail(f"event {i}: X event without dur")
        if ph == "i" and pid != SIM_PID:
            fail(f"event {i}: instant off the sim process (pid {pid})")
        if ph == "i" and not event.get("name"):
            fail(f"event {i}: instant without name")

        lane = (pid, tid)
        # Emission order is clock order per lane; X wall events may
        # interleave from many threads, so only sim lanes are checked.
        if pid == SIM_PID:
            if lane in last_ts and ts < last_ts[lane] - 1e-9:
                fail(
                    f"event {i}: lane {lane} timestamp {ts} goes backwards "
                    f"(previous {last_ts[lane]})"
                )
            last_ts[lane] = ts

        if ph == "B":
            if "name" not in event:
                fail(f"event {i}: B event without name")
            if (
                event.get("cat") == "phase"
                and event["name"] not in KNOWN_PHASES
            ):
                fail(
                    f"event {i}: unknown phase span {event['name']!r} "
                    f"(known: {sorted(KNOWN_PHASES)})"
                )
            open_spans.setdefault(lane, []).append(event)
        elif ph == "E":
            stack = open_spans.get(lane, [])
            if not stack:
                fail(f"event {i}: E without open B on lane {lane}")
            begin = stack.pop()
            duration = ts - begin["ts"]
            if duration < -1e-9:
                fail(
                    f"event {i}: span {begin.get('name')!r} on lane {lane} "
                    f"has negative duration {duration}"
                )
            n_spans += 1
            category = begin.get("cat", "")
            category_us[category] = category_us.get(category, 0.0) + duration
            if category == "phase":
                phase_us += duration
                entry = phase_spans.setdefault(begin["name"], [0.0, 0])
                entry[0] += duration
                entry[1] += 1
            if category == "stream" and begin.get("name", "").startswith(
                "step "
            ):
                step_us += duration
                step_spans_us.append(duration)
                try:
                    step_number = int(begin["name"].split()[1])
                except (IndexError, ValueError):
                    step_number = None
                if step_number is not None:
                    step_spans[step_number] = (begin["ts"], ts)
        elif ph == "i" and event.get("cat") == "alert":
            arguments = event.get("args", {})
            rule = arguments.get("rule")
            if not rule:
                fail(f"event {i}: alert instant without args.rule")
            if "step" not in arguments:
                fail(f"event {i}: alert instant without args.step")
            try:
                alert_step = int(arguments["step"])
            except (TypeError, ValueError):
                fail(
                    f"event {i}: alert instant args.step "
                    f"{arguments['step']!r} is not an integer"
                )
            alerts.append((i, ts, alert_step, rule))

    dangling = {
        lane: [e.get("name") for e in stack]
        for lane, stack in open_spans.items()
        if stack
    }
    if dangling:
        fail(f"unclosed spans at end of trace: {dangling}")
    if not sim_process_named:
        fail("sim process (pid 1) has no process_name metadata")
    if 0 not in sim_lanes_named:
        fail("driver lane (pid 1, tid 0) has no thread_name metadata")
    for (pid, tid) in last_ts:
        if pid == SIM_PID and tid not in sim_lanes_named:
            fail(f"sim lane {tid} carries events but has no thread_name")

    # Alert instants are emitted at the end of the step that tripped them,
    # so each must land inside (inclusive) its step's sim span.
    for i, ts, alert_step, rule in alerts:
        if alert_step not in step_spans:
            fail(
                f"event {i}: alert {rule!r} points at step {alert_step}, "
                f"which has no stream-step span"
            )
        begin_ts, end_ts = step_spans[alert_step]
        if not (begin_ts - 1e-6 <= ts <= end_ts + 1e-6):
            fail(
                f"event {i}: alert {rule!r} at ts {ts} lies outside step "
                f"{alert_step}'s span [{begin_ts}, {end_ts}]"
            )

    if args.require_phases and phase_us == 0.0:
        fail("no 'phase'-category spans found")
    if phase_us > 0.0 and step_us > 0.0:
        relative = abs(phase_us - step_us) / max(step_us, 1e-12)
        if relative > args.tolerance:
            fail(
                f"phase spans sum to {phase_us:.3f} us but stream steps to "
                f"{step_us:.3f} us ({relative * 100:.2f}% apart, tolerance "
                f"{args.tolerance * 100:.2f}%)"
            )

    gauges_checked = ""
    if args.metrics:
        checked = check_phase_gauges(args.metrics, phase_spans, step_spans_us)
        gauges_checked = f"; {checked} phase gauges match the trace"

    summary = ", ".join(
        f"{cat or '<none>'}={us / 1e6:.4f}s"
        for cat, us in sorted(category_us.items())
    )
    print(
        f"validate_trace: OK: {len(events)} events, {n_spans} sim spans, "
        f"{len(alerts)} alert instants, {len(sim_lanes_named)} sim lanes; "
        f"per-category sim seconds: {summary}{gauges_checked}"
    )


if __name__ == "__main__":
    main()
