#!/usr/bin/env python3
"""Gate on the measurement engine's event and timer counts.

Reads a `repro --metrics` document of a measurement run (`repro fig8`)
and prints the events and timers per execution. Fails when a counter is
missing, when no CPU, hub or timer event was processed, when more timers
fired or were dropped than were set (a pending timer lives only in the
event queue, so each one must come out of it at most once), or when the
most events one campaign had pending (`des.queue_peak_len`) reaches a
campaign's execution count: each process keeps only its next execution
timer pending, so the pending set must not grow with the executions.
"""

import json
import sys

REQUIRED = [
    "net.events.cpu",
    "net.events.hub",
    "net.events.timer",
    "net.events.gc",
    "net.events.nagle",
    "net.timers.set",
    "net.timers.precise",
    "net.timers.coarse",
    "net.timers.fired",
    "net.timers.deferred",
    "net.timers.dropped",
    "net.messages.app",
    "net.messages.heartbeat",
    "net.messages.delivered",
    "testbed.campaigns",
    "testbed.executions",
    "des.queue_peak_len",
]


def main(path):
    with open(path) as f:
        counters = json.load(f)["counters"]
    missing = [name for name in REQUIRED if name not in counters]
    if missing:
        print(f"::error::missing counters: {', '.join(missing)}")
        return 1
    execs = counters["testbed.executions"]
    per = max(execs, 1)
    events = sum(counters[f"net.events.{k}"] for k in ("cpu", "hub", "timer", "gc", "nagle"))
    print(
        f"{execs} executions; per execution: {events / per:.1f} events "
        f"(cpu {counters['net.events.cpu'] / per:.1f}, "
        f"hub {counters['net.events.hub'] / per:.1f}, "
        f"timer {counters['net.events.timer'] / per:.1f}), "
        f"{counters['net.timers.set'] / per:.1f} timers set, "
        f"{counters['net.timers.fired'] / per:.1f} fired; "
        f"des.queue_peak_len = {counters['des.queue_peak_len']}"
    )
    failed = False
    for kind in ("cpu", "hub", "timer"):
        if counters[f"net.events.{kind}"] == 0:
            print(f"::error::no {kind} event was processed")
            failed = True
    fired = counters["net.timers.fired"]
    dropped = counters["net.timers.dropped"]
    set_ = counters["net.timers.set"]
    if fired + dropped > set_:
        print(
            f"::error::{fired} timers fired and {dropped} dropped, "
            f"but only {set_} were set"
        )
        failed = True
    per_campaign = execs / max(counters["testbed.campaigns"], 1)
    peak = counters["des.queue_peak_len"]
    if peak >= per_campaign:
        print(
            f"::error::a campaign had {peak} events pending at once, at least as many as "
            f"its {per_campaign:.0f} executions: execution timers are armed ahead"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
