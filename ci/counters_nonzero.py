#!/usr/bin/env python3
"""Gate that named telemetry counters ran.

Usage: counters_nonzero.py METRICS NAME[=VALUE] [NAME[=VALUE] ...] [--why TEXT]

Reads a `repro --metrics` document and fails unless every named counter
is present under `counters` with a value of at least 1, or, written
`NAME=VALUE`, with exactly that value. A silently skipped code path (an
external-memory or fault-injection leg that never engaged) leaves its
counter missing or zero, which a result gate alone cannot see; an exact
value also catches a schedule that only partly fired. `--why` names
that path in the error line.
"""

import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("metrics")
    parser.add_argument("names", nargs="+")
    parser.add_argument("--why", default="")
    args = parser.parse_args()
    with open(args.metrics) as f:
        counters = json.load(f)["counters"]
    suffix = f" - {args.why}" if args.why else ""
    for spec in args.names:
        name, _, want = spec.partition("=")
        got = counters.get(name)
        print(f"{name} = {got}")
        if want:
            if got != int(want):
                print(f"::error::{name} is {got}, expected exactly {want}{suffix}")
                return 1
        elif counters.get(name, 0) < 1:
            print(f"::error::{name} is zero or missing{suffix}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
