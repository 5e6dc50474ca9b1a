#!/usr/bin/env python3
"""Gate on the intern table's level-boundary provisioning.

Reads a `repro --metrics` document of a resident exploration and fails
unless no BFS level outgrew the table sized for it
(`intern.midlevel_grows` is 0 — the mid-level overflow path is for the
rare level, not for the CI models) and the table is not oversized
either (`intern.occupancy` within 0.2 … 0.5).
"""

import json
import sys


def main(path):
    with open(path) as f:
        metrics = json.load(f)
    grows = metrics["counters"]["intern.midlevel_grows"]
    occupancy = metrics["gauges"]["intern.occupancy"]
    print(f"intern.midlevel_grows = {grows}, intern.occupancy = {occupancy:.3f}")
    if grows != 0:
        print(f"::error::{grows} BFS level(s) outgrew the intern table provisioned for them")
    if not 0.2 <= occupancy <= 0.5:
        print(f"::error::intern table occupancy {occupancy:.3f} outside 0.2 … 0.5")
    return 0 if grows == 0 and 0.2 <= occupancy <= 0.5 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
