#!/usr/bin/env python3
"""Gate on the intern table's level-boundary provisioning, key width,
term table and generator coefficient table.

Reads a `repro --metrics` document of a resident exploration and fails
unless no BFS level outgrew the table sized for it
(`intern.midlevel_grows` is 0 — the mid-level overflow path is for the
rare level, not for the CI models), the table is not oversized either
(occupancy `intern.used_slots / intern.table_slots` within 0.2 … 0.69:
a provisioned table is the smallest power of two that holds its states
at 11/16 load), and the
widest packed key of the run (`explore.words_per_state`) is at most 9
words — what one bit per place plus the learned extensions give the
n = 3 order-2 model.
The largest term table of the run (`explore.terms`) must stay within
twice the 170 terms of the n = 3 order-2 model: terms are keyed by
activity, phase stage, probability and completion, so a key that picked
up a per-state value would grow the table toward one term per
transition. The generator's coefficient table (`ctmc.coefficients`,
one coefficient per term) is held to the same bound: a CSR entry names
a coefficient, so a coefficient that picked up a per-entry value would
grow the table toward one coefficient per rate. Also prints how many
exploration attempts restarted to widen a place
(`explore.layout_restarts`).
"""

import json
import sys

MAX_WORDS_PER_STATE = 9
MAX_TERMS = 2 * 170
MAX_OCCUPANCY = 11 / 16


def main(path):
    with open(path) as f:
        metrics = json.load(f)
    grows = metrics["counters"]["intern.midlevel_grows"]
    # Both gauges keep the run's maximum: the largest table's.
    used = metrics["gauges"]["intern.used_slots"]
    slots = metrics["gauges"]["intern.table_slots"]
    occupancy = used / slots
    words = metrics["gauges"]["explore.words_per_state"]
    restarts = metrics["counters"]["explore.layout_restarts"]
    terms = metrics["gauges"]["explore.terms"]
    coefficients = metrics["gauges"]["ctmc.coefficients"]
    print(
        f"intern.midlevel_grows = {grows}, "
        f"occupancy = {used:g} / {slots:g} slots = {occupancy:.3f}"
    )
    print(f"explore.words_per_state = {words:g}, explore.layout_restarts = {restarts}")
    print(f"explore.terms = {terms:g}")
    print(f"ctmc.coefficients = {coefficients:g}")
    ok = True
    if grows != 0:
        print(f"::error::{grows} BFS level(s) outgrew the intern table provisioned for them")
        ok = False
    if not 0.2 <= occupancy <= MAX_OCCUPANCY:
        print(
            f"::error::intern table occupancy {occupancy:.3f} outside 0.2 … {MAX_OCCUPANCY:.4g}"
        )
        ok = False
    if words > MAX_WORDS_PER_STATE:
        print(f"::error::packed keys of {words:g} words, more than {MAX_WORDS_PER_STATE}")
        ok = False
    if terms > MAX_TERMS:
        print(f"::error::a term table of {terms:g} terms, more than {MAX_TERMS}")
        ok = False
    if coefficients > MAX_TERMS:
        print(
            f"::error::a generator coefficient table of {coefficients:g} coefficients, "
            f"more than {MAX_TERMS}"
        )
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
