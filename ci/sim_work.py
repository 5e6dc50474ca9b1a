#!/usr/bin/env python3
"""Gate on the SAN simulator's enabling work per completion.

Reads a `repro --metrics` document of a simulation run and fails unless
`sim.enabling_evals / sim.completions` is at most 4.0. A replication
starts from its model's time-zero snapshot, so its evaluations are only
those its firings call for (2.9 per completion on `repro table1 --scale
quick`); examining every activity afresh at time zero again reads 7.4.
"""

import json
import sys

MAX_EVALS_PER_COMPLETION = 4.0


def main(path):
    with open(path) as f:
        counters = json.load(f)["counters"]
    evals = counters["sim.enabling_evals"]
    completions = counters["sim.completions"]
    ratio = evals / completions
    print(
        f"sim.enabling_evals = {evals}, sim.completions = {completions}, "
        f"sim.dependent_visits = {counters.get('sim.dependent_visits')}, "
        f"evaluations per completion = {ratio:.2f}"
    )
    if ratio > MAX_EVALS_PER_COMPLETION:
        print(
            f"::error::{ratio:.2f} enabling evaluations per completion, "
            f"above {MAX_EVALS_PER_COMPLETION}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
