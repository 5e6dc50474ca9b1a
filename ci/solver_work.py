#!/usr/bin/env python3
"""Gate on the rows the Jacobi absorption steps update.

Reads the `--metrics` document and the `campaign.csv` of one `repro
campaign --backends jacobi` run. A Jacobi step updates only the rows
that can still change and adds them to the `solver.jacobi.rows`
counter; the steps are the points of the
`solver.residual/absorption_jacobi` series and the states the `states`
column. Fails when the counter is missing or when the rows exceed 0.4
of steps x states: a step that sweeps every row reads 1.0, and n = 3
exponential reads 0.23.
"""

import csv
import json
import sys

MAX_ROW_SHARE = 0.4


def main(metrics_path, campaign_path):
    with open(metrics_path) as f:
        metrics = json.load(f)
    rows = metrics["counters"].get("solver.jacobi.rows")
    if rows is None:
        print("::error::the solver.jacobi.rows counter is missing")
        return 1
    steps = len(metrics["series"].get("solver.residual/absorption_jacobi", []))
    with open(campaign_path, newline="") as f:
        states = {int(row["states"]) for row in csv.DictReader(f)}
    if len(states) != 1 or steps == 0:
        print(
            f"::error::expected Jacobi steps on one chain, got {steps} steps "
            f"and state counts {sorted(states)}"
        )
        return 1
    (n,) = states
    share = rows / (steps * n)
    print(
        f"solver.jacobi.rows = {rows}, steps = {steps}, states = {n}, "
        f"rows / (steps x states) = {share:.3f}"
    )
    if share > MAX_ROW_SHARE:
        print(
            f"::error::Jacobi updated {share:.3f} of steps x states, "
            f"above {MAX_ROW_SHARE}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
