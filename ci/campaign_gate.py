#!/usr/bin/env python3
"""Gates over `repro campaign` row CSVs, columns read by header name.

    ci/campaign_gate.py CAMPAIGN.csv
    ci/campaign_gate.py CAMPAIGN.csv --same-as OTHER.csv

Alone, CAMPAIGN.csv must come from a `--verify-cold` run: every row's
`agree` is `true` (the cached, rate-rebuilt mean equals its cold twin
bit for bit) and every structural family `(n, ph_order)` has exactly
one `cache_hit == false` row (one exploration; every other point of the
family rebuilt rates only).

With `--same-as`, the two files must hold the same rows in every
deterministic column — all but the wall-clock timings. Two runs of one
grid explore and cache the same points, so `cache_hit` is compared too.
"""
import csv, sys

DETERMINISTIC = ["n", "ph_order", "backend", "service_scale", "net_scale",
                 "states", "transitions", "cache_hit", "iterations",
                 "solved_by", "mean_ms", "cold_mean_ms", "agree"]


def rows(path):
    with open(path) as f:
        recs = list(csv.DictReader(f))
    if not recs:
        sys.exit(f"{path}: no rows")
    missing = [c for c in DETERMINISTIC if c not in recs[0]]
    if missing:
        sys.exit(f"{path}: missing columns {missing}")
    return recs


def point(rec):
    return ",".join(rec[c] for c in DETERMINISTIC[:5])


args = sys.argv[1:]
if len(args) == 3 and args[1] == "--same-as":
    ours, theirs = rows(args[0]), rows(args[2])
    if len(ours) != len(theirs):
        sys.exit(f"{args[0]} has {len(ours)} rows, {args[2]} has {len(theirs)}")
    diffs = [f"{point(a)}: {c} {a[c]!r} != {b[c]!r}"
             for a, b in zip(ours, theirs) for c in DETERMINISTIC if a[c] != b[c]]
    if diffs:
        sys.exit("\n".join([f"{args[0]} diverges from {args[2]}:", *diffs]))
    print(f"{len(ours)} rows equal in {', '.join(DETERMINISTIC)}")
elif len(args) == 1:
    recs = rows(args[0])
    failed = [f"{point(r)}: agree is {r['agree']!r}, not 'true'"
              for r in recs if r["agree"] != "true"]
    explored = {}
    for r in recs:
        family = (r["n"], r["ph_order"])
        explored[family] = explored.get(family, 0) + (r["cache_hit"] == "false")
    failed += [f"family n={n} ph_order={ph}: {k} explorations, expected exactly 1"
               for (n, ph), k in explored.items() if k != 1]
    if failed:
        sys.exit("\n".join(failed))
    print(f"{len(recs)} rows agree with their cold re-runs; "
          f"{len(explored)} structural families, one exploration each")
else:
    sys.exit(__doc__)
