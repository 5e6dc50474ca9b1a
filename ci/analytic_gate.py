#!/usr/bin/env python3
"""Gates over `repro analytic` result CSVs, columns read by header name.

    ci/analytic_gate.py CSV... [--require SCEN,N,ORDER]...
                               [--solved-only SCEN,N,ORDER]...
                               [--same-as OTHER]

The rows of all CSVs are gated together. No row's `engine` verdict
(solver vs simulator on the identical stochastic model) may be `false`;
`skip`, a capped solve, passes. A row is named by its `scenario`, `n`
and `ph_order` columns; ORDER is empty for an exponential row.

--require SCEN,N,ORDER      the row must exist, be solved (non-empty
                            `analytic_ms`) and read `engine == true`:
                            a cap skip must not pass silently.
--solved-only SCEN,N,ORDER  the row must exist and be solved, but its
                            engine verdict is not gated (a known
                            CI-width artefact at quick scale).
--same-as OTHER             the rows must equal OTHER's, in order, in
                            scenario, n, ph_order, states, analytic_ms
                            and ph_raw_ms: what a spill budget or a
                            retried fault may not change.
"""
import argparse, csv, sys

KEY = ["scenario", "n", "ph_order"]
SAME = KEY + ["states", "analytic_ms", "ph_raw_ms"]


def rows(paths):
    recs = []
    for path in paths:
        with open(path) as f:
            got = list(csv.DictReader(f))
        if not got:
            sys.exit(f"{path}: no rows")
        missing = [c for c in SAME + ["engine"] if c not in got[0]]
        if missing:
            sys.exit(f"{path}: missing columns {missing}")
        recs += got
    return recs


def key(rec):
    return ",".join(rec[c] for c in KEY)


def row_name(arg):
    if arg.count(",") != 2:
        raise argparse.ArgumentTypeError(f"{arg!r} is not SCEN,N,ORDER")
    return arg


p = argparse.ArgumentParser(usage=__doc__.split("\n\n")[1])
p.add_argument("csv", nargs="+")
p.add_argument("--require", action="append", default=[], type=row_name)
p.add_argument("--solved-only", action="append", default=[], type=row_name)
p.add_argument("--same-as")
args = p.parse_args()

recs = rows(args.csv)
failed = [f"{key(r)}: engine is 'false'" for r in recs
          if r["engine"] == "false" and key(r) not in args.solved_only]
for name in args.require + args.solved_only:
    found = [r for r in recs if key(r) == name]
    if not found:
        failed.append(f"{name}: row missing")
    for r in found:
        if not r["analytic_ms"]:
            failed.append(f"{name}: not solved (engine {r['engine']!r})")
        elif name in args.require and r["engine"] != "true":
            failed.append(f"{name}: engine is {r['engine']!r}, not 'true'")
if args.same_as:
    theirs = rows([args.same_as])
    if len(recs) != len(theirs):
        failed.append(f"{len(recs)} rows, {args.same_as} has {len(theirs)}")
    else:
        failed += [f"{key(a)}: {c} {a[c]!r} != {b[c]!r} in {args.same_as}"
                   for a, b in zip(recs, theirs) for c in SAME if a[c] != b[c]]
if failed:
    sys.exit("\n".join(failed))
print(f"{len(recs)} rows: no gated engine disagreement"
      + "".join(f"; {n} solved" for n in args.solved_only)
      + "".join(f"; {n} solved and engine-validated" for n in args.require)
      + (f"; equal to {args.same_as} in {', '.join(SAME)}" if args.same_as else ""))
