#!/usr/bin/env python3
"""Cross-leg agreement gate over `repro analytic` CSVs.

    ci/agreement.py GLOB PREFIX EXPECTED_LEGS OUT.csv

Every `analytic.csv` matching GLOB is one leg's result; the leg is named
by the last path component that starts with PREFIX, with PREFIX removed
(`generator-kron/analytic.csv` under PREFIX `generator-` is leg `kron`).
The legs found must be exactly the comma-separated EXPECTED_LEGS, and
every (scenario, n, ph_order) row must carry the same `analytic_ms` in
all of them to <= 1e-6 relative: a wider spread means one leg's linear
algebra is wrong. The combined matrix is written to OUT.csv.

Locally, on two runs of `repro analytic ... --generator {csr,kron}`:

    ci/agreement.py 'out/generator-*/analytic.csv' generator- csr,kron matrix.csv
"""
import csv, glob, os, sys

TOL = 1e-6

if len(sys.argv) != 5:
    sys.exit(__doc__)
pattern, prefix, expected, out = sys.argv[1:]
expected = sorted(expected.split(","))
noun = prefix.rstrip("-")

rows = {}   # (scenario, n, ph_order) -> {leg: analytic_ms}, in first-seen order
for path in sorted(glob.glob(pattern)):
    named = [p for p in path.split(os.sep) if p.startswith(prefix)]
    if not named:
        sys.exit(f"{path}: no path component starts with {prefix!r}")
    leg = named[-1][len(prefix):]
    with open(path) as f:
        for rec in csv.DictReader(f):
            if not rec["analytic_ms"]:
                sys.exit(f"{leg}: skipped row {rec['scenario']},"
                         f"n={rec['n']} — nothing to compare")
            key = (rec["scenario"], rec["n"], rec["ph_order"])
            rows.setdefault(key, {})[leg] = float(rec["analytic_ms"])
if not rows:
    sys.exit(f"no {noun} CSVs found")
legs = sorted({g for r in rows.values() for g in r})
if legs != expected:
    sys.exit(f"expected {' + '.join(expected)} legs, found {legs}")
failed = False
os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
with open(out, "w", newline="") as f:
    w = csv.writer(f)
    w.writerow(["scenario", "n", "ph_order", *legs,
                "max_rel_spread", "agree"])
    for key, means in rows.items():
        missing = [g for g in legs if g not in means]
        if missing:
            sys.exit(f"row {key}: missing {noun}s {missing}")
        vals = [means[g] for g in legs]
        ref = max(abs(v) for v in vals)
        spread = (max(vals) - min(vals)) / ref if ref else 0.0
        ok = spread <= TOL
        failed |= not ok
        w.writerow([*key, *(f"{v:.9f}" for v in vals),
                    f"{spread:.3e}", str(ok).lower()])
        print(f"{key}: spread {spread:.3e} -> "
              f"{'ok' if ok else 'DISAGREE'}")
with open(out) as f:
    print(f.read())
if failed:
    sys.exit(f"{noun}s disagree beyond {TOL} relative")
