#!/usr/bin/env python3
"""Pins every result file of one `repro` run to recorded digests.

    ci/outputs_gate.py DIR DIGESTS
    ci/outputs_gate.py DIR DIGESTS --update

Every `*.csv` and `*.json` file directly under DIR is read by header
(CSV) or by key (JSON, a flat object), the fields that carry wall-clock
time or process memory are dropped by name, and what is left is hashed
exactly as printed. The gate passes when DIR holds the same files as
DIGESTS and each hashes to its recorded digest; a missing, extra or
changed file fails it. `--update` rewrites DIGESTS from DIR instead.

A dropped field the file no longer has is an error too: a renamed
timing column would otherwise start being pinned, or a renamed result
column stop being.
"""
import csv, hashlib, json, sys
from pathlib import Path

# The only fields that differ between two runs of one binary.
VOLATILE = {
    "analytic.csv": ["solve_ms"],
    "campaign.csv": ["build_ms", "solve_ms", "total_ms", "cold_ms"],
    "campaign_summary.json": ["wall_ms", "campaign_point_ms", "cold_point_ms", "speedup"],
    "peak_memory.csv": ["peak_rss_mb"],
}


def csv_text(path, drop):
    with open(path, newline="") as f:
        table = list(csv.reader(f))
    if not table:
        sys.exit(f"{path}: empty")
    header = table[0]
    missing = [c for c in drop if c not in header]
    if missing:
        sys.exit(f"{path}: no column {missing}")
    keep = [i for i, c in enumerate(header) if c not in drop]
    return "\n".join(",".join(row[i] for i in keep) for row in table)


def json_text(path, drop):
    # Numbers stay as printed, so a changed digit changes the digest.
    with open(path) as f:
        doc = json.load(f, parse_float=str, parse_int=str)
    if not isinstance(doc, dict):
        sys.exit(f"{path}: not a JSON object")
    missing = [k for k in drop if k not in doc]
    if missing:
        sys.exit(f"{path}: no key {missing}")
    return json.dumps({k: v for k, v in doc.items() if k not in drop}, sort_keys=True)


def digests(out_dir):
    found = {}
    for path in sorted(out_dir.iterdir()):
        read = {".csv": csv_text, ".json": json_text}.get(path.suffix)
        if read is None:
            continue
        text = read(path, VOLATILE.get(path.name, []))
        found[path.name] = hashlib.sha256(text.encode()).hexdigest()[:16]
    if not found:
        sys.exit(f"{out_dir}: no CSV or JSON files")
    return found


args = sys.argv[1:]
update = args[2:] == ["--update"]
if len(args) != 2 and not update:
    sys.exit(__doc__)
got = digests(Path(args[0]))
if update:
    Path(args[1]).write_text(json.dumps(got, indent=2) + "\n")
    print(f"recorded {len(got)} digests in {args[1]}")
    sys.exit()
with open(args[1]) as f:
    want = json.load(f)
failed = [f"{name}: digest {got[name]}, recorded {want[name]}"
          for name in sorted(got.keys() & want.keys()) if got[name] != want[name]]
failed += [f"{name}: recorded but not written" for name in sorted(want.keys() - got.keys())]
failed += [f"{name}: written but not recorded" for name in sorted(got.keys() - want.keys())]
if failed:
    sys.exit("\n".join([f"{args[0]} does not match {args[1]}:", *failed]))
print(f"{len(got)} files match {args[1]}")
