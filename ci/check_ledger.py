#!/usr/bin/env python3
"""Benchmark ledger check: `dev/bench/data.js` parses and every row is whole.

The ledger keeps one entry per change that claimed a benchmark gain, in
the `window.BENCHMARK_DATA = {...}` layout of github-action-benchmark's
`dev/bench/data.js`. An entry names its commit (`id`, or `null` for the
newest entry, whose commit is the one that adds it), the commit it was
measured against (`parent`) and the commit message; each of its
`benches` rows names the workload, the metric and its unit as
`BENCHMARK.json` declares them, the seed, the parent's and the change's
medians (`parent`, `value`), the interleaved pair count and the pairs
the change won.

Usage: python3 ci/check_ledger.py [--root .]
"""

import argparse
import json
import re
import sys
from pathlib import Path

PREFIX = "window.BENCHMARK_DATA = "
SHA_RE = re.compile(r"^[0-9a-f]{40}$")


def load(path: Path):
    text = path.read_text().strip()
    if not text.startswith(PREFIX):
        raise ValueError(f"{path} does not start with {PREFIX!r}")
    return json.loads(text[len(PREFIX):].rstrip(";"))


def check(ledger, bench):
    workloads = {w["name"] for w in bench["workloads"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    errors = []
    if not isinstance(ledger.get("lastUpdate"), int):
        errors.append("lastUpdate is not an integer")
    series = ledger.get("entries")
    if not isinstance(series, dict) or not series:
        return errors + ["entries is not a non-empty object"]
    for name, entries in series.items():
        if not isinstance(entries, list) or not entries:
            errors.append(f"{name}: no entries")
            continue
        for n, entry in enumerate(entries):
            at = f"{name}[{n}]"
            commit = entry.get("commit", {})
            newest = n == len(entries) - 1
            if not (SHA_RE.match(str(commit.get("id"))) or (newest and commit.get("id") is None)):
                errors.append(f"{at}: commit id {commit.get('id')!r} is not a full sha")
            if not SHA_RE.match(str(commit.get("parent"))):
                errors.append(f"{at}: parent {commit.get('parent')!r} is not a full sha")
            if not isinstance(commit.get("message"), str) or not commit["message"]:
                errors.append(f"{at}: no commit message")
            if not isinstance(entry.get("date"), int):
                errors.append(f"{at}: date is not an integer")
            rows = entry.get("benches")
            if not isinstance(rows, list) or not rows:
                errors.append(f"{at}: no benches")
                continue
            for row in rows:
                errors += check_row(f"{at} {row.get('name')!r}", row, workloads, units)
    return errors


def check_row(at, row, workloads, units):
    errors = []
    workload, metric, seed = row.get("workload"), row.get("metric"), row.get("seed")
    if workload not in workloads:
        errors.append(f"{at}: unknown workload {workload!r}")
    if metric not in units:
        errors.append(f"{at}: unknown metric {metric!r}")
    elif row.get("unit") != units[metric]:
        errors.append(f"{at}: unit {row.get('unit')!r}, BENCHMARK.json says {units[metric]!r}")
    if not isinstance(seed, int) or seed < 1:
        errors.append(f"{at}: seed {seed!r} is not a positive integer")
    if row.get("name") != f"{workload} {metric} seed {seed}":
        errors.append(f"{at}: name is not '<workload> <metric> seed <seed>'")
    for median in ("parent", "value"):
        value = row.get(median)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            errors.append(f"{at}: {median} {value!r} is not a positive number")
    pairs, wins = row.get("pairs"), row.get("wins")
    if not isinstance(pairs, int) or pairs < 1:
        errors.append(f"{at}: pairs {pairs!r} is not a positive integer")
    elif not isinstance(wins, int) or not 0 <= wins <= pairs:
        errors.append(f"{at}: wins {wins!r} is not within 0..={pairs}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", type=Path)
    root = parser.parse_args().root
    bench = json.loads((root / "BENCHMARK.json").read_text())
    try:
        ledger = load(root / "dev" / "bench" / "data.js")
    except (OSError, ValueError) as err:
        print(f"ledger: {err}", file=sys.stderr)
        return 1
    errors = check(ledger, bench)
    for error in errors:
        print(f"ledger: {error}", file=sys.stderr)
    if errors:
        return 1
    rows = sum(len(e["benches"]) for entries in ledger["entries"].values() for e in entries)
    print(f"ledger: {rows} rows ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
