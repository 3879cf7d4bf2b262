#!/usr/bin/env python3
"""A/A check of the benchmark, the way the driver judges it.

Runs the command in BENCHMARK.json on every workload, two sets of N runs
each, every run with another seed. Sets and workloads are interleaved
round-robin so slow phases of the machine are shared between them. For each
end-to-end metric and workload it prints both sets' median, the spread
(distance between the first and third quartile as a share of the median, by
statistics.quantiles(values, n=4)), how much worse the second median is than
the first, and a proposed bound max(floor, 3 x the larger spread).

    python3 e2ebench/aa.py [--runs 10] [--workload NAME ...] [--trace] > NOISE.md

Run it from the repo root. Progress goes to stderr, the report to stdout.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

FLOOR = 0.02


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workload", action="append", help="only these workloads")
    ap.add_argument("--trace", action="store_true", help="judge the per-layer metrics instead")
    ap.add_argument("--raw", help="also write every run's values to this JSON file")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload:
        workloads = [w for w in workloads if w in args.workload]
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    # values[set][workload][metric] -> list
    values = [{w: {} for w in workloads} for _ in range(2)]
    walls = []
    for r in range(args.runs):
        for s in range(2):
            for w in workloads:
                seed = 1 + r + s * args.runs
                got, wall = run_once(spec, w, seed, args.trace)
                walls.append(wall)
                for name, v in got.items():
                    values[s][w].setdefault(name, []).append(v)
                print(f"set {'AB'[s]} run {r + 1}/{args.runs} {w} seed {seed}: {wall:.1f} s",
                      file=sys.stderr)

    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(values, f)

    print(f"A/A: 2 sets x {args.runs} runs x {len(workloads)} workloads, "
          f"run_seconds {spec['run_seconds']}, process wall median "
          f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s, total {sum(walls):.0f} s\n")
    print("| workload | metric | median A | spread A | median B | spread B | B worse by | bound | proposed |")
    print("|---|---|---|---|---|---|---|---|---|")
    verdict = True
    for w in workloads:
        for m in metrics:
            a, b = values[0][w][m["name"]], values[1][w][m["name"]]
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb = spread(a), spread(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            proposed = max(FLOOR, 3 * max(sa, sb))
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                over = worse > bound or (m["name"] != "setup_s" and max(sa, sb) > bound)
                verdict &= not over
                flag = " **over**" if over else ""
            print(f"| {w} | {m['name']} | {ma:.4f} | {sa:.2%} | {mb:.4f} | {sb:.2%} | "
                  f"{worse:+.2%} | {bound if bound is not None else '-'}{flag} | {proposed:.3f} |")
    print(f"\nverdict: {'every spread and median shift is within its bound' if verdict else 'OVER a bound'}")


if __name__ == "__main__":
    main()
