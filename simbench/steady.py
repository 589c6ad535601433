#!/usr/bin/env python3
"""Steadiness command: runs the benchmark in sets and reports the spread.

    python3 simbench/steady.py [--seeds 10] [--sets 2] [--seconds N]

Run it from the root of the repository. It runs the command in
``BENCHMARK.json`` with ``--trace 0`` on every workload, once per set and
seed, with seeds 1, 2, ... (each run gets its own seed, as each run of a
harness that passes ``--seed`` would). ``--seconds`` defaults to the
file's ``run_seconds``. The sets alternate which goes first from one seed
to the next (set A then B for the first seed, B then A for the second,
...), so a drift of the machine falls on both sets alike. For every
workload, set and end-to-end metric it prints the median, the quartiles
(Python's ``statistics.quantiles(values, n=4)``), the spread -- the
distance between the quartiles as a share of the median -- and how far
the medians of the sets lie apart. Against the bounds in
``BENCHMARK.json`` it marks a spread above a third of the bound
(``wide``) or above the bound (``OVER``), a median shift above the bound
(``SHIFT``), and a failed share that differs between sets (``FAILED``).
The bounds are set from this output. It exits with 1 if any run fails its
checks or any metric is ``OVER``, ``SHIFT`` or ``FAILED``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    out = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, time.monotonic() - started


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    opts = ap.parse_args()

    cmd = bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    # results[workload][set] = list of result objects
    results = {w: [[] for _ in range(opts.sets)] for w in workloads}
    for i, seed in enumerate(range(1, opts.seeds + 1)):
        order = list(range(opts.sets))
        if i % 2 == 1:
            order.reverse()
        for w in workloads:
            for s in order:
                r, wall = run_once(cmd, w, seed, opts.seconds)
                results[w][s].append(r)
                print(f"# {w} seed {seed} set {s}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} wall={wall:.1f}s",
                      file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print(f"\n== {w}")
        sets = results[w]
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in sets]
        if not all(r["correct"] for rs in sets for r in rs):
            print("  INCORRECT: a run failed its checks")
            ok = False
        if len(set(shares)) > 1:
            print(f"  FAILED: failed shares differ between sets: {shares}")
            ok = False
        for name, bound in bounds.items():
            per_set = [summarize([r["metrics"][name]["value"] for r in rs]) for rs in sets]
            unit = sets[0][0]["metrics"][name]["unit"]
            meds = [p[0] for p in per_set]
            shift = (max(meds) - min(meds)) / min(meds)
            flags = set()
            for _, _, _, spread in per_set:
                if spread > bound:
                    flags.add("OVER")
                elif spread > bound / 3:
                    flags.add("wide")
            if shift > bound:
                flags.add("SHIFT")
            if flags & {"OVER", "SHIFT"}:
                ok = False
            cells = "  ".join(f"med {m:.6g} q[{q1:.6g},{q3:.6g}] spread {sp:.4f}"
                              for m, q1, q3, sp in per_set)
            print(f"  {name:<16} {unit:<6} {cells}  shift {shift:.4f} "
                  f"bound {bound} {' '.join(sorted(flags))}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
