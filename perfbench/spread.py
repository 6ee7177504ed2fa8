#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median and spread (interquartile range over median, quartiles as
`statistics.quantiles(values, n=4)` gives them) against its bound in
BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--out runs.json] [workload ...]

Run from the repository root. With --out, every run's result line is saved
as JSON so two sets can be compared with --compare A.json B.json (the
second median may not be worse than the first by more than the bound).
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def report(spec, runs):
    ok = True
    for workload, results in runs.items():
        bad = [r for r in results if not r["correct"]]
        print(f"{workload}: {len(results)} runs, {len(bad)} incorrect")
        ok &= not bad
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, s = spread(values)
            flag = ("  <-- ABOVE BOUND" if s > m["bound"]
                    else "  <-- above bound/3" if s > m["bound"] / 3 else "")
            print(f"  {m['name']:<14} median {med:12.5f} {m['unit']:<5} spread {s:6.3f}"
                  f" (bound {m['bound']}){flag}")
    return ok


def compare(spec, a, b):
    ok = True
    for workload in a:
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a[workload]]
            vb = [r["metrics"][m["name"]]["value"] for r in b.get(workload, [])]
            if not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok &= verdict == "ok"
            print(f"{workload:<13} {m['name']:<14} {ma:12.5f} -> {mb:12.5f}"
                  f" ({worse:+.3f} vs bound {m['bound']}) {verdict}")
    return ok


def main():
    p = argparse.ArgumentParser()
    p.add_argument("workloads", nargs="*")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2)
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(spec, *sets) else 1)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    runs = {}
    for w in names:
        runs[w] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs[w].append(run_once(spec, w, seed))
            print(f"  {w} seed {seed} done", file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f)
    sys.exit(0 if report(spec, runs) else 1)


if __name__ == "__main__":
    main()
