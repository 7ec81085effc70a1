#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark.

Runs each workload (or the ones named) with the command and run length
from BENCHMARK.json, in two or more sets whose runs alternate, so a
change in the host's speed hits every set alike. For each end-to-end
metric and set it prints the median over the set's runs and the spread:
the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. It then
checks each later set's median against the first set's.

    python3 perfbench/steady.py --repeat 10          # the default seed, 10 runs a set
    python3 perfbench/steady.py --seeds 1-10         # one run per seed a set
    python3 perfbench/steady.py --seeds 1-10 --out a.json
    python3 perfbench/steady.py --seeds 1-10 --compare a.json

A spread above a third of the metric's bound is marked WIDE, one above
the bound OVER, and a median worse than the first set's (or the
`--compare` file's) by more than the bound WORSE. With several seeds,
each seed's host metrics are also compared with the default seed's, and
every run must print exactly the metrics BENCHMARK.json lists. The exit
code is 1 when anything is OVER, WORSE or missing. Run from the
repository root; results are written only where `--out` says.
"""

import argparse
import json
import statistics
import subprocess
import sys

DEFAULT_SEED = 1


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: outputs not correct: {result}")
    names = {m["name"] for m in spec["end_to_end"]}
    if set(result["metrics"]) != names:
        sys.exit(f"{workload} seed {seed}: metric set differs from BENCHMARK.json")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    """Interquartile range over the median, as the acceptance check takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(metric, new, old):
    """Share by which `new` is worse than `old` (negative when better)."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if metric["better"] == "lower" else -change


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group()
    group.add_argument("--seeds", type=parse_seeds, help="a seed or a range, as 1-10")
    group.add_argument("--repeat", type=int, help="runs a set of the default seed")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()
    seeds = args.seeds or [DEFAULT_SEED] * (args.repeat or 10)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    # runs[workload][set] lists one metrics dict per seed, in seed order.
    runs, ok = {}, True
    for workload in names:
        sets = [[] for _ in range(args.sets)]
        for i, seed in enumerate(seeds):
            order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
            for k in order:
                sets[k].append(run_once(spec, workload, seed))
        runs[workload] = sets
        print(f"{workload}: {args.sets} alternating sets of {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for k, runs_k in enumerate(sets):
                values = [r[name] for r in runs_k]
                med, sp = statistics.median(values), spread(values)
                medians.append(med)
                line = f"  {name:24} set {k}  median {med:<14.6g} spread {sp:7.4f} (bound {bound}, third {bound / 3:.4f})"
                if sp > bound:
                    line, ok = line + "  OVER", False
                elif sp > bound / 3:
                    line += "  WIDE"
                if k > 0:
                    worse = worse_by(m, med, medians[0])
                    line += f"  vs set 0 {worse:+.4f}"
                    if worse > bound:
                        line, ok = line + "  WORSE", False
                if workload in earlier:
                    old = statistics.median([r[name] for r in earlier[workload][k]])
                    worse = worse_by(m, med, old)
                    line += f"  vs earlier {worse:+.4f}"
                    if worse > bound:
                        line, ok = line + "  WORSE", False
                print(line)
        distinct = sorted(set(seeds))
        if DEFAULT_SEED in distinct and len(distinct) > 1:
            # Held-out seeds: each seed's mean over the sets against the
            # default seed's, for the host metrics (simulated ones differ
            # by input, as they should).
            def mean_of(seed, name):
                vals = [s[i][name] for s in sets for i, x in enumerate(seeds) if x == seed]
                return statistics.fmean(vals)
            for m in metrics:
                if m["name"].startswith("sim_"):
                    continue
                base = mean_of(DEFAULT_SEED, m["name"])
                worst = max(abs(worse_by(m, mean_of(s, m["name"]), base)) for s in distinct)
                flag = "" if worst <= m["bound"] else "  OVER"
                print(f"  {m['name']:24} held-out seeds vs seed {DEFAULT_SEED}: largest change {worst:.4f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
