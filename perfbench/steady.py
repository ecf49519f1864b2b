#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload of BENCHMARK.json N times, interleaved (w1 w2 w3 w1 w2
w3 ...), each run with its own seed, and prints for every end-to-end metric
its median, first and third quartiles (statistics.quantiles, n=4) and the
quartile spread as a share of the median next to the metric's bound. With
--sets 2 it repeats the whole interleaved set with the same seeds and also
compares the two medians, as a regression gate would.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workloads a,b]
                                [--seconds S] [--seed0 N] [--out FILE]

Run it from the root of a checkout. Bounds are set from its output: every
spread, setup_s too, must sit inside its bound, ideally below a third of
it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
            print(f"  {workload} seed {seed}: wall {prov['wall_s']:.1f}s "
                  f"steal {prov['host_steal_s']:.2f}s", file=sys.stderr)
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out", default="", help="write every result as JSON here")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = [n for n in a.workloads.split(",") if n]
    metrics = bench["end_to_end"]

    results = {}  # (set, workload) -> list of results
    for s in range(a.sets):
        for i in range(a.runs):
            for w in names:
                r = run_once(bench["command"], w, a.seed0 + i, seconds)
                results.setdefault((s, w), []).append(r)
    if a.out:
        with open(a.out, "w") as f:
            json.dump({f"{s}/{w}": rs for (s, w), rs in results.items()}, f)

    ok = True
    for w in names:
        print(f"\n{w}")
        shares = []
        for s in range(a.sets):
            rs = results[(s, w)]
            if not all(r["correct"] for r in rs):
                ok = False
                print(f"  set {s}: a run reported correct=false")
            shares.append(sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs))
        print(f"  failed share per set: {shares}")
        if len(set(shares)) > 1:
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for s in range(a.sets):
                vals = [r["metrics"][name]["value"] for r in results[(s, w)]]
                q1, q2, q3, spread = summarize(vals)
                meds.append(q2)
                flag = ""
                if spread > bound:
                    flag, ok = "  OVER BOUND", False
                elif spread > bound / 3:
                    flag = "  above a third of the bound"
                print(f"  set {s} {name:22s} median {q2:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                      f"spread {spread:6.3f} bound {bound:.3f} ({spread / bound:5.2f} of it){flag}")
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                flag = ""
                if worse > bound:
                    flag, ok = "  WORSE THAN BOUND", False
                print(f"        {name:22s} second median worse by {worse:+.3f} (bound {bound:.3f}){flag}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
