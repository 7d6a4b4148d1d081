#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes each metric.

Run from the root of the repository:

    python3 ddsbench/spread.py --seeds 1-10 --seconds 25 [--trace 0|1] [--workload NAME] [--out FILE]

For every workload and metric it prints the median over the seeds and the
spread: the distance between the first and third quartile as a share of the
median. End-to-end metrics are checked against a third of their bound in
BENCHMARK.json. With --out the summary and every run's result are written as
JSON (the per-commit point of the benchmark's trajectory).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    here = os.path.dirname(os.path.abspath(__file__))

    runs, summary, ok = {}, {}, True
    for wl in workloads:
        for seed in seeds_of(args.seeds):
            t0 = time.time()
            proc = subprocess.run([sys.executable, os.path.join(here, "run.py"), "--workload", wl,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit("%s seed %d failed with exit code %d" % (wl, seed, proc.returncode))
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            result["wall_s"] = round(time.time() - t0, 1)
            result["provenance"] = next((json.loads(l.split(" ", 1)[1]) for l in lines
                                         if l.startswith("provenance ")), None)
            runs.setdefault(wl, {})[seed] = result
            print("%s seed %d: %.0f s, correct=%s" % (wl, seed, result["wall_s"], result["correct"]),
                  flush=True)
        for name in runs[wl][seeds_of(args.seeds)[0]]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[wl].values()]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            limit = bounds.get(name, 0) / 3 if name != "setup_s" else None
            flag = "" if not limit else ("  ok (< %.3f)" % limit if spread < limit else "  TOO WIDE (>= %.3f)" % limit)
            ok = ok and not flag.startswith("  TOO")
            summary.setdefault(wl, {})[name] = {"median": med, "spread": spread}
            print("  %-28s median %14.6g  spread %.4f%s" % (name, med, spread, flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "trace": args.trace, "summary": summary, "runs": runs}, f,
                      indent=1, sort_keys=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
