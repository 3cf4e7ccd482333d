#!/usr/bin/env python3
"""Steadiness report for the netplace benchmark.

Runs each workload k times with seeds 1..k and prints, for every
end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median, using statistics.quantiles(values, n=4). A spread
over the metric's bound in BENCHMARK.json is flagged OVER, setup_s
included; a spread over a third of the bound is flagged WIDE. A run with
fewer than 10 samples beyond its tail percentile is flagged THIN, since
its tail_ms is then close to the maximum. The exit code is 1 if anything
is OVER or THIN.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads whatif-sweep

Run from the repository root; it calls perfbench/run.sh for every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

MIN_TAIL_BEYOND = 10


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    res = json.loads(lines[-1])
    meta = {}
    if len(lines) > 1:
        meta = json.loads(lines[-2]).get("meta", {})
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed: {meta.get('check_error')}")
    meta["wall_s"] = wall
    return res, meta


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    failed = False
    for wl in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            res, meta = run_once(wl, seed, seconds)
            runs.append((res, meta))
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
            thin = ""
            if meta.get("tail_beyond", 0) < MIN_TAIL_BEYOND:
                thin, failed = " THIN", True
            print(f"{wl} seed {seed}: {vals} steal={meta.get('steal_frac', 0):.3f} "
                  f"samples={meta.get('samples')} beyond={meta.get('tail_beyond')}{thin} "
                  f"wall={meta['wall_s']:.1f}s", flush=True)
        print(f"\n{wl}: {args.runs} runs x {seconds} s")
        print(f"  {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, spec in bounds.items():
            vals = [r["metrics"][name]["value"] for r, _ in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if spread > spec["bound"]:
                flag, failed = "OVER", True
            elif spread > spec["bound"] / 3:
                flag = "WIDE"
            print(f"  {name:22} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {spec['bound']:6.2f} {flag}")
        steal = [m.get("steal_frac", 0) for _, m in runs]
        print(f"  host steal over the runs: median {statistics.median(steal):.3f}, max {max(steal):.3f}\n", flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
