#!/usr/bin/env python3
"""Steadiness check for perfbench.

Runs one or more workloads once per seed and reports for every
end-to-end metric its median and the distance
between the first and third quartile as a share of the median (Python's
statistics.quantiles(values, n=4)). A spread above a third of the
metric's bound in BENCHMARK.json is flagged; a spread above the bound
fails the check.

It also checks the simulated-statistics ledger every run prints on
standard error: the golden-seed counts must be identical on every run of
a workload, the seeded counts identical for runs with the same seed, and
lmbench_err_pct identical everywhere. Any difference fails the check. Pass
--repeat to rerun the first seed of each workload and compare its ledger.

Run from the root of a checkout:

    python3 _perfbench/steady.py --workloads study-cold,rerun-warm --seeds 1-10 --repeat
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = ["bash", "_perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ledgers = [json.loads(m.group(1)) for m in re.finditer(r"^ledger: (.*)$", proc.stderr, re.M)]
    if len(ledgers) != 1:
        raise SystemExit(f"{workload} seed {seed}: expected one ledger line, got {len(ledgers)}")
    host = re.search(r"^host: reference kernel ([\d.]+) ms at start, ([\d.]+) ms at end$", proc.stderr, re.M)
    return result, ledgers[0], host.group(1) + "/" + host.group(2) if host else "?"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="study-cold,rerun-warm,fleet-rehome")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--repeat", action="store_true", help="rerun the first seed to compare its ledger")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        golden, seeded, lmbench = None, {}, set()
        seeds = list(args.seeds) + (args.seeds[:1] if args.repeat else [])
        for seed in seeds:
            result, ledger, host_ref = run_once(workload, seed, seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: result not correct: {result}")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            lmbench.add(ledger["lmbench_err_pct"])
            g = ledger.get("golden")
            if g is not None:
                if golden is not None and g != golden:
                    print(f"{workload} seed {seed}: golden ledger differs from an earlier run")
                    ok = False
                golden = g
            if seed in seeded and seeded[seed] != ledger["seeded"]:
                print(f"{workload} seed {seed}: seeded ledger differs between runs of the same seed")
                ok = False
            seeded[seed] = ledger["seeded"]
            line = " ".join(f"{n}={v['value']:.6g}" for n, v in sorted(result["metrics"].items()))
            print(f"{workload} seed {seed}: host_ref_ms={host_ref} {line}", flush=True)
        if len(lmbench) != 1:
            print(f"{workload}: lmbench_err_pct differs between runs: {sorted(lmbench)}")
            ok = False
        for name in sorted(values):
            vs = values[name]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  <-- above the bound"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"{workload:13s} {name:16s} median {med:12.6g}  IQR/median {spread:7.4f}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    sys.exit(main())
