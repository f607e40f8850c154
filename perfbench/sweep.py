"""Run the benchmark over several seeds and workloads; save a result set.

    python3 perfbench/sweep.py [--workload NAME ...] [--seeds 0-9]
                               [--trace] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one after another,
from the repository root.  It prints, per workload, every end-to-end
metric (or per-layer metric with ``--trace``) with its unit, median and
quartiles, and ``error_rate`` (failed ops / attempted ops).  The result
set, with each run's machine record, is written to ``--out`` (default
``.bench_build/results/<time>.json``) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(runs: list) -> dict:
    """{workload: {metric: {"unit", "values"}}}, with error_rate added."""
    out = {}
    for run in runs:
        res = run["result"]
        table = out.setdefault(run["workload"], {})
        if res is None:
            table.setdefault("error_rate", {"unit": "fraction", "values": []})[
                "values"].append(1.0)
            continue
        for name, m in res["metrics"].items():
            table.setdefault(name, {"unit": m["unit"], "values": []})[
                "values"].append(m["value"])
        table.setdefault("error_rate", {"unit": "fraction", "values": []})[
            "values"].append(res["failed"] / res["attempted"])
    return out


def print_table(summary: dict, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, table in summary.items():
        print(f"\n{workload}")
        print(f"  {'metric':40s} {'unit':>10s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'iqr/med':>8s} {'bound':>6s}  n")
        for name, m in table.items():
            q1, med, q3 = quartiles(m["values"])
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = f"{bounds[name]:.2f}" if name in bounds else ""
            print(f"  {name:40s} {m['unit']:>10s} {med:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread:8.3f} {bound:>6s}  {len(m['values'])}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="0-2")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out = args.out or os.path.join(
        ".bench_build", "results", time.strftime("%Y%m%d-%H%M%S") + ".json")
    runs = []
    for name in names:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", "1" if args.trace else "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            ok = proc.returncode == 0 and len(lines) >= 2
            run = {"workload": name, "seed": seed, "trace": args.trace,
                   "machine": json.loads(lines[-2])["machine"] if ok else None,
                   "result": json.loads(lines[-1]) if ok else None}
            runs.append(run)
            status = "ok" if ok and run["result"]["correct"] else "FAILED"
            print(f"{name} seed {seed}: {status}", file=sys.stderr, flush=True)
            if status != "ok":
                sys.stderr.write(proc.stderr[-2000:])
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"spec": spec, "runs": runs}, f, indent=1)
        f.write("\n")
    print_table(summarize(runs), spec)
    print(f"\nresult set: {out}")
    return 0 if all(r["result"] and r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
