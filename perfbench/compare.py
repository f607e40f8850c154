"""Compare two result sets written by ``sweep.py``.

    python3 perfbench/compare.py BASE.json CHANGE.json

For every workload and metric present in both sets it prints the median
and quartiles of each side and the change of the medians.  End-to-end
metrics carry a verdict against the bound in BENCHMARK.json:

* ``WORSE``      the change's median is worse than the base's by more
                 than the bound;
* ``unresolved`` either side's spread (quartile distance over median)
                 exceeds the bound, unless every run of the change is
                 better than every run of the base;
* ``better``     the medians differ, in the good direction, by more than
                 the base's quartile distance;
* ``same``       otherwise.

Per-layer metrics have no bound and are printed without a verdict.  The
exit code is 1 if any verdict is ``WORSE``.
"""

from __future__ import annotations

import json
import sys

from sweep import quartiles, summarize


def verdict(base: list, change: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    if bmed == 0:
        return "same" if cmed == 0 else "unresolved"
    worse_by = sign * (bmed - cmed) / abs(bmed)
    if worse_by > bound:
        return "WORSE"
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    spread = max((b3 - b1) / abs(bmed), (c3 - c1) / abs(cmed) if cmed else 0.0)
    if spread > bound and not all_better:
        return "unresolved"
    if -worse_by * abs(bmed) > (b3 - b1):
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = []
    for path in argv:
        with open(path, encoding="utf-8") as f:
            sets.append(json.load(f))
    spec = sets[1]["spec"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    base, change = (summarize(s["runs"]) for s in sets)
    worse = False
    for workload in change:
        if workload not in base:
            continue
        print(f"\n{workload}")
        print(f"  {'metric':40s} {'unit':>10s} {'base median [q1, q3]':>36s} "
              f"{'change median [q1, q3]':>36s} {'delta':>8s}  verdict")
        for name, cm in change[workload].items():
            bm = base[workload].get(name)
            if bm is None:
                continue
            b1, bmed, b3 = quartiles(bm["values"])
            c1, cmed, c3 = quartiles(cm["values"])
            delta = f"{100.0 * (cmed - bmed) / abs(bmed):+7.1f}%" if bmed else ""
            if name in e2e:
                v = verdict(bm["values"], cm["values"], e2e[name]["better"],
                            e2e[name]["bound"])
                worse |= v == "WORSE"
            elif name in layers or name == "error_rate":
                v = ""
            else:
                continue
            print(f"  {name:40s} {cm['unit']:>10s} "
                  f"{bmed:12.5g} [{b1:10.4g}, {b3:10.4g}] "
                  f"{cmed:12.5g} [{c1:10.4g}, {c3:10.4g}] {delta:>8s}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
