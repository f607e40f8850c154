"""Record the reference summary values of every workload variant.

Run from the repository root:

    python3 perfbench/record_refs.py

It runs one group of each variant, checks it against the absolute
acceptance bounds, and writes its summary values (and the group's wall
time, for reading off how even the variants' costs are) to
``perfbench/references.json``.  Re-record only when a change is meant to
alter the program's numerics, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)
    import workloads

    refs = {"group_s": {}}
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, check=False).stdout.strip() or "unknown"
    refs["recorded_at"] = sha
    workdir = os.path.join(".bench_build", "record_refs")
    for name in workloads.WORKLOADS:
        refs[name] = {}
        refs["group_s"][name] = {}
        for variant in range(workloads.VARIANTS):
            wl = workloads.make(name, variant, workdir)
            t0 = time.perf_counter()
            outputs = wl.run_group()
            elapsed = time.perf_counter() - t0
            refs[name][str(variant)] = wl.check(outputs, None)
            refs["group_s"][name][str(variant)] = round(elapsed, 3)
            print(f"{name} variant {variant}: {elapsed:.2f} s", flush=True)
        with open(workloads.REFERENCES, "w", encoding="utf-8") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
