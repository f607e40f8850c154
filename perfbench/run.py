"""smcf benchmark: one workload run, from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/README.md): ``run-2d``,
``elliptic-3d``, ``oracle-2d``.  The program is imported from ``src/``
in fresh worker processes with BLAS/OpenMP threads pinned to one.

Set-up is timed ``SETUP_SAMPLES`` times in set-up-only processes and once
more in the measuring process, from process start to the worker's
``READY`` line; ``setup_s`` is the median.  The measuring process then
runs groups of ops for ``--seconds`` and checks each group's outputs.
With ``--trace 1`` it also runs one group traced and the per-layer
metrics are reported instead of the end-to-end ones.

Output: one line of machine information, then, as the last line, the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  Exit code
0 when a result was printed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
BUILD = ".bench_build"
SETUP_SAMPLES = 8
DEADLINE_S = 170.0
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False).stdout.strip()
    except OSError:
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        **versions,
        "thread_pins": THREAD_PINS,
        "git_sha": sha or "unknown",
    }


def start_worker(args, extra: list, deadline: float):
    """Start a worker; returns (seconds until READY, rest of stdout)."""
    env = dict(os.environ, **THREAD_PINS)
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", args.workdir] + extra
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or code != 0:
        raise BenchError(f"worker failed (exit code {code})")
    return ready, rest


def measure(args) -> tuple:
    deadline = time.monotonic() + DEADLINE_S
    setup = [start_worker(args, ["--setup-only"], deadline)[0]
             for _ in range(SETUP_SAMPLES)]
    ready, out = start_worker(
        args, ["--tracedir", os.path.join(BUILD, "traces")], deadline)
    setup.append(ready)
    res = json.loads(out.strip().splitlines()[-1])
    runs = [res["untraced"]] + ([res["traced"]] if args.trace else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for err in r["errors"]:
            print(err, file=sys.stderr)
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "ops_per_s": res["untraced"]["attempted"]
            / sum(res["untraced"]["group_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["untraced"]["peak_rss_kib"] / 1024.0,
        }
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not os.path.isfile(os.path.join("src", "smcf", "__init__.py")):
            raise BenchError("no program under src/smcf in this directory")
        args.workdir = os.path.join(
            BUILD, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
        try:
            attempted, failed, values = measure(args)
        finally:
            shutil.rmtree(args.workdir, ignore_errors=True)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"machine": machine()}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
