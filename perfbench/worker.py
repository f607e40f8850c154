"""Workload process: one fresh process per workload run.

Started by ``run.py``.  It imports the program from ``src/`` of the
current directory, builds the workload's seeded inputs and prints
``READY``; that line ends the set-up that ``run.py`` times.  With
``--setup-only`` it exits there.  Otherwise it runs whole groups of ops
untraced until ``--seconds`` have passed, checking each group's outputs
outside the timed region.  With ``--trace 1`` it then wraps the program's
public functions and runs one more group traced.  The last line of its
output is a JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def import_program():
    """Import smcf from ./src and nowhere else."""
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import smcf
    if not os.path.abspath(smcf.__file__).startswith(src + os.sep):
        raise ImportError(f"smcf imported from {smcf.__file__}, not {src}")
    import workloads
    return workloads


def run_groups(wl, workloads, reference, seconds: float, tracer=None):
    """Run whole groups while the next one is expected to end within
    ``seconds`` (at least one); with a tracer, run one group with tracing
    on.  Checks run outside the timed region."""
    times, attempted, failed, errors, summaries = [], 0, 0, [], []
    t_begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.op_id += 1
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            outputs = wl.run_group()
            ok = True
        except Exception:  # an op that raises counts as failed
            errors.append(traceback.format_exc(limit=3))
            ok = False
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
        if len(times) == 1:
            # later groups repeat the same work; their peak adds only what
            # the allocator kept from earlier groups, which grows with the
            # number of groups that fit the time
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted += wl.ops_per_group
        if ok:
            try:
                summaries = wl.check(outputs, reference)
            except workloads.CheckFailed as exc:
                errors.append(str(exc))
                ok = False
        if not ok:
            failed += wl.ops_per_group
        outputs = None  # free this group's outputs before the next one
        # stop before a group that would end past the time budget
        elapsed = time.perf_counter() - t_begin
        if tracer is not None or elapsed + elapsed / len(times) > seconds:
            break
    return {"group_s": times, "attempted": attempted, "failed": failed,
            "errors": errors, "summaries": summaries, "peak_rss_kib": peak_kib}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--tracedir", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workloads = import_program()
    wl = workloads.make(args.workload, args.seed, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    refs = workloads.load_references()
    reference = refs.get(args.workload, {}).get(str(wl.variant))
    if reference is None:
        print(f"no reference for {args.workload} variant {wl.variant}",
              file=sys.stderr)
        return 1
    untraced = run_groups(wl, workloads, reference, args.seconds)
    result = {"untraced": untraced, "ops_per_group": wl.ops_per_group}
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        traced = run_groups(wl, workloads, reference, 0.0, tracer)
        if args.workload == "run-2d" and not traced["failed"]:
            # counted from outside the program, from the file it wrote
            tracer.counts["cli.csv.rows"] += wl.csv_rows()
        result["traced"] = traced
        layers = spans.layer_metrics(tracer)
        med, tl, pct = spans.tail(untraced["group_s"])
        layers.update({
            "bench.group.p50_s": med, "bench.group.tail_s": tl,
            "bench.group.tail_pct": pct,
            "bench.group.n": float(len(untraced["group_s"])),
            "trace.overhead_pct": 100.0 * (traced["group_s"][0] / med - 1.0),
            "immersion.discrepancy": sum(
                s.get("discrepancy", 0.0) for s in traced["summaries"]),
        })
        result["layers"] = layers
        tracer.save(os.path.join(args.tracedir,
                                 f"{args.workload}-seed{args.seed}.npz"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
