"""Span recorder for the traced pass, and the per-layer metrics derived
from its spans.

``install`` wraps public functions of the smcf modules from outside: each
wrapped function is replaced in every ``smcf.*`` namespace that binds
it, and methods are wrapped on their class.  A span records its name,
start, end, parent span and op id, in flat arrays kept in memory; the
arrays are written out by ``Tracer.save`` when the pass ends.  Nothing
is wrapped unless ``install`` is called, so the untraced pass runs the
program as shipped.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# monitors run by `smcf run` and `evolve` after each step
MONITORS = ("geometry.energy", "geometry.intrinsic_norm",
            "gauge_elliptic.constraint_report", "evolution.g_tensor",
            "evolution.strichartz_entries")


def _fft_bytes(counts, args, kwargs, result):
    counts["spectral.fft.bytes"] += np.asarray(args[1]).nbytes


def _point_modes(counts, args, kwargs, result):
    grid, f, points = args[0], np.asarray(args[1]), args[2]
    lead = math.prod(f.shape[: f.ndim - grid.d])
    counts["geometry.trig_interp.point_modes"] += (
        points.shape[1] * grid.n ** grid.d * lead)


def _outer_iterations(counts, args, kwargs, result):
    counts["gauge_elliptic.outer_iterations"] += (
        result.diagnostics["outer_iterations"])


def _checkpoint_bytes(counts, args, kwargs, result):
    counts["cli.checkpoint.bytes"] += os.path.getsize(args[0])


# (module, attribute or Class.method, span name, counter)
TARGETS = (
    ("smcf.spectral", "Grid.fft", "spectral.fft", _fft_bytes),
    ("smcf.spectral", "Grid.ifft", "spectral.fft", _fft_bytes),
    ("smcf.spectral", "gradient", "spectral.gradient", None),
    ("smcf.spectral", "inverse_laplacian", "spectral.inverse_laplacian", None),
    ("smcf.geometry", "MetricField.__init__", "geometry.MetricField", None),
    ("smcf.geometry", "covariant_derivative", "geometry.covariant_derivative",
     None),
    ("smcf.geometry", "trig_interp", "geometry.trig_interp", _point_modes),
    ("smcf.geometry", "harmonic_coordinate_fix",
     "geometry.harmonic_coordinate_fix", None),
    ("smcf.geometry", "constraint_residuals", "geometry.constraint_residuals",
     None),
    ("smcf.geometry", "energy", "geometry.energy", None),
    ("smcf.geometry", "intrinsic_norm", "geometry.intrinsic_norm", None),
    ("smcf.gauge_elliptic", "solve_elliptic_system", "gauge_elliptic.solve",
     _outer_iterations),
    ("smcf.gauge_elliptic", "recover_lambda", "gauge_elliptic.recover_lambda",
     None),
    ("smcf.gauge_elliptic", "solve_metric", "gauge_elliptic.solve_metric", None),
    ("smcf.gauge_elliptic", "solve_VAB", "gauge_elliptic.solve_VAB", None),
    ("smcf.gauge_elliptic", "GaugeState.constraint_report",
     "gauge_elliptic.constraint_report", None),
    ("smcf.evolution", "step", "evolution.step", None),
    ("smcf.evolution", "g_tensor", "evolution.g_tensor", None),
    ("smcf.evolution", "strichartz_entries", "evolution.strichartz_entries",
     None),
    ("smcf.immersion", "immersion_from_psi", "immersion.construction", None),
    ("smcf.immersion", "smcf_step", "immersion.smcf_step", None),
    ("smcf.immersion", "align_extracted", "immersion.align_extracted", None),
    ("smcf.norms", "wsp_norm", "norms.wsp_norm", None),
    ("smcf.cli", "save_checkpoint", "cli.save_checkpoint", _checkpoint_bytes),
    ("smcf.cli", "spatial_row", "cli.spatial_row", None),
)


class Tracer:
    """In-memory span store.  Span ``i`` has name id ``name[i]``, parent
    span index ``parent[i]`` (-1 at top level), op id ``op[i]``, times
    ``start[i]``/``end[i]`` and ``ancestors[i]``, the bit set of the name
    ids of every enclosing span."""

    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.ancestors = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(float)
        self.stack = [(-1, 0)]
        self.op_id = -1
        self.enabled = False

    def name_id(self, name: str) -> int:
        if name not in self.names:
            if len(self.names) >= 63:
                raise ValueError("at most 63 span names fit the ancestor mask")
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, counter=None):
        nid = self.name_id(name)
        bit = 1 << nid
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            parent, mask = tracer.stack[-1]
            tracer.name.append(nid)
            tracer.parent.append(parent)
            tracer.op.append(tracer.op_id)
            tracer.ancestors.append(mask)
            tracer.stack.append((idx, mask | bit))
            t0 = time.perf_counter()
            tracer.start.append(t0)
            tracer.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.stack.pop()
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "ancestors": np.frombuffer(self.ancestors, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def install(tracer: Tracer) -> None:
    """Wrap every target in every smcf namespace that binds it."""
    modules = [m for k, m in sys.modules.items()
               if (k == "smcf" or k.startswith("smcf.")) and m is not None]
    for modname, attr, name, counter in TARGETS:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], name, counter))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(orig, name, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)


def tail(samples) -> tuple:
    """(median, tail value, tail percentile): the tail is the highest
    integer percentile with at least ten samples above it; with ten
    samples or fewer there is none, and the maximum is reported as
    percentile 100."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        return 0.0, 0.0, 0.0
    med = float(np.median(xs))
    if n <= 10:
        return med, float(xs[-1]), 100.0
    pct = math.floor(100.0 * (n - 10) / n)
    return med, float(np.percentile(xs, pct)), float(pct)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals of one traced pass."""
    a = tracer.arrays()
    n = a["name"].size
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=n)
    self_t = dur - child

    def ids(*names):
        return [tracer.names.index(x) for x in names if x in tracer.names]

    def mask(*names):
        return sum(1 << i for i in ids(*names))

    def select(*names, outside=()):
        sel = np.isin(a["name"], ids(*names))
        if outside:
            sel &= (a["ancestors"] & mask(*outside)) == 0
        return sel

    def calls(name):
        return float(np.count_nonzero(select(name)))

    def total(name):  # outermost spans only, so recursion is not doubled
        return float(dur[select(name, outside=(name,))].sum())

    def self_s(name):
        return float(self_t[select(name)].sum())

    m = {}
    for name in ("spectral.fft", "spectral.gradient", "geometry.MetricField",
                 "geometry.covariant_derivative", "geometry.trig_interp",
                 "gauge_elliptic.solve", "evolution.step",
                 "immersion.smcf_step", "immersion.align_extracted",
                 "norms.wsp_norm", "cli.save_checkpoint"):
        m[f"{name}.calls"] = calls(name)
    for name in ("spectral.fft", "spectral.gradient",
                 "spectral.inverse_laplacian", "geometry.MetricField",
                 "geometry.covariant_derivative", "geometry.trig_interp",
                 "geometry.constraint_residuals", "evolution.step",
                 "norms.wsp_norm"):
        m[f"{name}.self_s"] = self_s(name)
    for name in ("geometry.harmonic_coordinate_fix", "gauge_elliptic.solve",
                 "gauge_elliptic.recover_lambda", "gauge_elliptic.solve_metric",
                 "gauge_elliptic.solve_VAB", "immersion.smcf_step",
                 "immersion.construction", "immersion.align_extracted",
                 "cli.save_checkpoint", "cli.spatial_row"):
        m[f"{name}.s"] = total(name)
    for name in ("gauge_elliptic.solve", "evolution.step"):
        med, tl, pct = tail(dur[select(name)])
        m[f"{name}.p50_s"] = med
        m[f"{name}.tail_s"] = tl
        m[f"{name}.tail_pct"] = pct
    steps = calls("evolution.step")
    solves_in_steps = np.count_nonzero(
        select("gauge_elliptic.solve")
        & ((a["ancestors"] & mask("evolution.step")) != 0))
    m["evolution.solves_per_step"] = solves_in_steps / steps if steps else 0.0
    m["evolution.monitor.s"] = float(dur[select(
        *MONITORS, outside=MONITORS + ("gauge_elliptic.solve",))].sum())
    for key in ("spectral.fft.bytes", "geometry.trig_interp.point_modes",
                "gauge_elliptic.outer_iterations", "cli.checkpoint.bytes",
                "cli.csv.rows"):
        m[key] = float(tracer.counts.get(key, 0.0))
    m["trace.spans"] = float(n)
    return m
