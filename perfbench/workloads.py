"""Seeded inputs, operations and correctness checks of the three workloads.

Every workload draws its inputs from the acceptance Gaussian family of
``tests/test_acceptance.py``: a mean-free Gaussian of amplitude ``amp``
and width ``width``, modulated by ``exp(i m (x_0 - c_0))``, centred at
``c``, with ``smallness_threshold = 0.25``.  The seed selects one of
``VARIANTS`` input variants; the reference values of every variant were
recorded with ``record_refs.py`` at the commit that introduced the
benchmark, so each op's summary values are checked against them.

A workload runs its ops in *groups*: one ``smcf run`` invocation (ten
steps, so ten ops) for ``run-2d``, three cold solves for
``elliptic-3d`` and one comparison for ``oracle-2d``.  A group is the
unit that is repeated until the run time is used up, and the unit the
traced pass runs once.

This module imports numpy and smcf, so only the workload process
(``worker.py``) and ``record_refs.py`` import it.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from smcf import cli
from smcf import gauge_elliptic as ge
from smcf import immersion as im
from smcf.spectral import Grid

VARIANTS = 16
SMALLNESS = 0.25
AMPLITUDE = (6e-3, 1e-2)
WIDTH = (0.55, 0.65)
MODULATIONS = (1, 2)

# acceptance bounds of tests/test_acceptance.py
RESIDUAL_BOUND = 1e-8
DISCREPANCY_BOUND = 1e-4

# |value - reference| <= RTOL[key] * |reference| + ATOL for each summary
# value; keys not listed use RTOL_DEFAULT.  The oracle discrepancy sits at
# the 1e-7 construction tolerance, where inner stopping tests (1e-10 and
# 1e-13) move it in the third digit, so it gets a looser tolerance.
RTOL_DEFAULT = 1e-7
RTOL = {"discrepancy": 1e-2}
ATOL = 1e-15

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")
WORKLOADS = ("run-2d", "elliptic-3d", "oracle-2d")


class CheckFailed(Exception):
    """An op finished but its outputs are wrong."""


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def draw_params(workload: str, variant: int, count: int, d: int) -> list:
    """``count`` Gaussian parameter sets for one workload variant."""
    rng = np.random.default_rng([WORKLOADS.index(workload), variant])
    out = []
    for _ in range(count):
        out.append({
            "amplitude": float(rng.uniform(*AMPLITUDE)),
            "width": float(rng.uniform(*WIDTH)),
            "modulation": int(rng.choice(MODULATIONS)),
            "centre": [float(c) for c in rng.uniform(0.0, 2.0 * math.pi, d)],
        })
    return out


def gaussian(grid: Grid, p: dict) -> np.ndarray:
    """Periodically wrapped acceptance Gaussian with a mean-free projection."""
    x = grid.coords()
    r2 = 0.0
    for a in range(grid.d):
        dx = np.mod(x[a] - p["centre"][a] + math.pi, 2.0 * math.pi) - math.pi
        r2 = r2 + dx * dx
    psi = p["amplitude"] * np.exp(-r2 / (2.0 * p["width"] ** 2)) * np.exp(
        1j * p["modulation"] * (x[0] - p["centre"][0]))
    return psi - np.mean(psi)


def l2(grid: Grid, f: np.ndarray) -> float:
    """Plain-numpy L^2 norm, so checks call nothing that is traced."""
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * grid.cell_volume))


def _within(key: str, value: float, ref: float) -> bool:
    rtol = RTOL.get(key, RTOL_DEFAULT)
    return abs(value - ref) <= rtol * abs(ref) + ATOL


def compare_summary(summary: dict, ref: dict) -> None:
    bad = [f"{k}={summary[k]!r} (reference {ref[k]!r})"
           for k in ref if not _within(k, summary[k], ref[k])]
    if bad:
        raise CheckFailed("summary differs from reference: " + "; ".join(bad))


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as f:
        return json.load(f)


class Workload:
    """One workload variant.  ``run_group`` is the timed part of a group;
    ``summarize`` checks its outputs against the absolute bounds (raising
    ``CheckFailed``) and returns one summary dict per solve or run, the
    values that ``references.json`` records."""

    name = ""
    ops_per_group = 1

    def __init__(self, variant: int, workdir: str):
        self.variant = variant
        self.workdir = workdir

    def run_group(self):
        raise NotImplementedError

    def summarize(self, outputs) -> list:
        raise NotImplementedError

    def check(self, outputs, reference: list | None) -> list:
        summaries = self.summarize(outputs)
        if reference is not None:
            for got, ref in zip(summaries, reference, strict=True):
                compare_summary(got, ref)
        return summaries


class Run2D(Workload):
    """``smcf run`` on 64^2, split_step, dt 0.025, 10 steps, CSV + JSON +
    checkpoint every 5 steps."""

    name = "run-2d"
    ops_per_group = 10
    N_STEPS = 10

    def __init__(self, variant: int, workdir: str):
        super().__init__(variant, workdir)
        self.params = draw_params(self.name, variant, 1, 2)[0]
        p = self.params
        self.paths = {k: os.path.join(workdir, f"run.{k}")
                      for k in ("csv", "json", "ckpt", "cfg")}
        lines = [
            "dimension = 2",
            "grid.n = 64",
            "time.scheme = split_step",
            "time.dt = 0.025",
            f"time.t_end = {0.025 * self.N_STEPS!r}",
            f"elliptic.smallness_threshold = {SMALLNESS!r}",
            "data.kind = gaussian",
            f"data.amplitude = {p['amplitude']!r}",
            f"data.width = {p['width']!r}",
            f"data.modulation = {p['modulation']!r}",
            f"output.csv = {self.paths['csv']}",
            f"output.json = {self.paths['json']}",
            f"output.checkpoint = {self.paths['ckpt']}",
            "output.checkpoint_every = 5",
        ]
        with open(self.paths["cfg"], "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        self.argv = ["run", "--config", self.paths["cfg"]]

    def run_group(self):
        for key in ("csv", "json", "ckpt"):
            if os.path.exists(self.paths[key]):
                os.remove(self.paths[key])
        return cli.main(self.argv)

    def csv_rows(self) -> int:
        with open(self.paths["csv"], encoding="utf-8") as f:
            return sum(1 for line in f if line.strip()
                       and not line.startswith("#")) - 1  # header

    def summarize(self, code) -> list:
        if code != 0:
            raise CheckFailed(f"smcf run exited with code {code}")
        with open(self.paths["json"], encoding="utf-8") as f:
            out = json.load(f)
        if out["n_steps"] != self.N_STEPS:
            raise CheckFailed(f"ran {out['n_steps']} steps, not {self.N_STEPS}")
        if not out["max_constraint_l2"] <= RESIDUAL_BOUND:
            raise CheckFailed(
                f"max_constraint_l2 {out['max_constraint_l2']} > {RESIDUAL_BOUND}")
        try:
            ckpt = cli.load_checkpoint(self.paths["ckpt"])
        except cli.CheckpointError as exc:
            raise CheckFailed(f"final checkpoint unreadable: {exc}") from exc
        if ckpt["step"] != self.N_STEPS or ckpt["state"] is None:
            raise CheckFailed("final checkpoint is not the last step's state")
        rows = self.csv_rows()
        if rows != self.N_STEPS + 1:
            raise CheckFailed(f"CSV has {rows} rows, not {self.N_STEPS + 1}")
        grid = ckpt["grid"]
        summary = {
            "sup_hs_norm": out["sup_hs_norm"],
            "final_hs_norm": out["final_hs_norm"],
            "sup_lambda_linf": out["sup_lambda_linf"],
            "strichartz_total": out["strichartz_total"],
            "checkpoint_psi_l2": l2(grid, ckpt["psi"]),
        }
        for k, v in out["final_energies"].items():
            summary[f"final_energy_{k}"] = v
        return [summary]


class Elliptic3D(Workload):
    """Three cold ``solve_elliptic_system`` calls on 24^3."""

    name = "elliptic-3d"
    ops_per_group = 3

    def __init__(self, variant: int, workdir: str):
        super().__init__(variant, workdir)
        self.grid = Grid(d=3, n=24)
        self.cfg = ge.EllipticConfig(smallness_threshold=SMALLNESS)
        self.params = draw_params(self.name, variant, self.ops_per_group, 3)
        self.inputs = [gaussian(self.grid, p) for p in self.params]

    def run_group(self):
        return [ge.solve_elliptic_system(self.grid, psi, self.cfg)
                for psi in self.inputs]

    def summarize(self, states) -> list:
        out = []
        for state in states:
            rep = state.diagnostics["residuals"]
            if not (rep.max_l2() <= RESIDUAL_BOUND
                    and rep.max_linf() <= RESIDUAL_BOUND):
                raise CheckFailed(
                    f"residuals l2 {rep.max_l2()} linf {rep.max_linf()} "
                    f"> {RESIDUAL_BOUND}")
            g = self.grid
            out.append({
                "lam_l2": l2(g, state.lam),
                "h_linf": float(np.max(np.abs(state.metric.h))),
                "V_l2": l2(g, state.V),
                "A_l2": l2(g, state.A),
                "B_l2": l2(g, state.B),
            })
        return out


class Oracle2D(Workload):
    """One ``oracle_compare`` on 32^2 with the default OracleConfig times."""

    name = "oracle-2d"
    ops_per_group = 1

    def __init__(self, variant: int, workdir: str):
        super().__init__(variant, workdir)
        self.grid = Grid(d=2, n=32)
        self.cfg = im.OracleConfig(
            elliptic=ge.EllipticConfig(smallness_threshold=SMALLNESS))
        self.params = draw_params(self.name, variant, 1, 2)
        self.psi0 = gaussian(self.grid, self.params[0])

    def run_group(self):
        return im.oracle_compare(self.grid, self.psi0, self.cfg)

    def summarize(self, rep) -> list:
        if not rep.discrepancy <= DISCREPANCY_BOUND:
            raise CheckFailed(
                f"discrepancy {rep.discrepancy} > {DISCREPANCY_BOUND}")
        return [{
            "discrepancy": float(rep.discrepancy),
            "psi_gauge_l2": l2(self.grid, rep.psi_gauge),
            "psi_aligned_l2": l2(self.grid, rep.psi_aligned),
        }]


CLASSES = {cls.name: cls for cls in (Run2D, Elliptic3D, Oracle2D)}


def make(name: str, seed: int, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return CLASSES[name](variant_of(seed), workdir)
