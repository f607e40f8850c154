"""Time stepping for the gauged quasilinear Schrodinger equation.

The complex mean curvature psi evolves by

    d_t psi = i nabla^A_a nabla^{A,a} psi + V^g nabla^A_g psi
              - i B psi - lam^g_s Im(psi conj(lam)^s_g),

with the gauge variables (lam, g, V, A, B) re-solved from psi by the
fixed-time elliptic system at every stage of every step.  The stiff
flat Laplacian is integrated exactly (``spectral.free_flow``); the remaining
terms are advanced explicitly, either by Strang splitting with a
midpoint stage (second order) or by Lawson's integrating-factor RK4
(fourth order).

A ``GaugeState`` is psi with its gauge: ``step`` maps one to the next.
Every run goes through one generator, ``stepper``, which steps from one
gauge state and yields (step index, t, gauge state) for it and after each step.
Everything that accumulates along a run (energies E^k, constraint
residuals, the dispersive space-time accumulator, the integrated metric
law d_t g = 2G, the energy-growth ratios rho and the running maxima)
lives in one ``Monitor``, whose running state is the ``carry`` that
checkpoints save.  ``evolve`` and ``smcf run`` monitor every sample;
the immersion oracle and ``difference_stability`` read psi only.  Also
here: the free-flow profile e^{-it Delta} psi(t), whose Cauchy
differences detect scattering.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from smcf import gauge_elliptic as ge
from smcf import geometry as geo
from smcf import norms as nrm
from smcf import spectral as sp
from smcf.gauge_elliptic import EllipticConfig, GaugeState
from smcf.geometry import MetricField
from smcf.spectral import Grid

__all__ = [
    "EvolutionConfig",
    "TrajectoryReport",
    "Sample",
    "Monitor",
    "CARRY_KEYS",
    "RHO_FLOOR",
    "trivial_state",
    "resolve_gauge",
    "strichartz_entries",
    "g_tensor",
    "schrodinger_rhs",
    "step",
    "equal_steps",
    "step_count",
    "stepper",
    "evolve",
    "difference_stability",
    "scattering_profile",
]

_SCHEMES = ("split_step", "lawson_rk4")

#: round-off in t_end / dt, relative to it, within which ``equal_steps``
#: counts the ratio as the nearest whole number
_STEP_SLACK = 1e-12

#: rho is NaN where its denominator is at or below this floor
RHO_FLOOR = 1e-14

# solver failures that ``stepper`` re-raises with their own type
_TYPED_STEP_ERRORS = (geo.NotContractingError, ge.SmallnessViolatedError,
                      ge.LostPositivityError, geo.SingularMetricError)


@dataclass(frozen=True)
class EvolutionConfig:
    """Time-stepping parameters.

    ``dt=None`` selects the default 0.25*(L/n)^2 for the run's grid;
    the flat Laplacian is integrated exactly, so this guards only the
    explicitly-treated quasilinear corrections.  ``scheme`` is
    ``split_step`` or ``lawson_rk4`` (see ``step``).  ``trivial_gauge``
    freezes the gauge at g=I, A=V=B=0, lam=0, reducing the flow to the
    free Schrodinger equation.  ``monitor_ks`` lists one or more
    distinct energy orders k >= 0.  The ``smcf`` key of a field is
    ``time.<field>``, or ``monitors.k_list`` and ``monitors.c_e_budget``
    for the last two; ``elliptic`` has a section of its own.
    """

    dt: float | None = None
    t_end: float = 1.0
    scheme: str = "split_step"
    trivial_gauge: bool = False
    monitor_ks: tuple = (0, 1, 2)
    c_e_budget: float = 100.0
    elliptic: EllipticConfig = field(default_factory=EllipticConfig)

    def __post_init__(self):
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.dt is not None and self.t_end < self.dt:
            raise ValueError("t_end must be at least one step")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        ks = self.monitor_ks
        if not ks or any(k < 0 for k in ks) or len(set(ks)) < len(ks):
            raise ValueError(f"need distinct energy orders >= 0, got {ks}")

    def effective_dt(self, grid: Grid) -> float:
        if self.dt is not None:
            return self.dt
        return 0.25 * grid.dx**2


@dataclass
class TrajectoryReport:
    """Complete record of one evolution run.

    Per-sample series are aligned with ``times``; ``rho`` holds the
    energy-growth ratios (E^k(t+dt)-E^k(t)) / (dt |lam|^2_{Linf}
    |lam|^2_{intrinsic-k}) between consecutive samples, NaN where the
    denominator sits below ``RHO_FLOOR``.  ``strichartz`` is
    the running space-time accumulator S[0, t_i]; ``metric_dev`` is as
    in ``Monitor``.
    """

    grid: Grid
    config: EvolutionConfig
    times: np.ndarray
    psis: list
    energies: dict
    hs_norms: np.ndarray
    lam_linf: np.ndarray
    strichartz: np.ndarray
    reports: list
    rho: dict
    metric_dev: np.ndarray
    final_state: GaugeState
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("timestamps must be strictly increasing")


def trivial_state(grid: Grid, psi: np.ndarray) -> GaugeState:
    """The frozen flat gauge: g = I, lam = 0, V = A = 0, B = 0."""
    d = grid.d
    return GaugeState(
        psi=psi,
        metric=MetricField.identity(grid),
        lam=np.zeros((d, d) + grid.shape, dtype=complex),
        V=np.zeros((d,) + grid.shape),
        A=np.zeros((d,) + grid.shape),
        B=np.zeros(grid.shape),
    )


def g_tensor(state: GaugeState) -> np.ndarray:
    """Metric velocity G_ab = Im(psi conj(lam)_ab) + sym. gradient of V."""
    V_low = np.einsum("ab...,b...->a...", state.metric.g, state.V)
    dV = geo.covariant_derivative(V_low, 0, 1, state.metric)  # (a, b)
    G = (state.psi * np.conj(state.lam)).imag + 0.5 * (
        dV + np.einsum("ab...->ba...", dV)
    )
    return G


def schrodinger_rhs(state: GaugeState) -> np.ndarray:
    """Full right-hand side d_t psi of the gauged Schrodinger equation.

    At the trivial gauge every correction vanishes and the result is
    exactly i * Delta psi.
    """
    psi = state.psi
    m, A, V, B, lam = state.metric, state.A, state.V, state.B, state.lam
    d1 = geo.covariant_derivative(psi, 0, 0, m, A)             # (c,)
    d2 = geo.covariant_derivative(d1, 0, 1, m, A)              # (c2, c1)
    lap = np.einsum("ab...,ab...->...", m.inv, d2)
    adv = np.einsum("g...,g...->...", V, d1)
    lam_ud = np.einsum("gm...,ms...->gs...", m.inv, lam)
    imsrc = (psi * np.conj(lam_ud)).imag                       # Im(psi lam-bar^a_b)
    curv = np.einsum("gs...,sg...->...", lam_ud, imsrc)
    return 1j * lap + adv - 1j * B * psi - curv


def _residual_rhs(state: GaugeState) -> np.ndarray:
    """Everything beyond the flat part: schrodinger_rhs - i Delta psi."""
    return schrodinger_rhs(state) - 1j * sp.laplacian(state.grid, state.psi)


def resolve_gauge(grid: Grid, psi: np.ndarray, cfg: EvolutionConfig,
                  warm: GaugeState | None = None) -> GaugeState:
    """Gauge state of psi, taken as complex: the elliptic solve, or the
    flat gauge under ``trivial_gauge``.  Its constraint report is built
    on the first ``constraint_report()``, so a stage state builds none."""
    psi = np.asarray(psi, dtype=complex)
    if cfg.trivial_gauge:
        return trivial_state(grid, psi)
    return ge.solve_elliptic_system(grid, psi, cfg.elliptic, warm=warm,
                                    report=False)


def _nan_guard(psi: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(psi.view(float))):
        bad = int(np.count_nonzero(~np.isfinite(psi.view(float))))
        raise RuntimeError(
            f"non-finite values in psi at t = {t:.6g} ({bad} bad entries)"
        )


def step(state: GaugeState, cfg: EvolutionConfig, dt: float | None = None,
         t: float = 0.0) -> GaugeState:
    """Advance one step of size dt, by default the run's equal step
    (``step_count``); returns the gauge state of the new psi.

    With E(s) the exact flat flow and N the residual terms at the gauge
    of their argument:

    split_step: E(dt/2), an explicit midpoint rule for N, and E(dt/2)
    (second order, 3 gauge solves).

    lawson_rk4: Lawson's integrating-factor RK4 (fourth order, 4 gauge
    solves), with h = dt,
        k1 = N(psi),  k2 = N(E(h/2)(psi + h/2 k1)),
        k3 = N(E(h/2)psi + h/2 k2),  k4 = N(E(h)psi + h E(h/2)k3),
        psi' = E(h)psi + h/6 (E(h)k1 + 2 E(h/2)(k2 + k3) + k4).
    k1 reads the gauge state the step is given, so the end-of-step
    solve is the next step's first stage.

    Each gauge solve is one ``stage(u, warm)``, which returns N(u) and
    the gauge state of u, warm-started from the previous stage's.
    """
    grid, psi = state.grid, state.psi
    dt = step_count(grid, cfg)[1] if dt is None else dt

    def stage(u, warm):
        st = resolve_gauge(grid, u, cfg, warm)
        return _residual_rhs(st), st

    psi_half = sp.free_flow(grid, psi, dt / 2.0)
    if cfg.scheme == "split_step":
        n, st = stage(psi_half, state)
        n, st = stage(psi_half + (dt / 2.0) * n, st)
        psi_new = sp.free_flow(grid, psi_half + dt * n, dt / 2.0)
    else:  # lawson_rk4, with E(dt) taken as two half steps E(dt/2)
        k1 = _residual_rhs(state)
        k2, st = stage(sp.free_flow(grid, psi + (dt / 2.0) * k1, dt / 2.0), state)
        k3, st = stage(psi_half + (dt / 2.0) * k2, st)
        k4, st = stage(sp.free_flow(grid, psi_half + dt * k3, dt / 2.0), st)
        u = (sp.free_flow(grid, psi + (dt / 6.0) * k1, dt / 2.0)
             + (dt / 3.0) * (k2 + k3))
        psi_new = sp.free_flow(grid, u, dt / 2.0) + (dt / 6.0) * k4

    _nan_guard(psi_new, t + dt)
    return resolve_gauge(grid, psi_new, cfg, st)


def strichartz_entries(grid: Grid, psi: np.ndarray, table) -> np.ndarray:
    """Squared spatial norms of the dispersive components at one time."""
    return np.array([nrm.wsp_norm(grid, psi, s, p) ** 2
                     for s, p in nrm.strichartz_components(table)])


def equal_steps(t_end: float, dt: float) -> tuple:
    """(n_steps, step): the fewest equal steps with n_steps * step =
    t_end and step no longer than ``dt``.  A ratio t_end / dt within
    round-off of a whole number counts as that number.  A dt that is not
    > 0, a ratio that is not finite, or more than 2**53 steps (past which
    the times i * step are no longer distinct floats) is a ``ValueError``."""
    if not dt > 0:
        raise ValueError(f"time steps must be positive, got {dt:g}")
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_end / dt = {t_end:g} / {dt:g} is not finite")
    n_steps = round(ratio)
    if abs(ratio - n_steps) > _STEP_SLACK * ratio:
        n_steps = math.ceil(ratio)
    n_steps = max(1, n_steps)
    if n_steps > 2**53:
        raise ValueError(f"t_end / dt = {t_end:g} / {dt:g} needs {n_steps:.3g} "
                         f"steps, more than 2**53")
    return n_steps, t_end / n_steps


def step_count(grid: Grid, cfg: EvolutionConfig) -> tuple:
    """``equal_steps`` at the configured t_end and effective dt."""
    return equal_steps(cfg.t_end, cfg.effective_dt(grid))


def stepper(state: GaugeState, cfg: EvolutionConfig, start: int = 0):
    """Yield (i, t_i, state_i) along a run to t_end, from the gauge state
    of step ``start``: first that state itself, then the state after
    each step.  A run starts from ``resolve_gauge`` of its data; a
    resume from a checkpoint's state skips the first yield, the step the
    checkpoint recorded.  Steps follow ``step_count``.  A failing step
    raises with its time in the message: typed solver errors keep their
    type, others become ``RuntimeError``.
    """
    n_steps, dt = step_count(state.grid, cfg)
    yield start, start * dt, state
    for i in range(start, n_steps):
        t = i * dt
        try:
            state = step(state, cfg, dt=dt, t=t)
        except _TYPED_STEP_ERRORS as exc:
            typed = copy.copy(exc)  # keeps attributes such as ``residual``
            typed.args = (f"step failed at t = {t:.6g}: {exc}",)
            raise typed from exc
        except Exception as exc:
            raise RuntimeError(f"step failed at t = {t:.6g}: {exc}") from exc
        yield i + 1, (i + 1) * dt, state


@dataclass
class Sample:
    """The monitors at one sample time; ``rho`` is empty at the first."""

    energies: dict
    lam_norms: dict
    hs_norm: float
    lam_linf: float
    report: geo.ConstraintReport
    G: np.ndarray
    strichartz: float = 0.0
    metric_dev: float = 0.0
    rho: dict = field(default_factory=dict)


#: the entries of ``Monitor.carry``, in checkpoint order
CARRY_KEYS = ("ks", "metric_integral", "g_tensor_prev", "strichartz_prev",
              "strichartz_run", "energies", "lam_norms", "lam_linf", "hs_norm",
              "hs_norm0", "sup_hs_norm", "sup_lam_linf", "sup_energies",
              "max_constraint", "rho_max")


class Monitor:
    """Running monitors of one run, fed the stepper's samples in order.

    ``record`` takes the spatial monitors of a gauge state (E^k and the lam
    k-norms in one derivative pass each) and, with the run's dt, the
    Strichartz sums S += dt/2 (sq + sq_prev), the trapezoid integral of
    d_t g = 2G with ``metric_dev``, and rho^k = (E^k - E^k_prev) /
    (dt |lam_prev|^2_{Linf} |lam_prev|^2_{intrinsic-k}), NaN below
    ``RHO_FLOOR``.  ``carry`` (float arrays keyed by ``CARRY_KEYS``) is
    the whole running state: None before the first sample, restored
    from a checkpoint on resume.
    """

    def __init__(self, grid: Grid, cfg: EvolutionConfig, carry: dict | None = None):
        self.ks = tuple(cfg.monitor_ks)
        self.dt = step_count(grid, cfg)[1]
        self.table = nrm.exponents(grid.d)
        self.carry = carry

    def record(self, state: GaugeState) -> Sample:
        grid, psi, ks, dt, m = state.grid, state.psi, self.ks, self.dt, state.metric
        psi_norms = geo.intrinsic_norms(psi, 0, 0, m, state.A, ks)
        smp = Sample(
            energies={k: psi_norms[k] ** 2 for k in ks},
            lam_norms=geo.intrinsic_norms(state.lam, 0, 2, m, state.A, ks),
            hs_norm=sp.hs_norm(grid, psi, self.table.s_d),
            lam_linf=sp.linf_norm(grid, state.lam),
            report=state.constraint_report(),
            G=g_tensor(state),
        )
        sq = strichartz_entries(grid, psi, self.table)
        E = np.array([smp.energies[k] for k in ks])
        H = np.array([smp.lam_norms[k] for k in ks])
        c = self.carry
        if c is None:  # norms are >= 0, so 0 starts the running maxima
            c = self.carry = {
                "ks": np.array(ks, dtype=float),
                "metric_integral": m.g.copy(), "strichartz_run": np.zeros_like(sq),
                "hs_norm0": smp.hs_norm, "sup_hs_norm": 0.0, "sup_lam_linf": 0.0,
                "sup_energies": np.zeros(len(ks)), "max_constraint": 0.0,
                "rho_max": np.zeros(len(ks)),
            }
        else:
            c["strichartz_run"] = (c["strichartz_run"]
                                   + 0.5 * dt * (sq + c["strichartz_prev"]))
            c["metric_integral"] = (c["metric_integral"]
                                    + dt * (c["g_tensor_prev"] + smp.G))
            smp.metric_dev = float(np.max(np.abs(c["metric_integral"] - m.g)))
            denom = (dt * (c["lam_linf"] * c["lam_linf"])
                     * (c["lam_norms"] * c["lam_norms"]))
            with np.errstate(divide="ignore", invalid="ignore"):
                rho = np.where(denom > RHO_FLOOR,
                               (E - c["energies"]) / denom, np.nan)
            c["rho_max"] = np.fmax(c["rho_max"], np.abs(rho))
            smp.rho = dict(zip(ks, rho.tolist()))
        c["sup_hs_norm"] = np.maximum(c["sup_hs_norm"], smp.hs_norm)
        c["sup_lam_linf"] = np.maximum(c["sup_lam_linf"], smp.lam_linf)
        c["sup_energies"] = np.maximum(c["sup_energies"], E)
        c["max_constraint"] = max(c["max_constraint"], smp.report.max_l2())
        c.update(g_tensor_prev=smp.G, strichartz_prev=sq, energies=E,
                 lam_norms=H, lam_linf=smp.lam_linf, hs_norm=smp.hs_norm)
        smp.strichartz = float(np.sum(np.sqrt(c["strichartz_run"])))
        return smp

    def summary(self) -> dict:
        """Run-level results read off the carry, keyed as in the JSON
        summary of ``smcf run``."""
        c = self.carry

        def per_k(values):
            return {f"k{k}": float(v) for k, v in zip(self.ks, values)}

        return {
            "sup_hs_norm": float(c["sup_hs_norm"]),
            "final_hs_norm": float(c["hs_norm"]),
            "sup_hs_ratio": (float(c["sup_hs_norm"] / c["hs_norm0"])
                             if c["hs_norm0"] > 0 else 0.0),
            "sup_lambda_linf": float(c["sup_lam_linf"]),
            "strichartz_total": float(np.sum(np.sqrt(c["strichartz_run"]))),
            "max_constraint_l2": float(c["max_constraint"]),
            "final_energies": per_k(c["energies"]),
            "sup_energies": per_k(c["sup_energies"]),
            "rho_max": per_k(c["rho_max"]),
        }


def evolve(grid: Grid, psi0: np.ndarray, cfg: EvolutionConfig) -> TrajectoryReport:
    """Run the flow from psi0 to t_end, keeping every sample of every
    monitor.  Step count, dt (recorded in the diagnostics) and step
    failures are as in ``stepper``."""
    monitor = Monitor(grid, cfg)
    samples, psis = [], []
    for _, _, state in stepper(resolve_gauge(grid, psi0, cfg), cfg):
        samples.append(monitor.record(state))
        psis.append(state.psi.copy())

    def series(attr):
        return np.array([getattr(s, attr) for s in samples])

    totals = monitor.summary()
    return TrajectoryReport(
        grid=grid,
        config=cfg,
        times=np.arange(len(samples)) * monitor.dt,
        psis=psis,
        energies={k: np.array([s.energies[k] for s in samples])
                  for k in cfg.monitor_ks},
        hs_norms=series("hs_norm"),
        lam_linf=series("lam_linf"),
        strichartz=series("strichartz"),
        reports=[s.report for s in samples],
        rho={k: np.array([s.rho[k] for s in samples[1:]])
             for k in cfg.monitor_ks},
        metric_dev=series("metric_dev"),
        final_state=state,
        diagnostics={"dt": monitor.dt, "n_steps": len(samples) - 1, **{
            key: totals[key] for key in ("sup_hs_norm", "strichartz_total",
                                         "max_constraint_l2")}},
    )


def difference_stability(grid: Grid, psi0: np.ndarray, dpsi0: np.ndarray,
                         cfg: EvolutionConfig, budget: float = 10.0):
    """Flat H^{-1} growth ratio of a perturbed trajectory.

    Evolves psi0 and psi0 + dpsi0 and returns the series
    r(t) = |psi1(t) - psi2(t)|_{H^{-1}} / |dpsi0|_{H^{-1}}
    (identically zero for a zero perturbation).  Raises if the series
    exceeds the stability budget.
    """
    base = sp.hs_norm(grid, dpsi0, -1.0)
    runs = (stepper(resolve_gauge(grid, psi, cfg), cfg)
            for psi in (psi0, psi0 + dpsi0))
    diffs = np.array([sp.hs_norm(grid, b.psi - a.psi, -1.0)
                      for (_, _, a), (_, _, b) in zip(*runs)])
    if base == 0.0:
        if np.max(diffs) != 0.0:
            raise RuntimeError("identical data produced distinct trajectories")
        return diffs
    r = diffs / base
    if np.max(r) > budget:
        raise RuntimeError(
            f"difference growth {np.max(r):.3g} exceeds the budget {budget:g}"
        )
    return r


def scattering_profile(traj: TrajectoryReport, sample_times=None):
    """Cauchy differences of the free-flow profile u(t) = exp(-it Delta) psi(t).

    Returns a list of (t_i, t_j, |u(t_j) - u(t_i)|_{H^{s_d - 2}}) for
    consecutive sample times; decreasing differences indicate
    convergence to a scattering state.
    """
    grid = traj.grid
    if len(traj.times) < 2:
        raise ValueError("need at least two sample times")
    s = nrm.exponents(grid.d).s_d - 2.0
    if sample_times is None:
        idx = list(range(len(traj.times)))
    else:
        idx = [int(np.argmin(np.abs(traj.times - tt))) for tt in sample_times]
    profiles = [sp.free_flow(grid, traj.psis[i], -traj.times[i]) for i in idx]
    out = []
    for a, b in zip(range(len(idx) - 1), range(1, len(idx))):
        diff = sp.hs_norm(grid, profiles[b] - profiles[a], s)
        out.append((float(traj.times[idx[a]]), float(traj.times[idx[b]]), diff))
    return out
