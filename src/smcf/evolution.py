"""Time stepping for the gauged quasilinear Schrodinger equation.

The complex mean curvature psi evolves by

    d_t psi = i nabla^A_a nabla^{A,a} psi + V^g nabla^A_g psi
              - i B psi - lam^g_s Im(psi conj(lam)^s_g),

with the gauge variables (lam, g, V, A, B) re-solved from psi by the
fixed-time elliptic system at every step.  The stiff flat Laplacian is
integrated exactly in Fourier space; the remaining terms are advanced
by an explicit second-order rule (Strang splitting with a midpoint
stage, or a Lawson-Heun exponential integrator).

Alongside the trajectory the module tracks the quantities the analysis
runs on: covariant energies E^k, the dispersive space-time accumulator,
constraint residuals, the metric evolution law d_t g = 2G, linearized
difference stability in flat H^{-1}, and the free-flow profile
e^{-it Delta} psi(t) whose Cauchy differences detect scattering.
"""

from __future__ import annotations

import copy
import dataclasses
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
    "trivial_state",
    "resolve_gauge",
    "strichartz_entries",
    "g_tensor",
    "schrodinger_rhs",
    "step",
    "evolve",
    "metric_consistency",
    "difference_stability",
    "scattering_profile",
]

_SCHEMES = ("split_step", "imex_rk2")

# solver failures that ``evolve`` re-raises with their own type
_TYPED_STEP_ERRORS = (geo.NotContractingError, ge.SmallnessViolatedError,
                      ge.LostPositivityError, geo.SingularMetricError)


@dataclass(frozen=True)
class EvolutionConfig:
    """Time-stepping parameters.

    ``dt=None`` selects the default 0.25*(L/n)^2 for the run's grid;
    the flat Laplacian is integrated exactly, so this guards only the
    explicitly-treated quasilinear corrections.  ``force_v_zero``
    drops the advection term from the evolution (the gauge freedom
    used in energy estimates); ``trivial_gauge`` freezes the gauge at
    g=I, A=V=B=0, lam=0, reducing the flow to the free Schrodinger
    equation.
    """

    dt: float | None = None
    t_end: float = 1.0
    scheme: str = "split_step"
    resolve_every: int = 1
    monitor_ks: tuple = (0, 1, 2)
    c_e_budget: float = 100.0
    rho_floor: float = 1e-14
    force_v_zero: bool = False
    trivial_gauge: bool = False
    elliptic: EllipticConfig = field(default_factory=EllipticConfig)

    def __post_init__(self):
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.dt is not None and self.t_end < self.dt:
            raise ValueError("t_end must be at least one step")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        if self.resolve_every < 1:
            raise ValueError("resolve_every must be >= 1")
        if any(k < 0 for k in self.monitor_ks):
            raise ValueError("energy orders must be >= 0")

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
    denominator sits below the configured floor.  ``strichartz`` is
    the running space-time accumulator S[0, t_i].
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
    g_snapshots: list
    G_snapshots: list
    rho: dict
    final_state: GaugeState
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("timestamps must be strictly increasing")


def trivial_state(grid: Grid, psi: np.ndarray) -> GaugeState:
    """The frozen flat gauge: g = I, lam = 0, V = A = 0, B = 0."""
    d = grid.d
    return GaugeState(
        grid=grid,
        psi=psi,
        metric=MetricField.identity(grid),
        lam=np.zeros((d, d) + grid.shape, dtype=complex),
        V=np.zeros((d,) + grid.shape),
        A=np.zeros((d,) + grid.shape),
        B=np.zeros(grid.shape),
    )


def _check_match(grid: Grid, psi: np.ndarray, state: GaugeState) -> None:
    if state.grid is not grid and state.grid != grid:
        raise ValueError("state grid does not match")
    if psi.shape != grid.shape:
        raise ValueError(f"psi shape {psi.shape} does not match grid")


def g_tensor(grid: Grid, state: GaugeState) -> np.ndarray:
    """Metric velocity G_ab = Im(psi conj(lam)_ab) + sym. gradient of V."""
    V_low = np.einsum("ab...,b...->a...", state.metric.g, state.V)
    dV = geo.covariant_derivative(grid, V_low, 0, 1, state.metric).real  # (a, b)
    G = (state.psi * np.conj(state.lam)).imag + 0.5 * (
        dV + np.einsum("ab...->ba...", dV)
    )
    return G


def schrodinger_rhs(grid: Grid, psi: np.ndarray, state: GaugeState) -> np.ndarray:
    """Full right-hand side d_t psi of the gauged Schrodinger equation.

    At the trivial gauge every correction vanishes and the result is
    exactly i * Delta psi.
    """
    _check_match(grid, psi, state)
    m, A, V, B, lam = state.metric, state.A, state.V, state.B, state.lam
    d1 = geo.covariant_derivative(grid, psi, 0, 0, m, A)       # (c,)
    d2 = geo.covariant_derivative(grid, d1, 0, 1, m, A)        # (c2, c1)
    lap = np.einsum("ab...,ab...->...", m.inv.astype(complex), d2)
    adv = np.einsum("g...,g...->...", V.astype(complex), d1)
    lam_ud = np.einsum("gm...,ms...->gs...", m.inv.astype(complex), lam)
    imsrc = (psi * np.conj(lam_ud)).imag                       # Im(psi lam-bar^a_b)
    curv = np.einsum("gs...,sg...->...", lam_ud, imsrc.astype(complex))
    return 1j * lap + adv - 1j * B * psi - curv


def _free_flow(grid: Grid, psi: np.ndarray, t: float) -> np.ndarray:
    """Exact flat propagator exp(i t Delta)."""
    return grid.ifft(np.exp(-1j * grid.k_squared() * t) * grid.fft(psi))


def _residual_rhs(grid: Grid, psi: np.ndarray, state: GaugeState) -> np.ndarray:
    """Everything beyond the flat part: schrodinger_rhs - i Delta psi."""
    return schrodinger_rhs(grid, psi, state) - 1j * sp.laplacian(grid, psi)


def resolve_gauge(grid: Grid, psi: np.ndarray, cfg: EvolutionConfig,
             warm: GaugeState | None = None) -> GaugeState:
    """Gauge state for psi under the configured gauge policy."""
    if cfg.trivial_gauge:
        return trivial_state(grid, psi)
    state = ge.solve_elliptic_system(grid, psi, cfg.elliptic, warm=warm)
    if cfg.force_v_zero:
        state = dataclasses.replace(state, V=np.zeros_like(state.V))
    return state


def _nan_guard(psi: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(psi.view(float))):
        bad = int(np.count_nonzero(~np.isfinite(psi.view(float))))
        raise RuntimeError(
            f"non-finite values in psi at t = {t:.6g} ({bad} bad entries)"
        )


def step(grid: Grid, psi: np.ndarray, state: GaugeState, cfg: EvolutionConfig,
         dt: float | None = None, t: float = 0.0, resolve: bool = True):
    """Advance one step of size dt; returns (psi', state').

    split_step: exact half-step of the flat flow, explicit midpoint on
    the residual terms (with the gauge re-solved at the midpoint), and
    a second exact half-step.  imex_rk2: Lawson-Heun, the flat flow
    applied exactly around an explicit trapezoidal rule for the
    residual.  With ``resolve=False`` the incoming gauge state is
    reused throughout (elliptic re-solve cadence > 1).
    """
    _check_match(grid, psi, state)
    dt = cfg.effective_dt(grid) if dt is None else dt

    def gauge(p, warm):
        return resolve_gauge(grid, p, cfg, warm) if resolve else warm

    if cfg.scheme == "split_step":
        psi_half = _free_flow(grid, psi, dt / 2.0)
        st_half = gauge(psi_half, state)
        psi_mid = psi_half + (dt / 2.0) * _residual_rhs(grid, psi_half, st_half)
        st_mid = gauge(psi_mid, st_half)
        psi_out = psi_half + dt * _residual_rhs(grid, psi_mid, st_mid)
        psi_new = _free_flow(grid, psi_out, dt / 2.0)
        warm = st_mid
    else:  # imex_rk2
        k1 = _residual_rhs(grid, psi, state)
        u1 = _free_flow(grid, psi + dt * k1, dt)
        st1 = gauge(u1, state)
        k2 = _residual_rhs(grid, u1, st1)
        psi_new = _free_flow(grid, psi + (dt / 2.0) * k1, dt) + (dt / 2.0) * k2
        warm = st1

    _nan_guard(psi_new, t + dt)
    if resolve:
        state_new = resolve_gauge(grid, psi_new, cfg, warm)
    else:
        # a fresh diagnostics dict: the stored constraint report is psi's
        state_new = dataclasses.replace(state, psi=psi_new, diagnostics={})
    return psi_new, state_new


def strichartz_entries(grid: Grid, psi: np.ndarray, table) -> np.ndarray:
    """Squared spatial norms of the dispersive components at one time."""
    comps = [(table.sigma_d, float(table.r_d))]
    if table.d == 4:
        comps.append((1.0, 4.0))
    return np.array([nrm.wsp_norm(grid, psi, s, p) ** 2 for s, p in comps])


def evolve(grid: Grid, psi0: np.ndarray, cfg: EvolutionConfig) -> TrajectoryReport:
    """Run the flow from psi0 to t_end, recording every monitor.

    The step count is rounded so the final sample lands exactly on
    t_end; the actually-used dt is recorded in the diagnostics.  A
    failing step raises with the step time in the message: typed solver
    errors (not contracting, smallness, positivity, singular metric)
    keep their type, anything else becomes a ``RuntimeError``.
    """
    table = nrm.exponents(grid.d)
    dt_req = cfg.effective_dt(grid)
    n_steps = max(1, int(round(cfg.t_end / dt_req)))
    dt = cfg.t_end / n_steps

    state = resolve_gauge(grid, psi0.astype(complex), cfg)
    psi = state.psi

    times = [0.0]
    psis = [psi.copy()]
    energies = {k: [] for k in cfg.monitor_ks}
    hs_norms = []
    lam_linf = []
    reports = []
    g_snaps = []
    G_snaps = []
    lam_hk = {k: [] for k in cfg.monitor_ks}
    sq_entries = []

    def record(p, st):
        for k in cfg.monitor_ks:
            energies[k].append(geo.energy(grid, p, st.metric, st.A, k))
            lam_hk[k].append(
                geo.intrinsic_norm(grid, st.lam, 0, 2, st.metric, st.A, k)
            )
        hs_norms.append(sp.hs_norm(grid, p, table.s_d))
        lam_linf.append(sp.linf_norm(grid, st.lam))
        reports.append(st.constraint_report())
        g_snaps.append(st.metric.g.copy())
        G_snaps.append(g_tensor(grid, st))
        sq_entries.append(strichartz_entries(grid, p, table))

    record(psi, state)
    t = 0.0
    for i in range(n_steps):
        resolve = not cfg.trivial_gauge and ((i + 1) % cfg.resolve_every == 0)
        try:
            psi, state = step(grid, psi, state, cfg, dt=dt, t=t,
                              resolve=resolve or cfg.trivial_gauge)
        except _TYPED_STEP_ERRORS as exc:
            typed = copy.copy(exc)  # keeps attributes such as ``residual``
            typed.args = (f"step failed at t = {t:.6g}: {exc}",)
            raise typed from exc
        except Exception as exc:
            raise RuntimeError(f"step failed at t = {t:.6g}: {exc}") from exc
        t = (i + 1) * dt
        times.append(t)
        psis.append(psi.copy())
        record(psi, state)

    times = np.array(times)
    # running dispersive accumulator by cumulative trapezoid per component
    sq = np.array(sq_entries)  # (samples, components)
    acc = np.zeros(len(times))
    run = np.zeros(sq.shape[1])
    for i in range(1, len(times)):
        run = run + 0.5 * (times[i] - times[i - 1]) * (sq[i] + sq[i - 1])
        acc[i] = float(np.sum(np.sqrt(run)))

    rho = {}
    for k in cfg.monitor_ks:
        E = np.array(energies[k])
        denom = dt * np.array(lam_linf[:-1]) ** 2 * np.array(lam_hk[k][:-1]) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(denom > cfg.rho_floor, np.diff(E) / denom, np.nan)
        rho[k] = r

    return TrajectoryReport(
        grid=grid,
        config=cfg,
        times=times,
        psis=psis,
        energies={k: np.array(v) for k, v in energies.items()},
        hs_norms=np.array(hs_norms),
        lam_linf=np.array(lam_linf),
        strichartz=acc,
        reports=reports,
        g_snapshots=g_snaps,
        G_snapshots=G_snaps,
        rho=rho,
        final_state=state,
        diagnostics={
            "dt": dt,
            "n_steps": n_steps,
            "sup_hs_norm": float(np.max(hs_norms)),
            "strichartz_total": float(acc[-1]),
            "max_constraint_l2": max(r.max_l2() for r in reports),
        },
    )


def metric_consistency(traj: TrajectoryReport) -> np.ndarray:
    """Deviation of the trapezoid integral of d_t g = 2G from the
    elliptically re-solved metric, in L-infinity, per sample time."""
    integ = traj.g_snapshots[0].copy()
    devs = [0.0]
    for i in range(1, len(traj.times)):
        h = traj.times[i] - traj.times[i - 1]
        integ = integ + h * (traj.G_snapshots[i - 1] + traj.G_snapshots[i])
        devs.append(float(np.max(np.abs(integ - traj.g_snapshots[i]))))
    return np.array(devs)


def difference_stability(grid: Grid, psi0: np.ndarray, dpsi0: np.ndarray,
                         cfg: EvolutionConfig, budget: float = 10.0):
    """Flat H^{-1} growth ratio of a perturbed trajectory.

    Evolves psi0 and psi0 + dpsi0 and returns the series
    r(t) = |psi1(t) - psi2(t)|_{H^{-1}} / |dpsi0|_{H^{-1}}
    (identically zero for a zero perturbation).  Raises if the series
    exceeds the stability budget.
    """
    base = sp.hs_norm(grid, dpsi0, -1.0)
    traj1 = evolve(grid, psi0, cfg)
    traj2 = evolve(grid, psi0 + dpsi0, cfg)
    if base == 0.0:
        diffs = [sp.hs_norm(grid, b - a, -1.0)
                 for a, b in zip(traj1.psis, traj2.psis)]
        if max(diffs) != 0.0:
            raise RuntimeError("identical data produced distinct trajectories")
        return np.zeros(len(traj1.times))
    r = np.array([
        sp.hs_norm(grid, b - a, -1.0) / base
        for a, b in zip(traj1.psis, traj2.psis)
    ])
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
    profiles = [_free_flow(grid, traj.psis[i], -traj.times[i]) for i in idx]
    out = []
    for a, b in zip(range(len(idx) - 1), range(1, len(idx))):
        diff = sp.hs_norm(grid, profiles[b] - profiles[a], s)
        out.append((float(traj.times[idx[a]]), float(traj.times[idx[b]]), diff))
    return out
