"""Gauge-free integrator on the immersion itself.

Evolves a periodic immersion F of the d-torus in R^{d+2}, for any d
(a closed curve in R^3 for d=1, a surface in R^4 for d=2), directly
by the skew mean curvature flow d_t F = J H, where H is the mean
curvature vector and J rotates the orthonormal normal frame (nu1, nu2)
by +pi/2.  All spatial derivatives are spectral in the parameter
domain.

The module also extracts the gauge variables (g, lambda, psi, A) from
an immersion by the literal defining formulas, and provides the
brute-force cross-check: evolve the same data once through the gauged
Schrodinger formulation and once through the immersion flow, align
the extracted output (harmonic coordinates, Coulomb frame rotation,
residual phase/translation freedom), and report the discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from smcf import evolution as ev
from smcf import geometry as geo
from smcf import norms as nrm
from smcf import spectral as sp
from smcf.gauge_elliptic import EllipticConfig
from smcf.geometry import MetricField
from smcf.spectral import Grid

__all__ = [
    "DegenerateImmersionError",
    "GaugeEvolutionError",
    "ImmersionState",
    "ExtractedGauge",
    "induced_geometry",
    "smcf_step",
    "extract_gauge",
    "circle_state",
    "sphere_state",
    "graph_state",
    "immersion_from_psi",
    "OracleConfig",
    "OracleReport",
    "align_extracted",
    "oracle_compare",
]

_FRAME_TOL = 1e-10
# the most linearized re-fits of the residual phase, translation and offset
_FIT_SWEEPS = 3


class DegenerateImmersionError(RuntimeError):
    """The map stopped being an immersion (singular induced metric)."""


class GaugeEvolutionError(geo.NotContractingError):
    """The oracle's gauge-side evolution stopped contracting; construction
    and alignment failures stay plain ``NotContractingError``."""


@dataclass(frozen=True)
class ImmersionState:
    """Immersion with an orthonormal normal frame (nu1, nu2).

    The map is ``linear @ x + F`` where ``F`` is the periodic part,
    shape (d+2,) + grid.shape, and ``linear`` is a constant
    (d+2, d) matrix holding any affine winding of the parameter domain
    (identity block for graphs over the flat patch, zero for closed
    immersions); only the periodic part can be differentiated
    spectrally.  The frame vectors are unit, mutually orthogonal, and
    orthogonal to the tangent plane, checked at construction.
    """

    grid: Grid
    F: np.ndarray
    nu1: np.ndarray
    nu2: np.ndarray
    linear: np.ndarray | None = None

    def __post_init__(self):
        d = self.grid.d
        if self.F.shape != (d + 2,) + self.grid.shape:
            raise ValueError(f"F shape {self.F.shape} does not match grid")
        if self.linear is not None and self.linear.shape != (d + 2, d):
            raise ValueError("linear part must be a (d+2, d) matrix")
        dF = _tangents(self.grid, self.F, self.linear)
        checks = [
            np.einsum("i...,i...->...", self.nu1, self.nu1) - 1.0,
            np.einsum("i...,i...->...", self.nu2, self.nu2) - 1.0,
            np.einsum("i...,i...->...", self.nu1, self.nu2),
            np.einsum("ai...,i...->a...", dF, self.nu1),
            np.einsum("ai...,i...->a...", dF, self.nu2),
        ]
        worst = max(float(np.max(np.abs(c))) for c in checks)
        if worst > _FRAME_TOL:
            raise ValueError(f"frame not orthonormal/normal (defect {worst:.3e})")


@dataclass(frozen=True)
class ExtractedGauge:
    """Gauge variables read off an immersion by the defining formulas."""

    metric: MetricField
    lam: np.ndarray
    psi: np.ndarray
    A: np.ndarray


def _tangents(grid: Grid, F: np.ndarray, linear=None) -> np.ndarray:
    """d_a F (a, i) of the immersion."""
    dF = sp.gradient(grid, F)  # (a, i, spatial)
    if linear is not None:
        dF = dF + linear.T.reshape((grid.d, grid.d + 2) + (1,) * grid.d)
    return dF


def _gram(dF: np.ndarray, build):
    """build(g) for the induced metric g_ab = dF_a . dF_b; a singular g
    raises ``DegenerateImmersionError``."""
    try:
        return build(np.einsum("ai...,bi...->ab...", dF, dF))
    except geo.SingularMetricError as exc:
        raise DegenerateImmersionError(str(exc)) from exc


def _normal_frame(grid: Grid, F: np.ndarray, linear, nu1: np.ndarray,
                  nu2: np.ndarray):
    """(g^{-1}, n1, n2): the inverse induced metric and ``_frame_project``
    of (nu1, nu2) onto the normal space of F."""
    dF = _tangents(grid, F, linear)
    ginv = _gram(dF, geo._ldl_inverse)[0]
    return (ginv,) + _frame_project(dF, ginv, nu1, nu2)


def induced_geometry(grid: Grid, F: np.ndarray, linear=None):
    """Induced metric g_ab = dF_a . dF_b and the full mean curvature
    H = Delta_g F = g^{ab}(d2_ab F - Gamma^c_ab dF_c), with g^{ab} d2_ab F
    from ``sp.hessian_trace`` and the winding held in dF; normal to the
    surface to within discretization error."""
    dF = _tangents(grid, F, linear)
    metric = _gram(dF, lambda g: MetricField(grid, g))
    H = sp.hessian_trace(grid, metric.inv, F)
    H -= np.einsum("c...,ci...->i...", metric.harmonic_defect, dF)
    return metric, H


def _frame_project(dF: np.ndarray, ginv: np.ndarray, nu1: np.ndarray,
                   nu2: np.ndarray):
    """Minimal-rotation transport: project the old frame onto the
    normal space of the tangents dF (inverse metric ginv) and
    re-orthonormalize."""
    def normal_part(v):
        c = np.einsum("ai...,i...->a...", dF, v)
        return v - np.einsum("ab...,b...,ai...->i...", ginv, c, dF)

    w1 = normal_part(nu1)
    n1 = np.sqrt(np.einsum("i...,i...->...", w1, w1))
    if float(np.min(n1)) < 0.5:
        raise DegenerateImmersionError("normal frame collapsed onto the surface")
    w1 = w1 / n1
    w2 = normal_part(nu2)
    w2 = w2 - np.einsum("i...,i...->...", w2, w1) * w1
    n2 = np.sqrt(np.einsum("i...,i...->...", w2, w2))
    if float(np.min(n2)) < 0.5:
        raise DegenerateImmersionError("normal frame collapsed onto the surface")
    return w1, w2 / n2


def smcf_step(state: ImmersionState, dt: float) -> ImmersionState:
    """One RK4 step of d_t F = J H, with J(v) = (v.nu1) nu2 - (v.nu2) nu1
    (rotation by +pi/2).

    The frame is transported to each stage position by the
    minimal-rotation projection, and re-derived at the final point.
    J H needs only the normal part of H, so each stage takes
    g^{ab} d2_ab F . n from one gradient and one ``sp.hessian_trace`` of
    F; the term g^{ab} Gamma^c_ab dF_c of ``induced_geometry`` is
    tangent, so orthogonal to (n1, n2) up to round-off, and is not formed.
    """
    grid, F, lin = state.grid, state.F, state.linear

    def vel(Fs):
        ginv, n1, n2 = _normal_frame(grid, Fs, lin, state.nu1, state.nu2)
        H = sp.hessian_trace(grid, ginv, Fs)
        h1 = np.einsum("i...,i...->...", H, n1)
        h2 = np.einsum("i...,i...->...", H, n2)
        return h1 * n2 - h2 * n1

    k1 = vel(F)
    k2 = vel(F + 0.5 * dt * k1)
    k3 = vel(F + 0.5 * dt * k2)
    k4 = vel(F + dt * k3)
    F_new = F + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    n1, n2 = _normal_frame(grid, F_new, lin, state.nu1, state.nu2)[1:]
    return ImmersionState(grid=grid, F=F_new, nu1=n1, nu2=n2, linear=lin)


def extract_gauge(state: ImmersionState) -> ExtractedGauge:
    """Read off (g, lambda, psi, A) by the literal formulas:
    lam_ab = (d^2_{ab} F) . (nu1 + i nu2), psi = g^{ab} lam_ab,
    A_a = (d_a nu1) . nu2."""
    grid = state.grid
    metric = _gram(_tangents(grid, state.F, state.linear),
                   lambda g: MetricField(grid, g))
    d2F = sp.hessian(grid, state.F)  # (c, a, i)
    kappa = np.einsum("cai...,i...->ca...", d2F, state.nu1)
    tau = np.einsum("cai...,i...->ca...", d2F, state.nu2)
    lam = kappa + 1j * tau
    psi = np.einsum("ab...,ab...->...", metric.inv, lam)
    A = np.einsum("ai...,i...->a...", sp.gradient(grid, state.nu1), state.nu2)
    return ExtractedGauge(metric=metric, lam=lam, psi=psi, A=A)


def _coulomb_angle(metric: MetricField, A: np.ndarray) -> np.ndarray:
    """Mean-zero theta with Delta_g theta = -div_g A (covariant divergence):
    -div_g A = ``geo._coulomb_divergence_data`` - d_a A_a, contracted first."""
    dA = sp.gradient(metric.grid, A)  # (c, a) = d_c A_a
    rhs = geo._coulomb_divergence_data(metric, A, dA) - np.einsum("aa...->...", dA)
    return geo.solve_laplace_beltrami(metric, rhs, "Coulomb angle solve", 1e-10, 200)[0]


# --------------------------------------------------------------------------
# reference immersions


def circle_state(n: int = 256, radius: float = 1.0) -> ImmersionState:
    """Round circle of the given radius in the z=0 plane of R^3, with
    the parallel (rotation-minimizing) normal frame (e_z, outward radial)."""
    grid = Grid(d=1, n=n)
    s = grid.coords()[0]
    F = radius * np.stack([np.cos(s), np.sin(s), np.zeros_like(s)])
    nu1 = np.stack([np.zeros_like(s), np.zeros_like(s), np.ones_like(s)])
    nu2 = np.stack([np.cos(s), np.sin(s), np.zeros_like(s)])
    return ImmersionState(grid=grid, F=F, nu1=nu1, nu2=nu2)


def sphere_state(n: int = 64, radius: float = 1.0) -> ImmersionState:
    """Round sphere S^2(r) in R^3 x {0} of R^4 on a lat-long double
    cover, with the colatitude offset by half a cell so both poles fall
    between grid lines; the frame is (outward radial, e_4).

    Every component of F is a trigonometric polynomial of the
    parameters, so the spectral derivatives are exact.
    """
    grid = Grid(d=2, n=n)
    x = grid.coords()
    th = x[0] + 0.5 * grid.dx
    ph = x[1]
    radial = np.stack([
        np.sin(th) * np.cos(ph),
        np.sin(th) * np.sin(ph),
        np.cos(th),
        np.zeros(grid.shape),
    ])
    F = radius * radial
    e4 = np.zeros((4,) + grid.shape)
    e4[3] = 1.0
    return ImmersionState(grid=grid, F=F, nu1=radial, nu2=e4)


def graph_state(grid: Grid, w: np.ndarray) -> ImmersionState:
    """Normal graph over the flat torus: F = (x, Re w, Im w) in R^{d+2},
    with the frame obtained by projecting (e_{d+1}, e_{d+2}) onto the
    normal space; w = 0 is the flat patch."""
    d = grid.d
    F = np.zeros((d + 2,) + grid.shape)
    F[d], F[d + 1] = w.real, w.imag
    lin = np.eye(d + 2, d)
    e = np.zeros((2, d + 2) + grid.shape)
    e[0, d] = e[1, d + 1] = 1.0
    nu1, nu2 = _normal_frame(grid, F, lin, *e)[1:]
    return ImmersionState(grid=grid, F=F, nu1=nu1, nu2=nu2, linear=lin)


# --------------------------------------------------------------------------
# alignment and the oracle comparison


def _phase_translation_fit(grid: Grid, psi: np.ndarray, ref: np.ndarray):
    """Best global phase, torus translation, and constant offset
    matching psi to ref.

    The residual freedom after alignment is a constant frame rotation
    and a translation of the harmonic coordinates; on the periodic
    domain the zero mode of psi is additionally obstructed (the
    elliptic solves on the reference side project means out, while the
    geometric side's mean is constrained by the immersion), so a
    constant complex offset is fitted alongside.  All parameters come
    from least squares against the reference, linearized and
    re-applied exactly by ``geo.fixed_point`` until the largest fitted
    coefficient is at most 1e-14, within ``_FIT_SWEEPS`` sweeps.
    """
    one = np.ones(grid.shape, dtype=complex)

    def sweep(x):
        cur, theta, shift, offset = x
        cols = [1j * cur, *sp.gradient(grid, cur), one, 1j * one]
        Areal = np.stack([np.concatenate([c.real.ravel(), c.imag.ravel()])
                          for c in cols], axis=1)
        b = ref - cur
        breal = np.concatenate([b.real.ravel(), b.imag.ravel()])
        coef, *_ = np.linalg.lstsq(Areal, breal, rcond=None)
        theta += coef[0]
        shift = shift + coef[1 : 1 + grid.d]
        offset += coef[1 + grid.d] + 1j * coef[2 + grid.d]
        cur = np.exp(1j * theta) * sp.translate(grid, psi, shift) + offset
        return (cur, theta, shift, offset), float(np.max(np.abs(coef)))

    x0 = (psi, 0.0, np.zeros(grid.d), 0.0 + 0.0j)
    return geo.fixed_point(sweep, x0, "alignment fit", 1e-14, _FIT_SWEEPS)[0]


def align_extracted(grid: Grid, ex: ExtractedGauge, psi_ref: np.ndarray):
    """Map extracted data into the reference gauge/coordinates.

    Steps: (i) pass to harmonic coordinates of the extracted metric and
    pull psi and A back through the coordinate change, (ii) rotate into
    the Coulomb frame there, (iii) fix the leftover constant phase and
    coordinate translation against the reference field.  Returns the
    aligned psi and a diagnostics dict.

    Step (i) takes the whole chart from ``geometry.harmonic_coordinate_fix``:
    the grid preimages x, the inverse Jacobian there and the
    pulled-back metric are computed once, and psi and A are interpolated
    at the same x.
    """
    phi, x, inv_jac, metric_y = geo.harmonic_coordinate_fix(ex.metric)
    psi_y = sp.trig_interp(grid, ex.psi, x).reshape(grid.shape)
    A_at_x = sp.trig_interp(grid, ex.A, x).real  # (a, m)
    A_y = np.einsum("mac,am->cm", inv_jac, A_at_x).reshape((grid.d,) + grid.shape)

    theta = _coulomb_angle(metric_y, A_y)
    psi_y = np.exp(-1j * theta) * psi_y

    psi_al, theta0, shift, offset = _phase_translation_fit(grid, psi_y, psi_ref)
    return psi_al, {
        "coordinate_shift": phi,
        "coulomb_angle_linf": float(np.max(np.abs(theta))),
        "global_phase": float(theta0),
        "translation": shift,
        "mean_offset": complex(offset),
    }


def immersion_from_psi(grid: Grid, psi0: np.ndarray, tol: float = 1e-7) -> ImmersionState:
    """Graph immersion whose extracted-and-aligned psi equals psi0.

    Starts from the linearized prescribed-curvature solution
    w = Delta^{-1} psi0 and removes the quadratic mismatch by Picard
    iteration, so the construction residual sits at the solver
    tolerance rather than at O(amplitude^2).  psi0 must be free of
    Nyquist-plane content (see ``spectral.drop_nyquist``).
    """
    def sweep(x):
        # the iterate carries the graph it measured, which is returned
        w, _ = x
        state = graph_state(grid, w)
        aligned, _ = align_extracted(grid, extract_gauge(state), psi0)
        err = aligned - psi0
        return (w - sp.inverse_laplacian(grid, err), state), sp.l2_norm(grid, err)

    x0 = (sp.inverse_laplacian(grid, psi0), None)
    (_, state), _, _ = geo.fixed_point(
        sweep, x0, "prescribed-curvature construction", tol, 40)
    return state


@dataclass(frozen=True)
class OracleConfig:
    """Parameters of the two-integrator comparison.

    The gauge side runs the fourth-order ``lawson_rk4`` step: at the
    default ``dt_gauge`` of 0.05 it is more accurate than the
    second-order split step at a quarter of that step (README,
    Numerical notes).  A positive ``t_end`` must hold at least one
    gauge step.
    """

    t_end: float = 0.1
    dt_gauge: float = 0.05
    dt_immersion: float = 0.002
    construction_tol: float = 1e-7
    elliptic: EllipticConfig = field(default_factory=EllipticConfig)

    def __post_init__(self):
        if not self.t_end >= 0:
            raise ValueError("t_end must be nonnegative")
        for dt in (self.dt_gauge, self.dt_immersion):
            ev.equal_steps(self.t_end, dt)  # each side's step count
        if not self.construction_tol > 0:
            raise ValueError("construction_tol must be positive")
        if 0 < self.t_end < self.dt_gauge:
            raise ValueError(f"t_end {self.t_end:g} is shorter than one gauge "
                             f"step (dt_gauge {self.dt_gauge:g})")


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one gauge-vs-immersion comparison.

    ``discrepancy`` is the L^2 norm of ``psi_gauge - psi_aligned``.  It
    is not a pure truncation error: it also holds the construction
    residual of ``immersion_from_psi`` (about 5e-8 at the default
    ``construction_tol``) and the drift from the torus metric mean,
    which the gauge side projects to zero (growing like
    t * amplitude^3).  Both are independent of the time steps.
    """

    t_end: float
    discrepancy: float
    psi_gauge: np.ndarray
    psi_aligned: np.ndarray
    alignment: dict


def oracle_compare(grid: Grid, psi0: np.ndarray, cfg: OracleConfig) -> OracleReport:
    """Evolve psi0 through both formulations and compare at t_end.

    The gauged Schrodinger run (fourth-order ``lawson_rk4`` steps) and
    the direct immersion run (RK4 steps), each in the fewest equal steps
    no longer than ``dt_gauge`` and ``dt_immersion``
    (``evolution.equal_steps``), start from the same constructed graph
    immersion; at the end the immersion's extracted psi is aligned
    (coordinates, frame, residual phase and translation) to the gauge
    result and the L^2 discrepancy reported.

    The discrepancy includes two dt-independent parts besides the
    truncation error of the two integrators: the construction residual
    and the zero-mode drift (see ``OracleReport``).  To see convergence
    in the steps, compare ``psi_aligned - psi_gauge`` across runs.
    A gauge-side evolution that stops contracting raises
    ``GaugeEvolutionError``.  Any d >= 2 runs; a lower d is the gauge
    side's ``ValueError`` (``norms.exponents``).
    """
    nrm.exponents(grid.d)  # the gauge side's dimension rule, before the construction
    psi0 = sp.drop_nyquist(grid, psi0.astype(complex))
    state = immersion_from_psi(grid, psi0, tol=cfg.construction_tol)

    psi_g = psi0
    if cfg.t_end > 0:
        ecfg = ev.EvolutionConfig(dt=cfg.dt_gauge, t_end=cfg.t_end,
                                  scheme="lawson_rk4", elliptic=cfg.elliptic)
        try:
            for _, _, st in ev.stepper(ev.resolve_gauge(grid, psi0, ecfg), ecfg):
                psi_g = st.psi
        except geo.NotContractingError as exc:
            raise GaugeEvolutionError(f"gauge evolution: {exc}",
                                      residual=exc.residual) from exc
        n_steps, dt = ev.equal_steps(cfg.t_end, cfg.dt_immersion)
        for _ in range(n_steps):
            state = smcf_step(state, dt)

    aligned, info = align_extracted(grid, extract_gauge(state), psi_g)
    disc = sp.l2_norm(grid, psi_g - aligned)
    return OracleReport(t_end=cfg.t_end, discrepancy=disc, psi_gauge=psi_g,
                        psi_aligned=aligned, alignment=info)
