"""Gauge-free integrator on the immersion itself.

Evolves a periodic immersion F (a closed curve in R^3 for d=1, a
doubly-periodic surface in R^4 for d=2) directly by the skew
mean curvature flow d_t F = J H, where H is the mean curvature vector
and J rotates the orthonormal normal frame (nu1, nu2) by +pi/2.  All
spatial derivatives are spectral in the parameter domain.

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
from smcf import gauge_elliptic as ge
from smcf import geometry as geo
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
    "gauge_fix_frame",
    "circle_state",
    "sphere_state",
    "flat_patch_state",
    "graph_state",
    "immersion_from_psi",
    "OracleConfig",
    "OracleReport",
    "align_extracted",
    "oracle_compare",
]

_FRAME_TOL = 1e-10


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
        if d not in (1, 2):
            raise ValueError("immersions are supported for d in {1, 2}")
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


def _tangents(grid: Grid, F: np.ndarray, linear=None, Fh=None) -> np.ndarray:
    """d_a F (a, i) of the immersion, ``Fh`` as in ``spectral.spectrum``."""
    dF = sp.gradient(grid, F, Fh)  # (a, i, spatial)
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


def _induced_metric(grid: Grid, F: np.ndarray, linear=None):
    """The spectrum Fh of F, the tangents dF (a, i) and the induced
    MetricField, from one transform of F."""
    Fh = sp.spectrum(grid, F)[0]
    dF = _tangents(grid, F, linear, Fh)
    return Fh, dF, _gram(dF, lambda g: MetricField(grid, g))


def _mean_curvature(F: np.ndarray, Fh: np.ndarray, metric: MetricField,
                    linear=None) -> np.ndarray:
    """H = Delta_g F: the componentwise Laplace-Beltrami of the periodic
    part (spectrum Fh), minus g^{ab} Gamma^c_{ab} linear_c for the
    winding, whose second derivatives vanish."""
    H = metric.laplace_beltrami(F, Fh)
    if linear is not None:
        H -= np.einsum("c...,ic->i...", metric.harmonic_defect, linear)
    return H


def _normal_frame(grid: Grid, F: np.ndarray, linear, nu1: np.ndarray,
                  nu2: np.ndarray):
    """``_frame_project`` onto the normal space of F, from the tangents
    and g^{-1} alone."""
    dF = _tangents(grid, F, linear)
    return _frame_project(dF, _gram(dF, geo._ldl_inverse)[0], nu1, nu2)


def induced_geometry(grid: Grid, F: np.ndarray, linear=None):
    """Induced metric g_ab = dF_a . dF_b and mean curvature H = Delta_g F,
    normal to the surface to within discretization error."""
    Fh, _, metric = _induced_metric(grid, F, linear)
    return metric, _mean_curvature(F, Fh, metric, linear)


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
    Each stage transforms F once, for the tangents, the induced metric
    and H.
    """
    grid, F, lin = state.grid, state.F, state.linear

    def vel(Fs):
        Fh, dF, metric = _induced_metric(grid, Fs, lin)
        n1, n2 = _frame_project(dF, metric.inv, state.nu1, state.nu2)
        H = _mean_curvature(Fs, Fh, metric, lin)
        h1 = np.einsum("i...,i...->...", H, n1)
        h2 = np.einsum("i...,i...->...", H, n2)
        return h1 * n2 - h2 * n1

    k1 = vel(F)
    k2 = vel(F + 0.5 * dt * k1)
    k3 = vel(F + 0.5 * dt * k2)
    k4 = vel(F + dt * k3)
    F_new = F + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    n1, n2 = _normal_frame(grid, F_new, lin, state.nu1, state.nu2)
    return ImmersionState(grid=grid, F=F_new, nu1=n1, nu2=n2, linear=lin)


def extract_gauge(state: ImmersionState) -> ExtractedGauge:
    """Read off (g, lambda, psi, A) by the literal formulas:
    lam_ab = (d^2_{ab} F) . (nu1 + i nu2), psi = g^{ab} lam_ab,
    A_a = (d_a nu1) . nu2."""
    grid = state.grid
    Fh, _, metric = _induced_metric(grid, state.F, state.linear)
    d2F = sp.hessian(grid, state.F, Fh)  # (c, a, i)
    kappa = np.einsum("cai...,i...->ca...", d2F, state.nu1)
    tau = np.einsum("cai...,i...->ca...", d2F, state.nu2)
    lam = kappa + 1j * tau
    psi = np.einsum("ab...,ab...->...", metric.inv, lam)
    A = np.einsum("ai...,i...->a...", sp.gradient(grid, state.nu1).real, state.nu2)
    return ExtractedGauge(metric=metric, lam=lam, psi=psi, A=A)


def _coulomb_angle(grid: Grid, metric: MetricField, A: np.ndarray) -> np.ndarray:
    """Mean-zero theta with Delta_g theta = -div_g A (covariant divergence)."""
    dA = geo.covariant_derivative(grid, A, 0, 1, metric).real  # (c, a)
    rhs = -np.einsum("ca...,ca...->...", metric.inv, dA)
    return geo.solve_laplace_beltrami(metric, rhs, "Coulomb angle solve", 1e-10, 200)


def gauge_fix_frame(state: ImmersionState) -> ImmersionState:
    """Rotate the normal frame into the Coulomb gauge div_g A = 0.

    The rotation angle solves Delta_g theta = -div_g A with zero mean,
    so a constant pre-rotation of the frame is left untouched.
    """
    ex = extract_gauge(state)
    theta = _coulomb_angle(state.grid, ex.metric, ex.A)
    c, s = np.cos(theta), np.sin(theta)
    nu1 = c * state.nu1 + s * state.nu2
    nu2 = -s * state.nu1 + c * state.nu2
    return ImmersionState(grid=state.grid, F=state.F, nu1=nu1, nu2=nu2,
                          linear=state.linear)


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


def flat_patch_state(grid: Grid) -> ImmersionState:
    """The flat plane patch F = (x1, x2, 0, 0) with frame (e3, e4)."""
    return graph_state(grid, np.zeros(grid.shape, dtype=complex))


def graph_state(grid: Grid, w: np.ndarray) -> ImmersionState:
    """Normal graph over the flat patch: F = (x1, x2, Re w, Im w), with
    the frame obtained by projecting (e3, e4) onto the normal space."""
    if grid.d != 2:
        raise ValueError("graph immersions need a two-dimensional parameter grid")
    zero = np.zeros(grid.shape)
    F = np.stack([zero, zero, w.real, w.imag])
    lin = np.zeros((4, 2))
    lin[0, 0] = 1.0
    lin[1, 1] = 1.0
    e3 = np.zeros((4,) + grid.shape)
    e3[2] = 1.0
    e4 = np.zeros((4,) + grid.shape)
    e4[3] = 1.0
    nu1, nu2 = _normal_frame(grid, F, lin, e3, e4)
    return ImmersionState(grid=grid, F=F, nu1=nu1, nu2=nu2, linear=lin)


# --------------------------------------------------------------------------
# alignment and the oracle comparison


def _phase_translation_fit(grid: Grid, psi: np.ndarray, ref: np.ndarray,
                           sweeps: int = 3):
    """Best global phase, torus translation, and constant offset
    matching psi to ref.

    The residual freedom after alignment is a constant frame rotation
    and a translation of the harmonic coordinates; on the periodic
    domain the zero mode of psi is additionally obstructed (the
    elliptic solves on the reference side project means out, while the
    geometric side's mean is constrained by the immersion), so a
    constant complex offset is fitted alongside.  All parameters come
    from least squares against the reference, linearized and
    re-applied exactly for a few sweeps.
    """
    theta_tot = 0.0
    shift_tot = np.zeros(grid.d)
    offset_tot = 0.0 + 0.0j
    one = np.ones(grid.shape, dtype=complex)
    cur = psi
    for _ in range(sweeps):
        cols = [1j * cur, *sp.gradient(grid, cur), one, 1j * one]
        Areal = np.stack(
            [np.concatenate([c.real.ravel(), c.imag.ravel()]) for c in cols],
            axis=1,
        )
        b = ref - cur
        breal = np.concatenate([b.real.ravel(), b.imag.ravel()])
        coef, *_ = np.linalg.lstsq(Areal, breal, rcond=None)
        theta_tot += coef[0]
        shift_tot += coef[1 : 1 + grid.d]
        offset_tot += coef[1 + grid.d] + 1j * coef[2 + grid.d]
        cur = np.exp(1j * theta_tot) * sp.translate(grid, psi, shift_tot) + offset_tot
        if np.max(np.abs(coef)) <= 1e-14:
            break
    return cur, theta_tot, shift_tot, offset_tot


def align_extracted(grid: Grid, ex: ExtractedGauge, psi_ref: np.ndarray):
    """Map extracted data into the reference gauge/coordinates.

    Steps: (i) pass to harmonic coordinates of the extracted metric and
    pull psi and A back through the coordinate change, (ii) rotate into
    the Coulomb frame there, (iii) fix the leftover constant phase and
    coordinate translation against the reference field.  Returns the
    aligned psi and a diagnostics dict.

    Step (i) takes the whole chart from ``geometry._harmonic_chart``:
    the grid preimages x, the inverse Jacobian there and the
    pulled-back metric are computed once, as in
    ``harmonic_coordinate_fix``, and psi and A are interpolated at the
    same x.
    """
    phi, x, inv_jac, metric_y = geo._harmonic_chart(ex.metric)
    psi_y = sp.trig_interp(grid, ex.psi, x).reshape(grid.shape)
    A_at_x = sp.trig_interp(grid, ex.A, x).real  # (a, m)
    A_y = np.einsum("mac,am->cm", inv_jac, A_at_x).reshape((grid.d,) + grid.shape)

    theta = _coulomb_angle(grid, metric_y, A_y)
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
    """Parameters of the two-integrator comparison."""

    t_end: float = 0.1
    dt_gauge: float = 0.0125
    dt_immersion: float = 0.002
    construction_tol: float = 1e-7
    elliptic: EllipticConfig = field(default_factory=EllipticConfig)

    def __post_init__(self):
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.dt_gauge <= 0 or self.dt_immersion <= 0:
            raise ValueError("time steps must be positive")


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

    The gauged Schrodinger run and the direct immersion run start from
    the same constructed graph immersion; at the end the immersion's
    extracted psi is aligned (coordinates, frame, residual phase and
    translation) to the gauge result and the L^2 discrepancy reported.

    The discrepancy includes two dt-independent parts besides the
    truncation error of the two integrators: the construction residual
    and the zero-mode drift (see ``OracleReport``).  To see convergence
    in the steps, compare ``psi_aligned - psi_gauge`` across runs.
    A gauge-side evolution that stops contracting raises
    ``GaugeEvolutionError``.
    """
    if grid.d != 2:
        raise ValueError("the oracle comparison runs on two-dimensional grids")
    psi0 = sp.drop_nyquist(grid, psi0.astype(complex))
    state = immersion_from_psi(grid, psi0, tol=cfg.construction_tol)

    if cfg.t_end == 0.0:
        psi_g = psi0.astype(complex)
    else:
        ecfg = ev.EvolutionConfig(dt=cfg.dt_gauge, t_end=cfg.t_end,
                                  elliptic=cfg.elliptic)
        try:
            for _, _, psi_g, _ in ev.stepper(grid, psi0, ecfg):
                pass
        except geo.NotContractingError as exc:
            raise GaugeEvolutionError(f"gauge evolution: {exc}",
                                      residual=exc.residual) from exc

    n_steps = max(1, int(round(cfg.t_end / cfg.dt_immersion)))
    dt = cfg.t_end / n_steps if cfg.t_end > 0 else 0.0
    for _ in range(n_steps if cfg.t_end > 0 else 0):
        state = smcf_step(state, dt)

    aligned, info = align_extracted(grid, extract_gauge(state), psi_g)
    disc = sp.l2_norm(grid, psi_g - aligned)
    return OracleReport(t_end=cfg.t_end, discrepancy=disc, psi_gauge=psi_g,
                        psi_aligned=aligned, alignment=info)
