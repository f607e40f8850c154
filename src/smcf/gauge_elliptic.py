"""Fixed-time elliptic solver for the gauge variables.

Given the complex scalar mean curvature psi on the grid, recover the
full gauge state (second fundamental form lambda, metric g, advection
field V, spatial connection A, temporal connection B) by an outer
contraction iteration over the coupled elliptic system:

  * a div-curl system for lambda driven by the gauged gradient of psi,
  * the harmonic-coordinate quasilinear equation for g,
  * a covariant Laplace equation for V,
  * a div-curl system for A with the Coulomb condition built in,
  * a Laplace-Beltrami equation for B.

All torus zero modes are projected out (the compatibility integrals
that vanish on decaying data need not vanish on the torus); discarded
means are surfaced through the constraint report's non-decay entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from smcf import geometry as geo
from smcf import norms as nrm
from smcf import spectral as sp
from smcf.geometry import MetricField
from smcf.spectral import Grid

__all__ = [
    "EllipticConfig",
    "GaugeState",
    "SmallnessViolatedError",
    "LostPositivityError",
    "recover_lambda",
    "solve_metric",
    "solve_VAB",
    "metric_equation_residual",
    "advection_equation_residual",
    "temporal_equation_residual",
    "solve_elliptic_system",
    "gauge_norm",
    "LinearResponse",
    "linearize_fd",
]


class SmallnessViolatedError(ValueError):
    """The data exceeds the smallness threshold the solver relies on."""


class LostPositivityError(RuntimeError):
    """The metric iterate stopped being positive definite."""


@dataclass(frozen=True)
class EllipticConfig:
    tol: float = 1e-10
    max_iter: int = 200
    smallness_threshold: float = 0.05

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("need tol > 0 and max_iter >= 1")


@dataclass(frozen=True)
class GaugeState:
    """Converged gauge variables for one psi at one time."""

    grid: Grid
    psi: np.ndarray
    metric: MetricField
    lam: np.ndarray
    V: np.ndarray
    A: np.ndarray
    B: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def constraint_report(self) -> geo.ConstraintReport:
        """The mean-projected constraint residuals of this state, computed
        once and kept in ``diagnostics["residuals"]``."""
        report = self.diagnostics.get("residuals")
        if report is None:
            report = geo.constraint_residuals(
                self.grid, self.psi, self.metric, self.lam, self.A
            )
            self.diagnostics["residuals"] = report
        return report


def _raise1(metric, T):
    """T^a_b = g^{am} T_{mb}."""
    return np.einsum("am...,mb...->ab...", metric.inv, T)


def _raise2(metric, T):
    """T^{ab} = g^{am} g^{bn} T_{mn}."""
    return np.einsum("am...,bn...,mn...->ab...", metric.inv, metric.inv, T)


def _contract(update, x0, cfg, name):
    """``geo.fixed_point`` on x <- update(x) at the config's tolerance and
    iteration limit, sized by the largest change of an entry."""
    def step(x):
        x_new = update(x)
        return x_new, float(np.max(np.abs(x_new - x)))

    return geo.fixed_point(step, x0, name, cfg.tol, cfg.max_iter)[0]


def _hodge_solve(grid, curl, div):
    """Flat div-curl solve: d_a u_b - d_b u_a = curl_ab, d_a u_a = div.

    Frequency-wise u_b = (xi_b div + xi_a curl_ab) / (i |xi|^2), i.e.
    -(i xi_b div + i xi_a curl_ab) / |xi|^2; the zero mode is dropped
    (torus kernel).  Axes of curl after (a, b), and the matching leading
    axes of div, are solved side by side.  Real data is solved on the
    half spectrum.
    """
    if np.iscomplexobj(curl) or np.iscomplexobj(div):
        curl, div = curl.astype(complex, copy=False), div.astype(complex, copy=False)
    Ch, mult, inverse = sp.spectrum(grid, curl)
    Dh = sp.spectrum(grid, div)[0]
    num = np.einsum("b...,...->b...", mult.ik, Dh) \
        + np.einsum("a...,ab...->b...", mult.ik, Ch)
    return inverse(mult.inv_lap * num)


def recover_lambda(grid, psi, metric, A, cfg: EllipticConfig) -> np.ndarray:
    """Solve the div-curl system for the second fundamental form.

    Covariant curl-freeness and the gauged divergence identity are
    rewritten as a flat Hodge system per column with the metric and
    connection corrections iterated to a fixed point; the iterate is
    symmetrized every sweep.
    """
    Gam = metric.christoffel
    dpsi = sp.gradient(grid, psi) + 1j * A * psi  # gauged gradient of psi

    def update(lam):
        # flat curl data (a, b, g): Gamma and A corrections of the covariant curl
        gl = np.einsum("sag...,bs...->abg...", Gam, lam) \
            - 1j * np.einsum("a...,bg...->abg...", A, lam)
        C = gl - np.einsum("abg...->bag...", gl)
        # flat divergence data: move the non-flat part of the gauged
        # covariant divergence to the right-hand side
        dlam = sp.gradient(grid, lam)  # (c, a, b), flat
        flat_div = np.einsum("aab...->b...", dlam)
        dlam = geo._add_connection(grid, lam, dlam, 0, 2, metric, A)
        D = dpsi - np.einsum("ca...,cab...->b...", metric.inv, dlam) + flat_div
        lam_new = _hodge_solve(grid, C, D)  # every column g at once
        return 0.5 * (lam_new + np.einsum("ab...->ba...", lam_new))

    return _contract(update, sp.riesz_pairs(grid, psi), cfg, "lambda recovery")


def _metric_rhs(grid, m, lam, psi, dg=None):
    """Right-hand side of the harmonic-coordinate metric equation;
    ``dg`` is ``sp.gradient`` of m.g if the caller has it."""
    if dg is None:
        dg = sp.gradient(grid, m.g)    # (c, a, b) = d_c g_ab
    dginv = sp.gradient(grid, m.inv)  # (c, a, b) = d_c g^{ab}
    t = np.einsum("gab...,bas...->gs...", dginv, dg)
    rhs = -t - np.einsum("gs...->sg...", t)
    rhs += np.einsum("gab...,sab...->gs...", dg, dginv)
    gam_low = np.einsum("nm...,msa...->nsa...", m.g, m.christoffel)
    rhs += 2.0 * np.einsum("ab...,nsa...,nbg...->gs...",
                           m.inv, gam_low, m.christoffel)
    lam_up = _raise1(m, lam)
    rhs -= 2.0 * ((lam * np.conj(psi)).real
                  - np.einsum("ag...,as...->gs...", lam, np.conj(lam_up)).real)
    return rhs


def _weighted_second(grid, coeff, g, gh=None):
    """Re coeff^{ab}(x) d^2_{ab} g for a symmetric coeff, accumulated
    pairwise to bound memory (``gh`` as in ``sp.spectrum``)."""
    gh, mult, inverse = sp.spectrum(grid, g, gh)
    acc = np.zeros(g.shape)
    for a in range(grid.d):
        for b in range(a, grid.d):
            d2 = inverse(mult.kk[a, b] * gh).real
            fac = 1.0 if a == b else 2.0
            acc += fac * coeff[a, b] * d2
    return acc


def metric_equation_residual(grid, metric, lam, psi):
    """Literal left-minus-right of the metric equation (mean-projected)."""
    lhs = _weighted_second(grid, metric.inv, metric.g)
    res = lhs - _metric_rhs(grid, metric, lam, psi)
    return sp.mean_zero(grid, res)


def solve_metric(grid, lam, psi, cfg: EllipticConfig, g0: MetricField | None = None):
    """Solve the harmonic-coordinate quasilinear equation for the metric.

    g^{ab} d^2_{ab} g_{cs} equals quadratic first-derivative terms plus
    the curvature source -2 Re(lam_{cs} conj(psi) - lam_{ac} conj(lam)^a_s);
    Picard iteration with the flat Laplacian as preconditioner.
    """
    h0 = g0.h if g0 is not None else np.zeros((grid.d, grid.d) + grid.shape)
    eye = np.eye(grid.d).reshape((grid.d, grid.d) + (1,) * grid.d)

    def update(h):
        # g is transformed once per sweep; its spectrum and gradient serve
        # the Christoffel symbols, the right-hand side and the principal term
        g = 0.5 * (h + np.einsum("ab...->ba...", h)) + eye
        gh = sp.spectrum(grid, g)[0]
        dg = sp.gradient(grid, g, gh)
        try:
            m = MetricField(grid, g, dg)
        except geo.SingularMetricError as exc:
            raise LostPositivityError(str(exc)) from exc
        rhs = _metric_rhs(grid, m, lam, psi, dg)
        # move the variable-coefficient part of the principal term over
        acc = _weighted_second(grid, m.inv - eye, g, gh)
        h_new = sp.inverse_laplacian(grid, rhs - acc)
        h_new = 0.5 * (h_new + np.einsum("ab...->ba...", h_new))
        return sp.mean_zero(grid, h_new)

    h = _contract(update, h0, cfg, "metric equation")
    try:
        return MetricField.from_h(grid, h)
    except geo.SingularMetricError as exc:
        raise LostPositivityError(str(exc)) from exc


def _vector_laplacian(grid, metric, V, dV):
    """Covariant vector Laplacian g^{bc} nabla_b nabla_c V^g, with
    dV = nabla V in index order (g, c).  The flat second derivatives of V
    come from ``sp.hessian``, not from differentiating dV (which would
    drop the diagonal Nyquist mode of a real V)."""
    flat = np.einsum("bcg...->bgc...", sp.hessian(grid, V)) \
        + sp.gradient(grid, np.einsum("gcs...,s...->gc...", metric.christoffel, V))
    d2 = geo._add_connection(grid, dV, flat, 1, 1, metric, None)  # (g, c2, c1)
    return np.einsum("bc...,gbc...->g...", metric.inv, d2)


def _grad_up(metric, dV):
    """nabla^a V^b, from dV = nabla V, index order (b, c)."""
    return np.einsum("ac...,bc...->ab...", metric.inv, dV.real)


def _advection_source(grid, metric, lam, psi):
    """The V-independent parts of the advection right-hand side:
    (rhs at V = 0, W with rhs linear in V through -W V)."""
    lam_up1 = _raise1(metric, lam)
    lam_up2 = _raise2(metric, lam)
    M = (lam_up2 * np.conj(psi)).imag                     # Im(lam^{ag} psi-bar)
    dM = geo.covariant_derivative(grid, M, 2, 0, metric)  # (a, g, c)
    rhs0 = 2.0 * np.einsum("aga...->g...", dM).real
    W = (lam_up1 * np.conj(psi)).real \
        - np.einsum("as...,ag...->gs...", lam, np.conj(lam_up2)).real
    lam_psi_up = (psi * np.conj(lam_up2)).imag            # Im(psi lam-bar^{ab})
    rhs0 += 2.0 * np.einsum("ab...,gab...->g...", lam_psi_up, metric.christoffel)
    return rhs0, W


def _advection_rhs(metric, source, V, dV):
    """Right-hand side of the advection-field equation at V (with
    dV = nabla V), from ``_advection_source``."""
    rhs0, W = source
    rhs = rhs0 - np.einsum("gs...,s...->g...", W, V)
    rhs += 2.0 * np.einsum("ab...,gab...->g...", _grad_up(metric, dV),
                           metric.christoffel)
    return rhs


def advection_equation_residual(grid, metric, lam, psi, V):
    """Literal left-minus-right of the advection equation (mean-projected)."""
    dV = geo.covariant_derivative(grid, V, 1, 0, metric)
    res = _vector_laplacian(grid, metric, V, dV).real \
        - _advection_rhs(metric, _advection_source(grid, metric, lam, psi), V, dV)
    return sp.mean_zero(grid, res)


def _temporal_rhs(grid, metric, lam, psi, V, A):
    """Right-hand side of the temporal-connection equation."""
    lam_up1 = _raise1(metric, lam)
    lam_up2 = _raise2(metric, lam)
    N = (lam_up1 * np.conj(psi)).real                      # Re(lam^s_g psi-bar)
    dN = geo.covariant_derivative(grid, N, 1, 1, metric)   # (s, c, g)
    wvec = np.einsum("ssg...->g...", dN).real
    dw = geo.covariant_derivative(grid, wvec, 0, 1, metric).real
    rhs = -np.einsum("cg...,cg...->...", metric.inv, dw)
    rhs += 0.5 * metric.laplace_beltrami((psi * np.conj(psi)).real).real
    u = np.einsum("sg...,sb...,b...->g...", lam_up1, np.conj(lam), V).imag
    du = geo.covariant_derivative(grid, u, 0, 1, metric).real
    rhs += np.einsum("cg...,cg...->...", metric.inv, du)
    gradV_up = _grad_up(metric, geo.covariant_derivative(grid, V, 1, 0, metric))
    sym = 2.0 * (psi * np.conj(lam_up2)).imag \
        + gradV_up + np.einsum("ab...->ba...", gradV_up)
    rhs += np.einsum("bg...,bg...->...", sym, sp.gradient(grid, A).real)
    return rhs


def temporal_equation_residual(grid, metric, lam, psi, V, A, B):
    """Literal left-minus-right of the temporal equation (mean-projected)."""
    res = metric.laplace_beltrami(B).real \
        - _temporal_rhs(grid, metric, lam, psi, V, A)
    return sp.mean_zero(grid, res)


def _solve_A(grid, lam, metric, cfg, A0):
    """Coulomb connection A: the div-curl system with the Coulomb
    condition built in; reads (lambda, g) only."""
    d = grid.d
    F = np.einsum("ga...,bg...->ab...", _raise1(metric, lam), np.conj(lam)).imag
    w = metric.inv - np.eye(d).reshape((d, d) + (1,) * d)
    defect = metric.harmonic_defect

    def update_A(A):
        dA = sp.gradient(grid, A)  # (c, b) = d_c A_b
        div_data = -np.einsum("cb...,cb...->...", w, dA) \
            + np.einsum("c...,c...->...", defect, A)
        return _hodge_solve(grid, F, div_data)

    return _contract(update_A, A0, cfg, "Coulomb connection")


def _solve_VB(grid, lam, psi, metric, A, cfg, V0):
    """Advection field V (covariant vector Laplace equation), then the
    temporal connection B (Laplace-Beltrami equation); nothing else in
    the system reads either."""
    source = _advection_source(grid, metric, lam, psi)

    def update_V(V):
        dV = geo.covariant_derivative(grid, V, 1, 0, metric)
        rhs = _advection_rhs(metric, source, V, dV)
        V_new = V + sp.inverse_laplacian(
            grid, rhs - _vector_laplacian(grid, metric, V, dV))
        return sp.mean_zero(grid, V_new)

    V = _contract(update_V, V0, cfg, "advection field")
    rhs_B = _temporal_rhs(grid, metric, lam, psi, V, A)
    B = geo.solve_laplace_beltrami(metric, rhs_B, "temporal connection",
                                   cfg.tol, cfg.max_iter)
    return V, B


def solve_VAB(grid, lam, psi, metric, cfg: EllipticConfig, warm=None):
    """Solve the three remaining elliptic equations: A, then V and B.

    ``warm`` is an optional (V, A, ...) tuple of starting iterates.
    """
    zero = np.zeros((grid.d,) + grid.shape)
    V0, A0 = (zero, zero) if warm is None else (warm[0], warm[1])
    A = _solve_A(grid, lam, metric, cfg, A0)
    V, B = _solve_VB(grid, lam, psi, metric, A, cfg, V0)
    return V, A, B


def _outer_start(grid, warm):
    """The (lambda, metric, A) the outer sweep starts from: the warm
    state's, or zero on the flat metric.  Built in the driver's call, so
    that no frame keeps a cold start alive through the sweeps."""
    if warm is not None:
        return warm.lam, warm.metric, warm.A
    return (np.zeros((grid.d, grid.d) + grid.shape, dtype=complex),
            MetricField.identity(grid), np.zeros((grid.d,) + grid.shape))


def solve_elliptic_system(grid, psi, cfg: EllipticConfig | None = None,
                          warm: GaugeState | None = None) -> GaugeState:
    """Outer contraction over lambda -> g -> A to a joint fixed point,
    then V and B once on the converged (lambda, g, A).

    lambda reads (g, A), g reads lambda and A reads (lambda, g); none of
    them reads V or B, so the outer sweep is triangular in them and
    ``final_update`` is the last sweep's largest change of (lambda, g, A).
    ``warm`` seeds the iteration (and the V solve) from a previously
    converged state (e.g. the previous time step); the result is still
    iterated to the same joint fixed-point tolerance.
    """
    cfg = cfg or EllipticConfig()
    if grid.d < 2:
        raise ValueError("the div-curl structure needs dimension >= 2")
    table = nrm.exponents(grid.d)
    size = sp.hs_norm(grid, psi, table.s_d)
    if size > cfg.smallness_threshold:
        raise SmallnessViolatedError(
            f"||psi||_H^{table.s_d:g} = {size:.3e} exceeds the smallness "
            f"threshold {cfg.smallness_threshold:g}"
        )

    V = warm.V if warm is not None else np.zeros((grid.d,) + grid.shape)

    def sweep(x):
        lam, metric, A = x
        lam_new = recover_lambda(grid, psi, metric, A, cfg)
        metric_new = solve_metric(grid, lam_new, psi, cfg, g0=metric)
        A_new = _solve_A(grid, lam_new, metric_new, cfg, A)
        change = max(
            float(np.max(np.abs(lam_new - lam))),
            float(np.max(np.abs(metric_new.g - metric.g))),
            float(np.max(np.abs(A_new - A))),
        )
        return (lam_new, metric_new, A_new), change

    (lam, metric, A), sweeps, final_update = geo.fixed_point(
        sweep, _outer_start(grid, warm), "outer elliptic sweep", cfg.tol, cfg.max_iter)
    V, B = _solve_VB(grid, lam, psi, metric, A, cfg, V)

    state = GaugeState(grid=grid, psi=psi, metric=metric, lam=lam, V=V, A=A, B=B)
    state.diagnostics.update(
        outer_iterations=sweeps,
        final_update=final_update,
        residuals=state.constraint_report(),
    )
    return state


def gauge_norm(grid, h, V, A, B, s: float) -> float:
    """Fixed-time norm of the gauge variables:
    || |D|h ||_{H^{s+1}} + || |D|V ||_{H^s} + ||A||_{H^{s+1}} + || |D|B ||_{H^{s-1}}.
    """
    def riesz1(f):
        return sp.sobolev_multiplier(grid, f, 1.0, kind="riesz")

    return (
        sp.hs_norm(grid, riesz1(h), s + 1.0)
        + sp.hs_norm(grid, riesz1(V), s)
        + sp.hs_norm(grid, A, s + 1.0)
        + sp.hs_norm(grid, riesz1(B), s - 1.0)
    )


@dataclass(frozen=True)
class LinearResponse:
    """Central-difference directional derivative of the solution map."""

    dlam: np.ndarray
    dh: np.ndarray
    dV: np.ndarray
    dA: np.ndarray
    dB: np.ndarray
    tau: float
    ratio: float


def linearize_fd(grid, psi, dpsi, cfg: EllipticConfig | None = None,
                 tau: float | None = None, sigma: float | None = None):
    """Directional derivative of psi -> (lambda, h, V, A, B) by central
    finite differences of two full elliptic solves."""
    cfg = cfg or EllipticConfig()
    if tau is None:
        base = sp.l2_norm(grid, psi)
        tau = 1e-4 * (base if base > 0 else 1.0) / sp.l2_norm(grid, dpsi)
    plus = solve_elliptic_system(grid, psi + tau * dpsi, cfg)
    minus = solve_elliptic_system(grid, psi - tau * dpsi, cfg)
    inv2t = 1.0 / (2.0 * tau)
    dlam = (plus.lam - minus.lam) * inv2t
    dh = (plus.metric.g - minus.metric.g) * inv2t
    dV = (plus.V - minus.V) * inv2t
    dA = (plus.A - minus.A) * inv2t
    dB = (plus.B - minus.B) * inv2t
    if sigma is None:
        sigma = max(nrm.exponents(grid.d).sigma_d, 1.0)
    num = sp.hs_norm(grid, dlam, sigma) + gauge_norm(grid, dh, dV, dA, dB, sigma)
    ratio = num / sp.hs_norm(grid, dpsi, sigma)
    return LinearResponse(dlam=dlam, dh=dh, dV=dV, dA=dA, dB=dB,
                          tau=tau, ratio=ratio)
