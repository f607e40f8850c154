"""Fixed-time elliptic solver for the gauge variables.

Given the complex scalar mean curvature psi on the grid, recover the
full gauge state (second fundamental form lambda, metric g, advection
field V, spatial connection A, temporal connection B) from the coupled
elliptic system:

  * a div-curl system for lambda driven by the gauged gradient of psi,
  * the harmonic-coordinate quasilinear equation for g,
  * a covariant Laplace equation for V,
  * a div-curl system for A with the Coulomb condition built in,
  * a Laplace-Beltrami equation for B.

g, lambda and A are found together by block Gauss-Seidel sweeps, one
update of each per sweep in that order; V and B once from the converged
three.  The g, V and B equations each have one residual, right-hand
side minus left-hand side, which ``geo.preconditioned_sweep`` drives to
zero and which their public ``*_equation_residual`` reads at a
``GaugeState``.  A function given a ``MetricField`` reads the grid from
it.

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
        if not (self.tol > 0 and self.max_iter >= 1
                and self.smallness_threshold >= 0):
            raise ValueError("need tol > 0, max_iter >= 1 and "
                             "smallness_threshold >= 0")


@dataclass(frozen=True)
class GaugeState:
    """Converged gauge variables for one psi at one time, on the metric's grid."""

    psi: np.ndarray
    metric: MetricField
    lam: np.ndarray
    V: np.ndarray
    A: np.ndarray
    B: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return self.metric.grid

    def constraint_report(self) -> geo.ConstraintReport:
        """The mean-projected constraint residuals of this state, computed
        once and kept in ``diagnostics["residuals"]``."""
        report = self.diagnostics.get("residuals")
        if report is None:
            report = geo.constraint_residuals(self.psi, self.metric, self.lam, self.A)
            self.diagnostics["residuals"] = report
        return report


def _contract(update, x0, cfg, name):
    """``geo.fixed_point`` on x <- update(x) at the config's tolerance and
    iteration limit, sized by the largest change of an entry."""
    def step(x):
        x_new = update(x)
        return x_new, float(np.max(np.abs(x_new - x)))

    return geo.fixed_point(step, x0, name, cfg.tol, cfg.max_iter)[0]


def _lambda_update(dpsi, metric, A, lam):
    """One update of the lambda div-curl system at (g, A), with dpsi the
    gauged gradient d psi + i A psi.

    Covariant curl-freeness and the gauged divergence identity are
    rewritten as a flat Hodge system per column, with the metric and
    connection corrections taken at ``lam``; the result is symmetrized
    pair by pair in place.  The curl data is ``geo._connection_curl`` and
    the divergence data ``geo._lambda_divergence_data``, which the
    constraint report reads too; the latter takes d lam one axis at a
    time (``sp._derivatives_sym``).
    """
    grid = metric.grid
    # flat curl data (pair, g), its pairs in ``sp.hodge_solve``'s order
    C = geo._connection_curl(metric, A, lam)
    D = geo._lambda_divergence_data(metric, A, lam, sp._derivatives_sym(grid, lam), dpsi)
    lam_new = sp.hodge_solve(grid, C, D)  # every column g at once
    del C, D
    _symmetrize(lam_new)
    return lam_new


def _symmetrize(T):
    """T <- (T + T^T) / 2 in place, pair by pair over the two leading
    axes; the diagonal is left as it is, which (x + x) / 2 equals."""
    for a in range(len(T)):
        for b in range(a + 1, len(T)):
            T[a, b] = T[b, a] = 0.5 * (T[a, b] + T[b, a])


def recover_lambda(psi, metric, A, cfg: EllipticConfig) -> np.ndarray:
    """Solve the div-curl system for the second fundamental form at
    fixed (g, A): ``_lambda_update`` to a fixed point from the flat
    solution."""
    grid = metric.grid
    dpsi = sp.gradient(grid, psi) + 1j * A * psi  # gauged gradient of psi
    return _contract(lambda lam: _lambda_update(dpsi, metric, A, lam),
                     sp.riesz_pairs(grid, psi), cfg, "lambda recovery")


def _weighted_second_sym(grid, coeff, g):
    """``sp.hessian_trace`` of an exactly symmetric, real (d, d) stack g:
    each entry g_cs with c <= s is transformed once, and mirrored.  Entry
    by entry, because a batch of the d(d+1)/2 entries raised
    elliptic-3d's peak RSS by about 7 MiB (allocator fragmentation)."""
    out = np.empty(g.shape)
    for c in range(grid.d):
        for s in range(c, grid.d):
            out[c, s] = out[s, c] = sp.hessian_trace(grid, coeff, g[c, s])
    return out


def _metric_residual(m, lam, psi):
    """Right-hand side minus left-hand side of the harmonic-coordinate
    metric equation at the metric m, exactly symmetric.

    g^{ab} d^2_{ab} g_{cs} equals quadratic first-derivative terms plus
    the curvature source -2 Re(lam_{cs} conj(psi) - lam_{ac} conj(lam)^a_s).
    The first derivatives of g are read from the lowered Christoffel
    symbols, d_c g_ab = Gamma_{a,bc} + Gamma_{b,ac}, and those of g^{-1}
    are taken one axis at a time; both are freed before the source,
    which is formed on the real and imaginary parts of lambda.
    """
    gam_low = np.einsum("nm...,msa...->nsa...", m.g, m.christoffel)  # Gamma_{n,sa}
    r = 2.0 * np.einsum("ab...,nsa...,nbg...->gs...", m.inv, gam_low, m.christoffel)
    for c, dginv in enumerate(sp._derivatives_sym(m.grid, m.inv)):  # d_c g^{ab}
        # t_s = d_c g^{ab} d_b g_{as}, which enters as -t_{cs} - t_{sc}
        t = np.einsum("ab...,asb...->s...", dginv, gam_low)
        t += np.einsum("ab...,sab...->s...", dginv, gam_low)
        r[c] -= t
        r[:, c] -= t
        # d_g g_ab d_c g^{ab} = 2 Gamma_{a,bg} d_c g^{ab}, g^{ab} symmetric
        r[:, c] += 2.0 * np.einsum("ab...,abg...->g...", dginv, gam_low)
    del gam_low, dginv, t
    src = lam.real * psi.real + lam.imag * psi.imag  # Re(lam conj(psi))
    for part, up in zip((lam.real, lam.imag), geo._raise_parts(m, lam)):
        src -= np.einsum("ag...,as...->gs...", part, up)
    r -= 2.0 * src
    del src
    r -= _weighted_second_sym(m.grid, m.inv, m.g)
    _symmetrize(r)
    return r


def metric_equation_residual(state: GaugeState):
    """Left minus right of the metric equation at the state
    (mean-projected): minus the residual that the metric solve drives to
    zero."""
    return -sp.mean_zero(state.grid, _metric_residual(state.metric, state.lam, state.psi))


def _metric_of_h(grid, h):
    """The metric g = I + h of a symmetric h.  A g that is not positive
    definite is a ``LostPositivityError``."""
    try:
        return MetricField.from_h(grid, h)
    except geo.SingularMetricError as exc:
        raise LostPositivityError(str(exc)) from exc


def solve_metric(grid, lam, psi, cfg: EllipticConfig, g0: MetricField | None = None):
    """Solve the harmonic-coordinate quasilinear equation for the metric
    at fixed lambda: ``geo.solve_preconditioned`` on h = g - I and
    ``_metric_residual``, from g0 (the flat metric by default)."""
    h0 = g0.h if g0 is not None else np.zeros((grid.d, grid.d) + grid.shape)
    h = geo.solve_preconditioned(
        grid, lambda h: _metric_residual(_metric_of_h(grid, h), lam, psi),
        h0, "metric equation", cfg.tol, cfg.max_iter)[0]
    return _metric_of_h(grid, h)


def _vector_laplacian(metric, V, dV):
    """Covariant vector Laplacian g^{bc} nabla_b nabla_c V^g, with
    dV = nabla V in index order (g, c), contracted before it is
    connected: g^{bc} d_b d_c V^g + g^{bc} d_b(Gamma^g_{cs} V^s)
    + Gamma^g_{bs} g^{bc} dV^s_c - H^s dV^g_s, H = ``metric.harmonic_defect``.
    The flat second derivatives of V come from ``sp.hessian_trace``, not
    from differentiating dV (which would drop the diagonal Nyquist mode
    of a real V)."""
    grid, Gam = metric.grid, metric.christoffel
    out = sp.hessian_trace(grid, metric.inv, V)
    GV = np.einsum("gcs...,s...->gc...", Gam, V)
    for b in range(grid.d):  # one axis at a time, no (d, d, d) stack
        out += np.einsum("c...,gc...->g...", metric.inv[b], sp._derivative(grid, GV, b))
    out += np.einsum("gbs...,bs...->g...", Gam,
                     np.einsum("bc...,sc...->bs...", metric.inv, dV))
    out -= np.einsum("s...,gs...->g...", metric.harmonic_defect, dV)
    return out


def _grad_up(metric, dV):
    """nabla^a V^b, from dV = nabla V, index order (b, c)."""
    return np.einsum("ac...,bc...->ab...", metric.inv, dV)


def _vb_sources(metric, lam, psi, A):
    """The V-independent parts of the V and B equations, ((rhs_V, W),
    (rhs_B, K, dA)): each right-hand side at V = 0, and what it is linear
    in V through: -W V for V, and g^{cg} nabla_c (K V)_g and (nabla^b V^g
    + nabla^g V^b) d_b A_g for B, dA[b, g] = d_b A_g.  They read the real
    (d, d) tensors M^{ab} = Im(lam^{ab} conj(psi)), N^a_b = Re(lam^a_b
    conj(psi)), W_g^s = N^g_s - Re(lam_as conj(lam)^{ag}) and K_ab =
    Im(lam^s_a conj(lam_sb)) (``geo._normal_curvature``), with lambda
    raised once, part by part (``geo._raise_parts``), lam^{ab} = lam^a_n
    g^{nb}, and Gamma^a_{as} formed once.  rhs_V is 2 nabla_a M^{ag} +
    2 Im(psi conj(lam)^{ab}) Gamma^g_{ab}, whose two Gamma^g_{ab} M^{ab}
    terms cancel: 2 (d_a M^{ag} + Gamma^a_{as} M^{sg})."""
    grid, Gam = metric.grid, metric.christoffel
    up = list(geo._raise_parts(metric, lam))  # (Re, Im) lam^a_b
    N = up[0] * psi.real + up[1] * psi.imag
    K = geo._normal_curvature(lam, up)
    for i in range(2):
        up[i] = np.einsum("an...,nb...->ab...", up[i], metric.inv)  # (Re, Im) lam^{ab}
    M = up[1] * psi.real - up[0] * psi.imag
    W = N - np.einsum("as...,ag...->gs...", lam.real, up[0])
    W -= np.einsum("as...,ag...->gs...", lam.imag, up[1])
    del up
    trace = np.einsum("aas...->s...", Gam)  # Gamma^a_{as}
    rhs_V = sp.divergence(grid, M)
    rhs_V += np.einsum("s...,sg...->g...", trace, M)
    rhs_V *= 2.0
    dA = sp.gradient(grid, A)
    # w_g = nabla_s N^s_g = d_s N^s_g + Gamma^s_{sm} N^m_g - Gamma^m_{sg} N^s_m
    w = sp.divergence(grid, N)
    w += np.einsum("m...,mg...->g...", trace, N)
    w -= np.einsum("msg...,sm...->g...", Gam, N)
    # -g^{cg} nabla_c w_g = -g^{cg} d_c w_g + H^m w_m
    rhs_B = np.einsum("m...,m...->...", metric.harmonic_defect, w)
    rhs_B -= np.einsum("cg...,cg...->...", metric.inv, sp.gradient(grid, w))
    rhs_B += 0.5 * metric.laplace_beltrami((psi * np.conj(psi)).real)
    # 2 Im(psi conj(lam)^{bg}) d_b A_g = -2 M^{bg} d_b A_g
    rhs_B -= 2.0 * np.einsum("bg...,bg...->...", M, dA)
    return (rhs_V, W), (rhs_B, K, dA)


def _advection_residual(metric, source, V):
    """Right-hand side minus left-hand side of the advection-field
    equation at V, from ``_vb_sources``' (rhs_V, W)."""
    rhs0, W = source
    dV = geo.covariant_derivative(V, 1, 0, metric)
    r = rhs0 - np.einsum("gs...,s...->g...", W, V)
    r += 2.0 * np.einsum("ab...,gab...->g...", _grad_up(metric, dV),
                         metric.christoffel)
    r -= _vector_laplacian(metric, V, dV)
    return r


def advection_equation_residual(state: GaugeState):
    """Left minus right of the advection equation at the state
    (mean-projected): minus the residual that the V solve drives to zero."""
    source = _vb_sources(state.metric, state.lam, state.psi, state.A)[0]
    return -sp.mean_zero(state.grid, _advection_residual(state.metric, source, state.V))


def _temporal_rhs(metric, source, V):
    """Right-hand side of the temporal-connection equation at V, from
    ``_vb_sources``' (rhs_B, K, dA)."""
    rhs0, K, dA = source
    u = np.einsum("gb...,b...->g...", K, V)  # Im(lam^s_g conj(lam_sb)) V^b
    # g^{cg} nabla_c u_g = g^{cg} d_c u_g - H^m u_m
    rhs = rhs0 + np.einsum("cg...,cg...->...", metric.inv, sp.gradient(metric.grid, u))
    rhs -= np.einsum("m...,m...->...", metric.harmonic_defect, u)
    gradV_up = _grad_up(metric, geo.covariant_derivative(V, 1, 0, metric))
    sym = gradV_up + np.einsum("ab...->ba...", gradV_up)
    rhs += np.einsum("bg...,bg...->...", sym, dA)
    return rhs


def temporal_equation_residual(state: GaugeState):
    """Left minus right of the temporal equation at the state
    (mean-projected)."""
    metric = state.metric
    source = _vb_sources(metric, state.lam, state.psi, state.A)[1]
    return sp.mean_zero(state.grid, metric.laplace_beltrami(state.B).real
                        - _temporal_rhs(metric, source, state.V))


def _A_update(metric, lam, A):
    """One update of the Coulomb div-curl system at (lambda, g): the
    data ``geo._coulomb_curl`` and ``geo._coulomb_divergence_data``, the
    latter at ``A``."""
    grid = metric.grid
    return sp.hodge_solve(grid, geo._coulomb_curl(metric, lam),
                          geo._coulomb_divergence_data(metric, A, sp.gradient(grid, A)))


def _solve_A(lam, metric, cfg, A0):
    """Coulomb connection A at fixed (lambda, g): ``_A_update`` to a
    fixed point from A0."""
    return _contract(lambda A: _A_update(metric, lam, A), A0, cfg,
                     "Coulomb connection")


def _solve_VB(lam, psi, metric, A, cfg, V0, q_V=np.nan):
    """Advection field V (covariant vector Laplace equation), then the
    temporal connection B (Laplace-Beltrami equation); nothing else in
    the system reads either.  Both run the preconditioned sweep
    ``geo.solve_preconditioned``, and the V loop stops on the Banach
    bound, with ``q_V`` its factor before it has measured its own (NaN
    for none).  Both read ``_vb_sources``, so lambda is raised once for
    both.  V starts at V0, or, for V0 = None (a cold solve), at the first
    sweep's iterate from V = 0, mean_zero(Delta^{-1} of the residual
    there).  Returns (V, B, record), the record holding the V and B
    sweep counts ``V_iterations`` and ``B_iterations`` and the V loop's
    factor ``q_V``."""
    grid = metric.grid
    source, source_B = _vb_sources(metric, lam, psi, A)
    if V0 is None:  # the residual at V = 0 is source[0]
        V0 = sp.mean_zero(grid, sp.inverse_laplacian(grid, source[0]))
    V, V_iterations, _, q_V = geo.solve_preconditioned(
        grid, lambda V: _advection_residual(metric, source, V), V0,
        "advection field", cfg.tol, cfg.max_iter, q_V)
    rhs_B = _temporal_rhs(metric, source_B, V)
    B, B_iterations, _ = geo.solve_laplace_beltrami(
        metric, rhs_B, "temporal connection", cfg.tol, cfg.max_iter)
    return V, B, {"V_iterations": V_iterations, "q_V": q_V,
                  "B_iterations": B_iterations}


def solve_VAB(lam, psi, metric, cfg: EllipticConfig, warm=None):
    """Solve the three remaining elliptic equations: A, then V and B.

    ``warm`` is an optional (V, A, ...) tuple of starting iterates.
    """
    grid = metric.grid
    V0, A0 = (None, np.zeros((grid.d,) + grid.shape)) if warm is None \
        else (warm[0], warm[1])
    A = _solve_A(lam, metric, cfg, A0)
    V, B, _ = _solve_VB(lam, psi, metric, A, cfg, V0)
    return V, A, B


def _outer_start(grid, psi, warm):
    """The (lambda, metric, A) the outer sweep starts from.  At g = I,
    A = 0 lambda solves to ``sp.riesz_pairs`` of psi, and the rest of
    the system is at least quadratic in psi.  A cold start is therefore
    that flat closed form: lambda = R_a R_b psi on
    ``MetricField.identity``, and A its Coulomb update at g = I.  (A
    sweep from lambda = 0 would update g from a zero right-hand side,
    then reach this same iterate.)  A warm start is the warm state's,
    its metric as it is, with lambda moved by its linear response to the
    change in psi, exact to first order in the change, and A moved to
    its Coulomb update at that lambda, so that no block starts a sweep
    behind and the first sweep contracts as a later one does (the Banach
    stop of a warm solve borrows the warm state's factor).  Built in the
    solver's call, so that no frame keeps the start alive through the
    sweeps."""
    if warm is not None:
        lam = warm.lam + sp.riesz_pairs(grid, psi - warm.psi)
        metric = warm.metric
        A = _A_update(metric, lam, warm.A)
        return lam, metric, A
    lam = sp.riesz_pairs(grid, psi)
    metric = MetricField.identity(grid)
    # _A_update at A = 0 and g = I, where its divergence data is zero
    A = sp.hodge_solve(grid, geo._coulomb_curl(metric, lam), np.zeros(grid.shape))
    return lam, metric, A


def solve_elliptic_system(grid, psi, cfg: EllipticConfig | None = None,
                          warm: GaugeState | None = None, *,
                          report: bool = True) -> GaugeState:
    """Block Gauss-Seidel sweeps over (g, lambda, A) to a joint fixed
    point, then V and B once on the converged (lambda, g, A).

    Each sweep makes one ``geo.preconditioned_sweep`` of h = g - I on
    ``_metric_residual`` at the iterate's lambda (its largest change is
    the metric's), one ``MetricField`` of the new g, one
    ``_lambda_update`` at (new g, A) and one ``_A_update`` at the new
    (lambda, g).  g reads lambda, lambda reads (g, A) and A reads
    (lambda, g); none of them reads V or B, so the sweep is triangular
    in them, and the returned A is the one computed from the returned
    (lambda, g).  The iterate is the state's own (lambda, metric, A): g
    is differentiated once per sweep, by its ``MetricField``, whose
    Christoffel symbols give the next metric residual the first
    derivatives of g, and the superseded metric is freed before the
    lambda update, the superseded lambda before the A update.  The loop,
    and the V loop after it, stop on ``geo.fixed_point``'s Banach
    bound, so the returned (lambda, g, A) is within tol of the fixed
    point while ``final_update``, the last sweep's largest change of
    (lambda, g, A), may exceed tol.  A sweep that fails to contract
    raises ``NotContractingError`` naming the subsystem that changed
    most in its last sweep.  ``warm`` seeds the sweep (and the V solve)
    from a previously converged state (e.g. the previous time stage),
    with lambda moved by its linear response to the change in psi and A
    by its Coulomb update at that lambda; each loop takes the warm
    state's contraction factor until it has measured its own.  Without
    it the sweep starts from the flat closed form, lambda = R_a R_b psi
    and A its Coulomb update at g = I (``_outer_start``), and each loop
    stops on size <= tol until it has measured its factor.  Zero data or
    an unchanged psi takes one sweep.

    ``diagnostics`` is the solve record: ``outer_iterations``,
    ``final_update``, the outer factor ``q``, the V loop's ``q_V`` (each
    the ratio of the loop's last two update sizes, the borrowed factor
    when it took one sweep, NaN when there was none), and the sweep
    counts ``V_iterations`` and ``B_iterations``.

    ``report=False`` leaves ``diagnostics["residuals"]`` to the first
    ``constraint_report()``, so a state nobody reads (a stepper stage)
    builds no report.  The eager default serves ``perfbench/workloads.py``,
    the last reader of the key; once it reads ``constraint_report()``, the
    keyword and the eager fill go, and every solve is lazy.
    """
    cfg = cfg or EllipticConfig()
    table = nrm.exponents(grid.d)
    size = sp.hs_norm(grid, psi, table.s_d)
    if size > cfg.smallness_threshold:
        raise SmallnessViolatedError(
            f"||psi||_H^{table.s_d:g} = {size:.3e} exceeds the smallness "
            f"threshold {cfg.smallness_threshold:g}"
        )

    V0, recorded = (None, {}) if warm is None else (warm.V, warm.diagnostics)
    dpsi = sp.gradient(grid, psi)
    changes = {}  # the last sweep's largest change, by subsystem

    def sweep(x):
        lam, metric, A = x
        del x  # fixed_point keeps no other reference, so the old metric can go
        r = _metric_residual(metric, lam, psi)  # before metric.h: the peak
        h, changes["metric equation"] = geo.preconditioned_sweep(grid, metric.h, r)
        del metric, r
        metric_new = _metric_of_h(grid, h)
        del h
        lam_new = _lambda_update(dpsi + 1j * A * psi, metric_new, A, lam)
        changes["lambda recovery"] = float(np.max(np.abs(lam_new - lam)))
        del lam  # superseded before the A update
        A_new = _A_update(metric_new, lam_new, A)
        changes["Coulomb connection"] = float(np.max(np.abs(A_new - A)))
        size = float(np.max(list(changes.values())))  # NaN-propagating
        return (lam_new, metric_new, A_new), size

    try:
        (lam, metric, A), sweeps, final_update, q = geo.fixed_point(
            sweep, _outer_start(grid, psi, warm), "outer elliptic sweep",
            cfg.tol, cfg.max_iter, recorded.get("q", np.nan))
    except geo.NotContractingError as exc:
        worst = max(changes, key=lambda k: np.nan_to_num(changes[k], nan=np.inf))
        raise geo.NotContractingError(
            f"{exc}; largest change in the {worst} ({changes[worst]:.3e})",
            residual=exc.residual) from exc
    del dpsi  # nothing after the sweep reads it
    V, B, record_VB = _solve_VB(lam, psi, metric, A, cfg, V0,
                                recorded.get("q_V", np.nan))
    record = {"outer_iterations": sweeps, "final_update": final_update,
              "q": q, **record_VB}

    state = GaugeState(psi=psi, metric=metric, lam=lam, V=V, A=A, B=B,
                       diagnostics=record)
    if report:
        state.constraint_report()
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
    plus = solve_elliptic_system(grid, psi + tau * dpsi, cfg, report=False)
    minus = solve_elliptic_system(grid, psi - tau * dpsi, cfg, report=False)
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
