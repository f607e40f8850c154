"""Tensor calculus on the periodic box with a perturbed flat metric.

Christoffel symbols, (gauge-)covariant derivatives, curvature, the
intrinsic Sobolev norms built from covariant derivatives, the energy
functionals, the constraint-residual report for the gauge system, the
harmonic-coordinate fixing map, ``fixed_point`` (the driver of every
contraction loop) and ``solve_preconditioned`` (the one Picard sweep
preconditioned by the flat Laplacian, which every Delta_g solve and the
advection-field solve run).

Tensor fields are numpy arrays with index axes leading and the spatial
grid trailing, upper indices first.  A rank-(r, s) tensor has shape
(d,)*(r+s) + grid.shape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from smcf import spectral as sp
from smcf.spectral import Grid, trig_interp

__all__ = [
    "MetricField",
    "SingularMetricError",
    "NotContractingError",
    "fixed_point",
    "solve_preconditioned",
    "solve_laplace_beltrami",
    "covariant_derivative",
    "curvature",
    "tensor_norm_sq_field",
    "intrinsic_norm",
    "intrinsic_norms",
    "energy",
    "Residual",
    "ConstraintReport",
    "constraint_residuals",
    "gauss_bilinear",
    "harmonic_coordinate_fix",
]


class SingularMetricError(ValueError):
    """Metric failed the positive-definiteness check."""


class NotContractingError(RuntimeError):
    """A fixed-point iteration stopped making progress."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


# consecutive non-decreasing update sizes after which a loop has stalled
_STALL_LIMIT = 10


def fixed_point(step, x, name, tol, max_iter):
    """Iterate x <- step(x) from the given x; ``step`` returns
    (x_next, size), where size measures the update that produced x_next.
    The loop keeps no reference to the iterate it hands to ``step`` (the
    start included), so ``step`` can free the iterate's parts as soon as
    it has superseded them.

    Returns (x, iterations, size) at the first size <= tol.  Raises
    ``NotContractingError`` naming the loop after ``max_iter`` steps,
    after ``_STALL_LIMIT`` consecutive non-decreasing sizes, or at once
    on a non-finite size.  This is the only loop that decides
    convergence for the gauge solve, the harmonic chart and the oracle.
    """
    last = np.inf
    stall = 0
    held = [x]  # step(held.pop()) hands the iterate over
    del x
    for it in range(1, max_iter + 1):
        x, size = step(held.pop())
        if not np.isfinite(size):
            raise NotContractingError(f"{name}: update size is {size}", residual=size)
        if size <= tol:
            return x, it, size
        stall = stall + 1 if size >= last else 0
        if stall >= _STALL_LIMIT:
            raise NotContractingError(f"{name}: update size stopped decreasing",
                                      residual=size)
        last = size
        held.append(x)
        del x
    raise NotContractingError(f"{name}: no convergence in {max_iter} iterations",
                              residual=last)


def _ldl_inverse(g):
    """Inverse and determinant of a symmetric matrix field, shape (d, d) + grid.

    One LDL^T factorisation vectorised over the grid: the loops run over
    the d x d index entries, each an array over the points.  Raises
    ``SingularMetricError`` at the first pivot that is not > 0 (so the
    field is positive definite by Sylvester's criterion; NaN fails the
    comparison too).  Returns (inv, det), inv C-contiguous with the index
    axes first.
    """
    d = g.shape[0]
    L = [[None] * d for _ in range(d)]  # strictly lower unit-triangular part
    D = []
    for j in range(d):
        piv = g[j, j].copy()
        for k in range(j):
            piv -= L[j][k] * L[j][k] * D[k]
        bad = ~(piv > 0)
        if np.any(bad):
            raise SingularMetricError(
                f"metric not positive definite (pivot {j} is "
                f"{float(piv[bad].min()):.3e} at {int(np.count_nonzero(bad))} points)"
            )
        D.append(piv)
        for i in range(j + 1, d):
            lij = g[i, j].copy()
            for k in range(j):
                lij -= L[i][k] * L[j][k] * D[k]
            L[i][j] = lij / piv
    # forward solve: X = L^{-1}, unit lower triangular
    X = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i):
            acc = -L[i][j]
            for k in range(j + 1, i):
                acc = acc - L[i][k] * X[k][j]
            X[i][j] = acc
    # back solve: g^{-1} = X^T D^{-1} X, symmetric
    inv = np.empty(g.shape)
    det = D[0].copy()
    for k in range(1, d):
        det *= D[k]
    rD = [1.0 / p for p in D]
    for a in range(d):
        for b in range(a, d):
            acc = rD[b] if a == b else X[b][a] * rD[b]
            for k in range(b + 1, d):
                acc = acc + X[k][a] * X[k][b] * rD[k]
            inv[a, b] = acc
            inv[b, a] = acc
    return inv, det


class MetricField:
    """Riemannian metric g = I + h on the grid, with cached derived data.

    The inverse (C-contiguous, from one field-wise LDL^T pass),
    Christoffel symbols and volume density are computed once at
    construction; instances are treated as immutable.
    ``min_eigenvalue`` is computed on first access.
    """

    def __init__(self, grid: Grid, g: np.ndarray, dg: np.ndarray | None = None):
        """``dg``, if given, is ``spectral.gradient`` of the symmetric g,
        for a caller that needs it too; it is used for the Christoffel
        symbols and not kept."""
        g = np.asarray(g, dtype=float)
        if g.shape != (grid.d, grid.d) + grid.shape:
            raise ValueError(f"metric shape {g.shape} does not match grid")
        asym = np.max(np.abs(g - np.swapaxes(g, 0, 1)))
        if asym > 1e-12:
            raise ValueError(f"metric not symmetric (defect {asym:.3e})")
        self.grid = grid
        self.g = 0.5 * (g + np.swapaxes(g, 0, 1))  # exact symmetry by storage
        self.inv, det = _ldl_inverse(self.g)
        self.sqrt_det = np.sqrt(det)
        self.christoffel = self._christoffel(
            sp.gradient_sym(grid, self.g) if dg is None else dg)

    @functools.cached_property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(np.moveaxis(self.g, (0, 1), (-2, -1))).min())

    @classmethod
    def identity(cls, grid: Grid) -> "MetricField":
        return cls.from_h(grid, np.zeros((grid.d, grid.d) + grid.shape))

    @classmethod
    def from_h(cls, grid: Grid, h: np.ndarray) -> "MetricField":
        g = np.array(h, dtype=float)
        for a in range(grid.d):
            g[a, a] += 1.0
        return cls(grid, g)

    @property
    def h(self) -> np.ndarray:
        h = self.g.copy()
        for a in range(self.grid.d):
            h[a, a] -= 1.0
        return h

    def _christoffel(self, dg) -> np.ndarray:
        """Gamma^c_{ab} = 1/2 g^{cs} (d_b g_{as} + d_a g_{bs} - d_s g_{ab}),
        from dg[s, a, b] = d_s g_{ab}."""
        low = 0.5 * (
            np.einsum("bas...->sab...", dg)
            + np.einsum("abs...->sab...", dg)
            - np.einsum("sab...->sab...", dg)
        )  # low[s, a, b] = Gamma_{s,ab}
        return np.einsum("cs...,sab...->cab...", self.inv, low)

    def laplace_beltrami(self, f: np.ndarray) -> np.ndarray:
        """Delta_g f = g^{ab}(d2_ab f - Gamma^c_ab d_c f) for a scalar f or
        a stack of them; real for a real f."""
        out = sp.hessian_trace(self.grid, self.inv, f)
        out -= np.einsum("c...,c...->...", self.harmonic_defect,
                         sp.gradient(self.grid, f))
        return out

    @functools.cached_property
    def harmonic_defect(self) -> np.ndarray:
        """g^{ab} Gamma^c_{ab}; identically zero in harmonic coordinates."""
        return np.einsum("ab...,cab...->c...", self.inv, self.christoffel)


def solve_preconditioned(grid: Grid, residual, u0: np.ndarray, name: str,
                         tol: float, max_iter: int) -> np.ndarray:
    """The mean-zero u with residual(u) = 0, for an equation whose
    principal part g^{ab} d_a d_b is close to the flat Laplacian.

    Picard sweeps u <- mean_zero(u + Delta^{-1} residual(u)) from u0, run
    through ``fixed_point``; each update is sized by its largest change.
    """
    def sweep(u):
        u_new = sp.mean_zero(grid, u + sp.inverse_laplacian(grid, residual(u)))
        return u_new, float(np.max(np.abs(u_new - u)))

    return fixed_point(sweep, u0, name, tol, max_iter)[0]


def solve_laplace_beltrami(metric: MetricField, rhs: np.ndarray, name: str,
                           tol: float, max_iter: int) -> np.ndarray:
    """The mean-zero u with Delta_g u = rhs by ``solve_preconditioned``
    from mean_zero(Delta^{-1} rhs), the first sweep's iterate from zero;
    leading axes of rhs are solved side by side."""
    grid = metric.grid
    return solve_preconditioned(grid, lambda u: rhs - metric.laplace_beltrami(u),
                                sp.mean_zero(grid, sp.inverse_laplacian(grid, rhs)),
                                name, tol, max_iter)


def covariant_derivative(grid, T, nup, nlow, metric=None, A=None):
    """Covariant derivative, optionally gauged: nabla^A_c T = nabla_c T + i A_c T.

    The new lower (derivative) index is inserted at position ``nup``,
    so the result is again laid out uppers-first.  ``metric=None``
    means the flat connection (plain gradient).
    """
    T = np.asarray(T)
    if T.ndim != nup + nlow + grid.d:
        raise ValueError(
            f"tensor rank mismatch: ndim {T.ndim} vs {nup} upper + {nlow} lower indices"
        )
    return _add_connection(grid, T, sp.gradient(grid, T), nup, nlow, metric, A)


def _accumulate(op, dst, spec, R, T):
    """dst = op(dst, einsum(spec, R, T)) in place, for a real R.  A complex
    T (and dst) is contracted part by part into dst.real and dst.imag, so
    R is never cast to complex and no complex term is formed; each part of
    T is made contiguous first, which einsum runs faster on."""
    parts = ((dst.real, T.real), (dst.imag, T.imag)) if np.iscomplexobj(T) \
        else ((dst, T),)
    for dst_part, T_part in parts:
        op(dst_part, np.einsum(spec, R, np.ascontiguousarray(T_part)), out=dst_part)


def _add_connection(grid, T, out, nup, nlow, metric, A):
    """``covariant_derivative`` from the plain gradient ``out`` of T
    (derivative index leading, updated in place): adds the Christoffel
    and gauge terms and moves the derivative index to position ``nup``."""
    if metric is not None:
        Gam = metric.christoffel
        for i in range(nup):
            _accumulate(np.add, np.moveaxis(out, i + 1, 1), "ags...,s...->ga...",
                        Gam, np.moveaxis(T, i, 0))
        for j in range(nlow):
            _accumulate(np.subtract, np.moveaxis(out, nup + j + 1, 1),
                        "sgb...,s...->gb...", Gam, np.moveaxis(T, nup + j, 0))
    if A is not None:
        A_exp = A.reshape((grid.d,) + (1,) * (nup + nlow) + grid.shape)
        out = out + 1j * A_exp * T[np.newaxis]
    return np.moveaxis(out, 0, nup)


def curvature(metric: MetricField):
    """Riemann (all indices lowered, R_{abcs} = g_{ma} R^m_{bcs}) and Ricci.

    R^s_{gab} = d_a Gamma^s_{bg} - d_b Gamma^s_{ag}
                + Gamma^m_{bg} Gamma^s_{am} - Gamma^m_{ag} Gamma^s_{bm};
    Ric_{gb} = R^s_{gsb}.
    """
    grid = metric.grid
    Gam = metric.christoffel
    # dGam[m, c, a, b] = d_m Gamma^c_{ab}, from the pairs a <= b
    dGam = np.moveaxis(sp.gradient_sym(grid, np.moveaxis(Gam, 0, 2)), 3, 1)
    # the terms come in pairs that differ by a <-> b; half is a view of
    # dGam, summed into in place, so at most three (d,)*4 stacks are alive
    half = np.einsum("asbg...->sgab...", dGam)
    half += np.einsum("mbg...,sam...->sgab...", Gam, Gam)
    riem_up = half - np.einsum("sgab...->sgba...", half)
    del dGam, half
    riemann = np.einsum("ms...,mgab...->sgab...", metric.g, riem_up)
    ricci = np.einsum("sgsb...->gb...", riem_up)
    return riemann, ricci


def _apply_metric_all(T, upper_axes, lower_axes, metric):
    """Raise/lower every index of T so a flat dot with conj(T) gives |T|^2_g."""
    M = T
    for ax in upper_axes:
        M = np.moveaxis(
            np.einsum("ab...,b...->a...", metric.g, np.moveaxis(M, ax, 0)), 0, ax)
    for ax in lower_axes:
        M = np.moveaxis(
            np.einsum("ab...,b...->a...", metric.inv, np.moveaxis(M, ax, 0)), 0, ax)
    return M


def tensor_norm_sq_field(grid, T, nup, nlow, metric=None):
    """Pointwise |T|^2_g (flat contraction when metric is None)."""
    T = np.asarray(T)
    ntens = nup + nlow
    if metric is None:
        M = T
    else:
        M = _apply_metric_all(T, list(range(nup)), list(range(nup, ntens)), metric)
    out = (M * np.conj(T)).real
    if ntens > 0:
        out = out.sum(axis=tuple(range(ntens)))
    return out


def intrinsic_norm(grid, T, nup, nlow, metric=None, A=None, k=0):
    """Intrinsic Sobolev norm: sqrt(sum_{l<=k} int |nabla^{A,l} T|^2_g dmu).

    Derivative indices count as lower indices; dmu = sqrt(det g) dx.
    Negative k is out of scope (the duality definition is test-only).
    """
    return intrinsic_norms(grid, T, nup, nlow, metric, A, (k,))[k]


def intrinsic_norms(grid, T, nup, nlow, metric=None, A=None, ks=(0,)):
    """``intrinsic_norm`` for every order in ``ks``, keyed by order, from
    one pass over the derivative levels (bit-identical to per-k calls)."""
    if any(k < 0 for k in ks):
        raise ValueError("negative intrinsic norms are not a runtime operation")
    sqrt_det = 1.0 if metric is None else metric.sqrt_det
    top = max(ks, default=-1)
    norms = {}
    total = 0.0
    cur, up, low = np.asarray(T), nup, nlow
    for level in range(top + 1):
        dens = tensor_norm_sq_field(grid, cur, up, low, metric)
        total += float(np.sum(dens * sqrt_det) * grid.cell_volume)
        if level in ks:
            norms[level] = float(np.sqrt(total))
        if level < top:
            cur = covariant_derivative(grid, cur, up, low, metric, A)
            low += 1
    return norms


def energy(grid, psi, metric, A, k):
    """Energy functional of order k: the squared intrinsic Sobolev norm of psi."""
    return intrinsic_norm(grid, psi, 0, 0, metric, A, k) ** 2


@dataclass(frozen=True)
class Residual:
    l2: float
    linf: float


_CONSTRAINT_NAMES = (
    "gauss",
    "codazzi",
    "divergence",
    "curl_a",
    "coulomb",
    "harmonic",
    "symmetry",
    "trace",
)


@dataclass(frozen=True)
class ConstraintReport:
    """Residual norms of the eight compatibility conditions.

    Residual fields are mean-projected before taking norms: the torus
    zero mode is obstructed for the elliptic solves, and the discarded
    constants are reported separately in ``nondecay``.
    """

    gauss: Residual
    codazzi: Residual
    divergence: Residual
    curl_a: Residual
    coulomb: Residual
    harmonic: Residual
    symmetry: Residual
    trace: Residual
    nondecay: dict

    def as_dict(self):
        return {name: getattr(self, name) for name in _CONSTRAINT_NAMES}

    def max_l2(self) -> float:
        return max(r.l2 for r in self.as_dict().values())

    def max_linf(self) -> float:
        return max(r.linf for r in self.as_dict().values())


def _residual_norms(grid, field, mean_project=True):
    mean = sp.field_mean(grid, field)
    size = float(np.sqrt(np.sum(np.abs(np.atleast_1d(mean)) ** 2)))
    if mean_project:
        field = field - mean[(...,) + (np.newaxis,) * grid.d]
    a2 = sp._abs2(field, grid)  # as l2_norm and linf_norm form it
    return Residual(float(np.sqrt(np.sum(a2) * grid.cell_volume)),
                    float(np.sqrt(np.max(a2)))), size


def gauss_bilinear(lam):
    """The second-fundamental-form side of the Gauss equation.

    Returns the array G[s, g, a, b] = Re(lam_{bg} conj(lam_{as})
    - lam_{ag} conj(lam_{bs})), to be compared with the lowered Riemann
    tensor indexed R_{sgab}.
    """
    re, im = lam.real, lam.imag
    half = (np.einsum("bg...,as...->sgab...", re, re)
            + np.einsum("bg...,as...->sgab...", im, im))  # Re(lam_bg conj(lam_as))
    return half - np.einsum("sgab...->sgba...", half)


def constraint_residuals(grid, psi, metric, lam, A, mean_project=True):
    """Evaluate each compatibility condition literally and report norms.

    Takes psi (complex scalar mean curvature), the metric, the complex
    second fundamental form lam (both indices lower), and the
    connection covector A.
    """
    results, nondecay = {}, {}

    def report(name, field):
        # reduced at once, so one residual field at a time is alive
        results[name], nondecay[name] = _residual_norms(grid, field, mean_project)

    # Riemann lowered is R_{abcs} with first index lowered from R^m_{bcs};
    # the Gauss equation pairs it as R_{sgab}.
    gauss = curvature(metric)[0]
    gauss -= gauss_bilinear(lam)
    report("gauss", gauss)
    del gauss

    dlam = covariant_derivative(grid, lam, 0, 2, metric, A)  # index order (c, a, b)
    report("codazzi", dlam - np.einsum("acb...->cab...", dlam))
    report("divergence", np.einsum("ca...,cab...->b...", metric.inv, dlam)
           - covariant_derivative(grid, psi, 0, 0, metric, A))
    del dlam

    dA = covariant_derivative(grid, A, 0, 1, metric)  # (c, a) = nabla_c A_a
    lam_up = np.einsum("gc...,ca...->ga...", metric.inv, lam)
    curl_source = np.einsum("ga...,bg...->ab...", lam_up, np.conj(lam)).imag
    report("curl_a", (dA - np.einsum("ac...->ca...", dA)) - curl_source)
    report("coulomb", np.einsum("ab...,ab...->...", metric.inv, dA))
    report("harmonic", metric.harmonic_defect)
    report("symmetry", lam - np.einsum("ba...->ab...", lam))
    report("trace", np.einsum("ab...,ab...->...", metric.inv, lam) - psi)
    return ConstraintReport(nondecay=nondecay, **results)


def _invert_coordinates(grid, phi):
    """Grid preimages x(y), shape (d, N), of y = x + phi(x) by fixed point,
    and the inverse Jacobian d x^a / d y^c there, shape (N, d, d).
    Raises ``NotContractingError`` unless the sweeps reach 1e-13 within 50
    (by the rules of ``fixed_point``)."""
    y = grid.coords().reshape(grid.d, -1)

    def sweep(x):
        x_new = y - trig_interp(grid, phi, x).real
        return x_new, float(np.max(np.abs(x_new - x)))

    x = fixed_point(sweep, y, "coordinate inversion", 1e-13, 50)[0]
    dphi = sp.gradient(grid, phi).real  # dphi[a, c] = d_a phi^c
    jac = np.einsum("acm->mca", trig_interp(grid, dphi, x).real)
    jac += np.eye(grid.d)  # J[m, c, a] = d y^c / d x^a
    return x, np.linalg.inv(jac)


def _harmonic_chart(metric):
    """``harmonic_coordinate_fix`` returning the whole chart:
    (phi, x, inv_jac, pulled-back MetricField), x and inv_jac as from
    ``_invert_coordinates``, for callers pulling more fields back."""
    grid = metric.grid
    dh = sp.gradient(grid, metric.h).real
    if sp.l2_norm(grid, dh) > 0.1 * np.sqrt(grid.volume):
        raise ValueError("metric perturbation too large for the harmonic fix")

    phi = solve_laplace_beltrami(metric, metric.harmonic_defect,
                                 "harmonic coordinate iteration", 1e-10, 200)
    x, inv_jac = _invert_coordinates(grid, phi)
    g_at_x = trig_interp(grid, metric.g, x).real  # (a, b, m)
    g_new = np.einsum("mac,mbd,abm->cdm", inv_jac, inv_jac, g_at_x)
    g_new = g_new.reshape((grid.d, grid.d) + grid.shape)
    return phi, x, inv_jac, MetricField(grid, g_new)


def harmonic_coordinate_fix(metric):
    """Find y = x + phi(x) so the pulled-back metric is harmonic.

    Solves Delta_g phi^c = g^{ab} Gamma^c_{ab} for all d components in
    one ``solve_laplace_beltrami`` (the coordinate functions
    y^c = x^c + phi^c are then g-harmonic), inverts the coordinate
    change on the grid, and returns (phi, pulled-back MetricField).
    Raises ``ValueError`` if the metric perturbation is not small, and
    ``NotContractingError`` if either iteration fails;
    ``immersion.align_extracted`` shares the chart via ``_harmonic_chart``.
    """
    phi, _, _, pulled = _harmonic_chart(metric)
    return phi, pulled
