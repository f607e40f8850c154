"""Tensor calculus on the periodic box with a perturbed flat metric.

Christoffel symbols, (gauge-)covariant derivatives, curvature, the
intrinsic Sobolev norms built from covariant derivatives, the energy
functionals, the data of each gauge condition (defined once, and read
by the solver's updates, the constraint-residual report and the
oracle's Coulomb angle), that report, the harmonic-coordinate fixing
map, ``fixed_point`` (the driver of every contraction loop) and
``preconditioned_sweep`` (the one Picard sweep preconditioned by the
flat Laplacian, which the metric block of the gauge solve and, through
``solve_preconditioned``, every Delta_g solve and the advection-field
solve run).

Tensor fields are numpy arrays with index axes leading and the spatial
grid trailing, upper indices first.  A rank-(r, s) tensor has shape
(d,)*(r+s) + grid.shape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from smcf import spectral as sp
from smcf.spectral import Grid, trig_interp

__all__ = [
    "MetricField",
    "SingularMetricError",
    "NotContractingError",
    "fixed_point",
    "preconditioned_sweep",
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


def fixed_point(step, x, name, tol, max_iter, q=None):
    """Iterate x <- step(x) from the given x; ``step`` returns
    (x_next, size), where size measures the update that produced x_next.
    The loop keeps no reference to the iterate it hands to ``step`` (the
    start included), so ``step`` can free the iterate's parts as soon as
    it has superseded them.

    Without ``q``, returns (x, iterations, size) at the first size <= tol.
    With ``q`` (a contraction factor measured elsewhere, NaN for none)
    the loop also stops on the Banach error bound: at the first size <=
    tol, or q <= 1/2 and q / (1 - q) * size <= tol / 2.  q is the ratio
    of the last two sizes once there are two, and the given ``q`` before
    that.  The bound keeps half of tol because a measured q can fall
    short of the true factor, and a later loop that reads x adds x's
    error to its own.  The result is then (x, iterations, size, q).
    Raises ``NotContractingError`` naming the loop after ``max_iter`` steps,
    after ``_STALL_LIMIT`` consecutive non-decreasing sizes, or at once
    on a non-finite size.  This is the only loop that decides
    convergence for the gauge solve, the harmonic chart and the oracle.
    """
    bound = q is not None
    last = np.inf
    stall = 0
    held = [x]  # step(held.pop()) hands the iterate over
    del x
    for it in range(1, max_iter + 1):
        x, size = step(held.pop())
        if not np.isfinite(size):
            raise NotContractingError(f"{name}: update size is {size}", residual=size)
        if bound and it > 1:
            q = size / last
        if size <= tol or (bound and q <= 0.5 and q / (1.0 - q) * size <= 0.5 * tol):
            return (x, it, size, q) if bound else (x, it, size)
        stall = stall + 1 if size >= last else 0
        if stall >= _STALL_LIMIT:
            raise NotContractingError(f"{name}: update size stopped decreasing",
                                      residual=size)
        last = size
        held.append(x)
        del x
    raise NotContractingError(f"{name}: no convergence in {max_iter} iterations",
                              residual=last)


def _ldl(g):
    """LDL^T factors of a symmetric matrix field, shape (d, d) + grid, as
    lists (L, D, X) of the strictly lower entries L[i][j] of the unit
    triangular factor, the pivots D[j] and the strictly lower entries
    X[i][j] of L^{-1}.  The loops run over the d x d index entries, each
    an array over the points.  Raises ``SingularMetricError`` at the first
    pivot that is not > 0 (so the field is positive definite by
    Sylvester's criterion; NaN fails the comparison too)."""
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
    return L, D, X


def _ldl_inverse(g):
    """(g^{-1} = X^T D^{-1} X, det g) of ``_ldl``'s factors, g^{-1}
    C-contiguous with the index axes first."""
    d = g.shape[0]
    _, D, X = _ldl(g)
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


def _eye(grid):
    """The identity matrix, broadcastable against a (d, d) field stack."""
    return np.eye(grid.d).reshape((grid.d, grid.d) + (1,) * grid.d)


class MetricField:
    """Riemannian metric g = I + h on the grid, with cached derived data.

    The inverse (C-contiguous, from one field-wise LDL^T pass),
    Christoffel symbols and volume density are computed once at
    construction; g is differentiated once, one axis at a time, for the
    Christoffel symbols, and its gradient is not kept (d_c g_ab =
    Gamma_{a,bc} + Gamma_{b,ac} gives it back).  Instances are treated as
    immutable.
    ``min_eigenvalue`` is computed on first access.
    """

    def __init__(self, grid: Grid, g: np.ndarray):
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
        self.christoffel = self._christoffel()

    @functools.cached_property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(np.moveaxis(self.g, (0, 1), (-2, -1))).min())

    @functools.cached_property
    def frames(self):
        """(F, E), triangular (d, d) + grid stacks with F^T F = g and
        E^T E = g^{-1}: from g = L D L^T (``_ldl``), F = D^{1/2} L^T and
        E = D^{-1/2} L^{-1}."""
        L, D, X = _ldl(self.g)
        F, E = np.zeros(self.g.shape), np.zeros(self.g.shape)
        for i in range(self.grid.d):
            F[i, i], E[i, i] = np.sqrt(D[i]), 1.0 / np.sqrt(D[i])
            for a in range(i):
                F[a, i], E[i, a] = F[a, a] * L[i][a], E[i, i] * X[i][a]
        return F, E

    @classmethod
    def identity(cls, grid: Grid) -> "MetricField":
        """The flat metric in closed form: g = g^{-1} = I, sqrt(det g) = 1
        and Gamma = 0, equal to ``from_h(grid, 0)``'s without its
        transforms and LDL^T pass."""
        m = cls.__new__(cls)
        m.grid = grid
        m.g = np.zeros((grid.d, grid.d) + grid.shape)
        m.g[np.arange(grid.d), np.arange(grid.d)] = 1.0
        m.inv = m.g.copy()
        m.sqrt_det = np.ones(grid.shape)
        m.christoffel = np.zeros((grid.d,) * 3 + grid.shape)
        return m

    @classmethod
    def from_h(cls, grid: Grid, h: np.ndarray) -> "MetricField":
        return cls(grid, np.asarray(h, dtype=float) + _eye(grid))

    @property
    def h(self) -> np.ndarray:
        return self.g - _eye(self.grid)

    def _christoffel(self) -> np.ndarray:
        """Gamma^c_{ab} = 1/2 g^{cs} (d_b g_{as} + d_a g_{bs} - d_s g_{ab}),
        the lowered Gamma_{s,ab} summed one axis of d g at a time."""
        # empty and fill: np.zeros (calloc) made this phase 20% slower at 24^3
        low = np.empty((self.grid.d,) + self.g.shape)
        low.fill(0.0)
        for c, D in enumerate(sp._derivatives_sym(self.grid, self.g)):  # d_c g
            low[:, :, c] += D
            low[:, c] += D
            low[c] -= D
        del D  # the last d_c g, before the raise
        low *= 0.5  # low[s, a, b] = Gamma_{s,ab}
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


def preconditioned_sweep(grid: Grid, u: np.ndarray, r: np.ndarray):
    """One Picard sweep preconditioned by the flat Laplacian from u, with
    r the residual (right-hand side minus left-hand side) at u:
    (mean_zero(u + Delta^{-1} r), its largest change of an entry)."""
    u_new = sp.mean_zero(grid, u + sp.inverse_laplacian(grid, r))
    return u_new, float(np.max(np.abs(u_new - u)))


def solve_preconditioned(grid: Grid, residual, u0: np.ndarray, name: str,
                         tol: float, max_iter: int, q=None):
    """The mean-zero u with residual(u) = 0, for an equation whose
    principal part g^{ab} d_a d_b is close to the flat Laplacian:
    ``preconditioned_sweep`` from u0, run through ``fixed_point`` (with
    its stop rule for ``q``), whose result it returns, u first."""
    return fixed_point(lambda u: preconditioned_sweep(grid, u, residual(u)),
                       u0, name, tol, max_iter, q)


def solve_laplace_beltrami(metric: MetricField, rhs: np.ndarray, name: str,
                           tol: float, max_iter: int):
    """The mean-zero u with Delta_g u = rhs by ``solve_preconditioned``
    from mean_zero(Delta^{-1} rhs), the first sweep's iterate from zero;
    leading axes of rhs are solved side by side.  Returns
    ``fixed_point``'s result, u first."""
    grid = metric.grid
    return solve_preconditioned(grid, lambda u: rhs - metric.laplace_beltrami(u),
                                sp.mean_zero(grid, sp.inverse_laplacian(grid, rhs)),
                                name, tol, max_iter)


def covariant_derivative(T, nup, nlow, metric, A=None):
    """Covariant derivative, optionally gauged: nabla^A_c T = nabla_c T + i A_c T.

    The new lower (derivative) index is inserted at position ``nup``,
    so the result is again laid out uppers-first.  The flat connection
    is ``MetricField.identity``'s; T lives on the metric's grid.
    """
    grid = metric.grid
    T = np.asarray(T)
    if T.ndim != nup + nlow + grid.d:
        raise ValueError(
            f"tensor rank mismatch: ndim {T.ndim} vs {nup} upper + {nlow} lower indices"
        )
    return _add_connection(T, sp.gradient(grid, T), nup, nlow, metric, A)


def _accumulate(op, dst, spec, R, T):
    """dst = op(dst, einsum(spec, R, T)) in place, for a real R.  A complex
    T (and dst) is contracted part by part into dst.real and dst.imag, so
    R is never cast to complex and no complex term is formed; each part of
    T is made contiguous first, which einsum runs faster on."""
    parts = ((dst.real, T.real), (dst.imag, T.imag)) if np.iscomplexobj(T) \
        else ((dst, T),)
    for dst_part, T_part in parts:
        op(dst_part, np.einsum(spec, R, np.ascontiguousarray(T_part)), out=dst_part)


def _add_connection(T, out, nup, nlow, metric, A):
    """``covariant_derivative`` from the plain gradient ``out`` of T
    (derivative index leading, updated in place): adds the Christoffel
    and gauge terms and moves the derivative index to position ``nup``."""
    grid, Gam = metric.grid, metric.christoffel
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


def _connection_curl(metric, A, lam):
    """The flat curl d_c lam_{ab} - d_a lam_{cb} of lam minus its gauged
    covariant curl, (pair, b) + grid on the pairs c < a of ``np.triu_indices``,
    pair by pair from views of the Christoffel symbols and lam."""
    grid, G = metric.grid, metric.christoffel
    c, a = np.triu_indices(grid.d, 1)
    out = np.empty((len(c), grid.d) + grid.shape, dtype=complex)
    for p, (i, j) in enumerate(zip(c, a)):
        np.einsum("sb...,s...->b...", G[:, i], lam[j], out=out[p])
        out[p] -= 1j * A[i] * lam[j]
        out[p] -= np.einsum("sb...,s...->b...", G[:, j], lam[i]) - 1j * A[j] * lam[i]
    return out


def _lambda_divergence_data(metric, A, lam, dlam, dpsi):
    """The data D of the gauged divergence g^{ca} nabla^A_c lam_ab = dpsi_b
    as a flat one, d_a lam_ab = D_b = dpsi_b - (g^{ca} - delta^{ca}) d_c lam_ab
    + H^s lam_sb + Gamma^s_{cb} lam^c_s - i A^a lam_ab (contracted first,
    H = ``harmonic_defect``).  dlam yields d_c lam_ab for c = 0, 1, ...
    in turn (``sp._derivatives_sym``), each contracted as it comes, and
    lam^c_s is raised part by part (``_raise_parts``)."""
    eye = _eye(metric.grid)
    D = np.array(dpsi, dtype=complex)
    for c, dlam_c in enumerate(dlam):
        D -= np.einsum("a...,ab...->b...", metric.inv[c] - eye[c], dlam_c)
    del dlam_c  # the last d_c lam, before the raise
    D += np.einsum("s...,sb...->b...", metric.harmonic_defect, lam)
    for dst, up in zip((D.real, D.imag), _raise_parts(metric, lam)):
        dst += np.einsum("scb...,cs...->b...", metric.christoffel, up)
    A_up = np.einsum("ac...,c...->a...", metric.inv, A)
    D -= 1j * np.einsum("a...,ab...->b...", A_up, lam)
    return D


def _raise_parts(metric, T):
    """(Re T^a_b, Im T^a_b) = g^{am} (Re T_mb, Im T_mb), one part at a
    time, so g^{-1} is never cast to complex."""
    for part in (T.real, T.imag):
        yield np.einsum("am...,mb...->ab...", metric.inv, part)


def _normal_curvature(lam, up):
    """K_ab = Im(lam^s_a conj(lam_sb)) = Im lam^s_a Re lam_sb - Re lam^s_a
    Im lam_sb, the curvature of the normal bundle (the curl of A in the
    Ricci equation), antisymmetric for a symmetric lam; up is
    (Re lam^s_a, Im lam^s_a)."""
    up_re, up_im = up
    K = np.einsum("sa...,sb...->ab...", up_im, lam.real)
    K -= np.einsum("sa...,sb...->ab...", up_re, lam.imag)
    return K


def _coulomb_curl(metric, lam):
    """The data of A's curl condition d_a A_b - d_b A_a = Im(lam^g_a
    conj(lam_bg)), on ``sp.hodge_solve``'s pairs a < b:
    ``_normal_curvature`` there."""
    K = _normal_curvature(lam, tuple(_raise_parts(metric, lam)))
    return K[np.triu_indices(len(lam), 1)]


def _coulomb_divergence_data(metric, A, dA):
    """The data of the Coulomb condition g^{ab} nabla_a A_b = 0 as a flat
    one, d_a A_a = -(g^{ab} - delta^{ab}) d_a A_b + H^c A_c, dA = d_a A_b."""
    return -np.einsum("cb...,cb...->...", metric.inv - _eye(metric.grid), dA) \
        + np.einsum("c...,c...->...", metric.harmonic_defect, A)


def _riemann_entries(metric):
    """((s, g, a, b), multiplicity, R_{sgab}) on the independent entries
    s < g, a < b, (s, g) <= (a, b) of the lowered Riemann tensor, each
    standing for 4 entries of the (d,)*4 stack if (s, g) = (a, b), else 8:
    R_{sgab} = 1/2 (d_a d_g g_{bs} + d_b d_s g_{ag} - d_a d_s g_{bg} - d_b d_g
    g_{as}) + Gamma^n_{ag} Gamma_{n,bs} - Gamma^n_{bg} Gamma_{n,as}."""
    s, g = np.triu_indices(metric.grid.d, 1)
    p, q = np.triu_indices(len(s))
    index = s[p], g[p], s[q], g[q]
    Gam = metric.christoffel
    low = np.einsum("nm...,mbs...->nbs...", metric.g, Gam)
    out = sp.hessian_sums(metric.grid, metric.g, [
        ((0.5, a, g, b, s), (0.5, b, s, a, g), (-0.5, a, s, b, g), (-0.5, b, g, a, s))
        for s, g, a, b in zip(*index)])
    for e, (s, g, a, b) in enumerate(zip(*index)):
        out[e] += np.einsum("n...,n...->...", Gam[:, a, g], low[:, b, s])
        out[e] -= np.einsum("n...,n...->...", Gam[:, b, g], low[:, a, s])
    return index, np.where(p == q, 4.0, 8.0), out


def curvature(metric: MetricField):
    """Riemann (all indices lowered, R_{sgab} = g_{sm} R^m_{gab}) and Ricci,
    Ric_{gb} = R^s_{gsb}: ``_riemann_entries`` mirrored, so
    R_{sgab} = -R_{gsab} = -R_{sgba} = R_{absg} holds exactly."""
    grid = metric.grid
    index, _, entries = _riemann_entries(metric)
    riemann = np.zeros((grid.d,) * 4 + grid.shape)
    for s, g, a, b in (index, index[2:] + index[:2]):
        riemann[s, g, a, b] = riemann[g, s, b, a] = entries
        riemann[g, s, a, b] = riemann[s, g, b, a] = -entries
    return riemann, np.einsum("sm...,mgsb...->gb...", metric.inv, riemann)


def tensor_norm_sq_field(T, nup, nlow, metric):
    """Pointwise |T|^2_g: the parts Re T and Im T go into the frames of
    ``MetricField.frames`` index by index (upper by F, lower by E), so it
    is a flat sum of squares, >= 0."""
    T = np.asarray(T)
    parts = [T.real, T.imag] if np.iscomplexobj(T) else [T]
    F, E = metric.frames
    for i, M in enumerate([F] * nup + [E] * nlow):
        parts = [np.moveaxis(np.einsum("ia...,a...->i...", M, np.moveaxis(P, i, 0)),
                             0, i) for P in parts]
    return sum(sp._abs2(P, metric.grid) for P in parts)


def intrinsic_norm(T, nup, nlow, metric, A=None, k=0):
    """Intrinsic Sobolev norm: sqrt(sum_{l<=k} int |nabla^{A,l} T|^2_g dmu).

    Derivative indices count as lower indices; dmu = sqrt(det g) dx.
    Negative k is out of scope (the duality definition is test-only).
    """
    return intrinsic_norms(T, nup, nlow, metric, A, (k,))[k]


def intrinsic_norms(T, nup, nlow, metric, A=None, ks=(0,)):
    """``intrinsic_norm`` for every order in ``ks``, keyed by order, from
    one pass over the derivative levels (bit-identical to per-k calls)."""
    if any(k < 0 for k in ks):
        raise ValueError("negative intrinsic norms are not a runtime operation")
    top = max(ks, default=-1)
    norms = {}
    total = 0.0
    cur, up, low = np.asarray(T), nup, nlow
    for level in range(top + 1):
        dens = tensor_norm_sq_field(cur, up, low, metric)
        total += float(np.sum(dens * metric.sqrt_det) * metric.grid.cell_volume)
        if level in ks:
            norms[level] = float(np.sqrt(total))
        if level < top:
            cur = covariant_derivative(cur, up, low, metric, A)
            low += 1
    return norms


def energy(psi, metric, A, k):
    """Energy functional of order k: the squared intrinsic Sobolev norm of psi."""
    return intrinsic_norm(psi, 0, 0, metric, A, k) ** 2


@dataclass(frozen=True)
class Residual:
    l2: float
    linf: float


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
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "nondecay"}

    def max_l2(self) -> float:
        return max(r.l2 for r in self.as_dict().values())

    def max_linf(self) -> float:
        return max(r.linf for r in self.as_dict().values())


def constraint_residuals(psi, metric, lam, A):
    """Residual norms of the compatibility conditions for psi (complex
    scalar mean curvature), the metric, the complex second fundamental
    form lam (both indices lower) and the connection covector A.

    Gauss, R_{sgab} - Re(lam_{bg} conj(lam_{as}) - lam_{ag} conj(lam_{bs})),
    is formed on ``_riemann_entries``.  Each other gauge condition is
    reported as the data of its one definition, which the solver's
    updates also read, minus the flat curl or divergence of lam (or of
    A): ``_connection_curl`` minus Codazzi's d_c lam_{ab} - d_a lam_{cb}
    on the pairs c < a, every b; ``_lambda_divergence_data`` minus
    d_a lam_{ab}; ``_coulomb_curl`` minus curl_a's d_a A_b - d_b A_a on
    the pairs a < b; ``_coulomb_divergence_data`` minus d_a A_a.  In the
    norms each entry counts as often as it stands in the full tensor: a
    Gauss entry 4 or 8 times, a Codazzi or curl_a entry twice.  These
    forms use the symmetry of lam, which the ``symmetry`` entry measures;
    every lam the program builds is exactly symmetric.  d lam is taken one
    axis at a time, and each d_e lam goes into Codazzi, the flat
    divergence and the divergence data before the next is formed.
    """
    grid = metric.grid
    results, nondecay = {}, {}

    def report(name, field, weight=1.0):
        """Reduce a residual stack at once, so one at a time is alive; its
        entries count ``weight`` times (one weight, or one per entry)."""
        mean = sp.field_mean(grid, field)
        w = np.broadcast_to(weight, np.shape(mean))
        nondecay[name] = float(np.sqrt(np.sum(w * np.abs(mean) ** 2)))
        a2 = np.zeros(grid.shape)  # sum of w |entry - mean|^2, entry by entry
        for i in np.ndindex(np.shape(mean)):
            a2 += w[i] * sp._abs2(field[i] - mean[i], grid)
        results[name] = Residual(float(np.sqrt(np.sum(a2) * grid.cell_volume)),
                                 float(np.sqrt(np.max(a2))))

    index, weight, gauss = _riemann_entries(metric)
    re, im = lam.real, lam.imag
    for e, (s, g, a, b) in enumerate(zip(*index)):
        gauss[e] -= re[b, g] * re[a, s] + im[b, g] * im[a, s] \
            - re[a, g] * re[b, s] - im[a, g] * im[b, s]
    report("gauss", gauss, weight)
    del gauss

    c, a = np.triu_indices(grid.d, 1)
    codazzi = _connection_curl(metric, A, lam)
    flat = np.zeros(lam.shape[1:], dtype=complex)  # d_a lam_ab

    def read(dlam):
        """Each d_e lam_ab, on its way to the divergence data, also into
        Codazzi's flat curl and the flat divergence."""
        for e, dlam_e in enumerate(dlam):
            for p in range(len(c)):
                if c[p] == e:
                    codazzi[p] -= dlam_e[a[p]]
                if a[p] == e:
                    codazzi[p] += dlam_e[c[p]]
            np.add(flat, dlam_e[e], out=flat)
            yield dlam_e

    divergence = _lambda_divergence_data(
        metric, A, lam, read(sp._derivatives_sym(grid, lam)),
        sp.gradient(grid, psi) + 1j * A * psi)
    report("codazzi", codazzi, 2.0)
    del codazzi
    divergence -= flat
    del flat
    report("divergence", divergence)
    del divergence

    dA = sp.gradient(grid, A)  # (a, b) = d_a A_b
    report("curl_a", _coulomb_curl(metric, lam) - (dA[c, a] - dA[a, c]), 2.0)
    report("coulomb", _coulomb_divergence_data(metric, A, dA) - np.einsum("aa...->...", dA))
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
    dphi = sp.gradient(grid, phi)  # dphi[a, c] = d_a phi^c
    jac = np.einsum("acm->mca", trig_interp(grid, dphi, x).real)
    jac += np.eye(grid.d)  # J[m, c, a] = d y^c / d x^a
    return x, np.linalg.inv(jac)


def harmonic_coordinate_fix(metric):
    """Find y = x + phi(x) so the pulled-back metric is harmonic.

    Solves Delta_g phi^c = g^{ab} Gamma^c_{ab} for all d components in
    one ``solve_laplace_beltrami`` (the coordinate functions
    y^c = x^c + phi^c are then g-harmonic), inverts the coordinate
    change on the grid, and returns the chart (phi, x, inv_jac,
    pulled-back MetricField), x and inv_jac as from
    ``_invert_coordinates``.  Raises ``ValueError`` if the metric
    perturbation is not small, and ``NotContractingError`` if either
    iteration fails.
    """
    grid = metric.grid
    dh2 = sum(sp.l2_norm(grid, D) ** 2 for D in sp._derivatives_sym(grid, metric.h))
    if np.sqrt(dh2) > 0.1 * np.sqrt(grid.volume):
        raise ValueError("metric perturbation too large for the harmonic fix")

    phi = solve_laplace_beltrami(metric, metric.harmonic_defect,
                                 "harmonic coordinate iteration", 1e-10, 200)[0]
    x, inv_jac = _invert_coordinates(grid, phi)
    g_at_x = trig_interp(grid, metric.g, x).real  # (a, b, m)
    g_new = np.einsum("mac,mbd,abm->cdm", inv_jac, inv_jac, g_at_x)
    g_new = g_new.reshape((grid.d, grid.d) + grid.shape)
    return phi, x, inv_jac, MetricField(grid, g_new)
