import functools
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcf import gauge_elliptic as ge
from smcf import geometry as geo
from smcf import spectral as sp
from smcf.geometry import fixed_point
from smcf.spectral import Grid

from conftest import gaussian_psi


def smooth_scalar(grid, seed=0, amp=1.0, complex_valued=False):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.shape)
    if complex_valued:
        f = f + 1j * rng.standard_normal(grid.shape)
    f = sp.lp_project(grid, f, 1, "S_le")
    if not complex_valued:
        f = f.real
    return amp * f / max(np.max(np.abs(f)), 1e-30)


def small_metric(grid, seed=0, amp=0.02):
    """Identity plus a smooth random symmetric perturbation."""
    h = np.zeros((grid.d, grid.d) + grid.shape)
    s = seed
    for a in range(grid.d):
        for b in range(a, grid.d):
            h[a, b] = smooth_scalar(grid, seed=s, amp=amp)
            h[b, a] = h[a, b]
            s += 1
    return geo.MetricField.from_h(grid, h)


def affine_step(a, b, calls):
    """x <- a x + b as a ``fixed_point`` step, recording each call."""
    def step(x):
        calls.append(x)
        x_new = a * x + b
        return x_new, abs(x_new - x)
    return step


class TestFixedPoint:
    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(-0.9, 0.9), b=st.floats(-1.0, 1.0))
    def test_contraction_converges(self, a, b):
        calls = []
        x, iterations, size = geo.fixed_point(affine_step(a, b, calls), 0.0,
                                              "affine map", 1e-12, 1000)
        assert abs(x - b / (1.0 - a)) <= 1e-10
        assert iterations == len(calls)
        assert size <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(1.1, 3.0) | st.floats(-3.0, -1.1),
           b=st.floats(0.1, 1.0) | st.floats(-1.0, -0.1))
    def test_expansion_raises_after_stall(self, a, b):
        calls = []
        with pytest.raises(geo.NotContractingError) as info:
            geo.fixed_point(affine_step(a, b, calls), 0.0, "affine map", 1e-12, 1000)
        assert "affine map" in str(info.value)
        assert np.isfinite(info.value.residual)
        # the sizes grow from the first step, so the stall rule fires
        assert len(calls) == geo._STALL_LIMIT + 1

    def test_non_finite_size_raises_at_once(self):
        calls = []

        def step(x):
            calls.append(x)
            return x, float("nan")

        with pytest.raises(geo.NotContractingError) as info:
            geo.fixed_point(step, 0.0, "nan map", 1e-12, 200)
        assert "nan map" in str(info.value)
        assert len(calls) == 1

    def test_iteration_limit(self):
        calls = []
        with pytest.raises(geo.NotContractingError) as info:
            geo.fixed_point(affine_step(0.5, 1.0, calls), 0.0, "slow map", 1e-12, 5)
        assert "5 iterations" in str(info.value)
        assert len(calls) == 5
        assert info.value.residual == pytest.approx(2.0 ** -4)


    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(-0.5, 0.5), b=st.floats(-1.0, 1.0),
           q=st.floats(0.0, 0.5) | st.just(float("nan")))
    def test_stops_at_the_first_banach_bound(self, a, b, q):
        # x <- a x + b contracts by |a|; from the second step on the loop
        # reads q off its own sizes, before that it takes the given q
        tol, calls, sizes = 1e-9, [], []
        affine = affine_step(a, b, calls)

        def step(x):
            x_new, size = affine(x)
            sizes.append(size)
            return x_new, size

        x, iterations, size, q_used = geo.fixed_point(step, 0.0, "affine map",
                                                      tol, 1000, q)

        def bound(k):  # the stop test at step k (1-based)
            qk = q if k == 1 else sizes[k - 1] / sizes[k - 2]
            return sizes[k - 1] <= tol or (
                qk <= 0.5 and qk / (1 - qk) * sizes[k - 1] <= tol / 2)

        assert iterations == len(sizes) and size == sizes[-1]
        assert bound(iterations)
        assert not any(bound(k) for k in range(1, iterations))
        assert np.array_equal(q_used, q if iterations == 1
                              else sizes[-1] / sizes[-2], equal_nan=True)
        if iterations > 1 or q >= abs(a):  # a true factor bounds the error
            assert abs(x - b / (1.0 - a)) <= tol

    def test_bound_saves_the_confirming_step(self):
        calls = []
        plain = geo.fixed_point(affine_step(0.1, 1.0, calls), 0.0, "affine map",
                                1e-10, 100)
        banach = geo.fixed_point(affine_step(0.1, 1.0, calls), 0.0, "affine map",
                                 1e-10, 100, float("nan"))
        assert len(plain) == 3 and len(banach) == 4
        assert banach[1] == plain[1] - 1
        assert abs(banach[0] - 1.0 / 0.9) <= 1e-10

    @pytest.mark.parametrize("q", [0.6, float("nan")])
    def test_slow_contraction_keeps_size_rule(self, q):
        # a measured q > 1/2 falls back to size <= tol; a borrowed q only
        # stands in for the first step
        plain = geo.fixed_point(affine_step(0.7, 1.0, []), 0.0, "affine map",
                                1e-12, 1000)
        x, iterations, size, q_used = geo.fixed_point(
            affine_step(0.7, 1.0, []), 0.0, "affine map", 1e-12, 1000, q)
        assert (x, iterations, size) == plain
        assert q_used == pytest.approx(0.7, rel=1e-3)  # sizes near tol

    def test_borrowed_factor_hides_no_failure(self):
        # a small borrowed q does not stop a step whose bound misses tol,
        # nor a non-finite size, a stall or the iteration limit
        calls = []

        def nan_step(x):
            calls.append(x)
            return x, float("nan")

        with pytest.raises(geo.NotContractingError, match="update size is nan"):
            geo.fixed_point(nan_step, 0.0, "nan map", 1e-12, 200, 0.0)
        assert len(calls) == 1
        calls = []
        with pytest.raises(geo.NotContractingError, match="stopped decreasing"):
            geo.fixed_point(affine_step(2.0, 1.0, calls), 0.0, "affine map",
                            1e-12, 1000, 1e-6)
        assert len(calls) == geo._STALL_LIMIT + 1
        calls = []
        with pytest.raises(geo.NotContractingError, match="5 iterations") as info:
            geo.fixed_point(affine_step(0.5, 1.0, calls), 0.0, "slow map",
                            1e-12, 5, 1e-9)
        assert len(calls) == 5
        assert info.value.residual == pytest.approx(2.0 ** -4)

    def test_step_holds_the_only_reference_to_its_iterate(self):
        class Iterate:
            def __init__(self, value):
                self.value = value

        dead = []

        def step(x):
            value, ref = x.value, weakref.ref(x)
            del x
            dead.append(ref() is None)
            return Iterate(0.5 * value), 0.5 * value

        x, iterations, _ = geo.fixed_point(step, Iterate(1.0), "halving", 1e-3, 50)
        assert iterations == len(dead) == 10
        assert all(dead)  # the start too
        assert x.value == 2.0 ** -10


def nyquist_rich_metric(grid, seed, amp=0.02):
    """I plus a symmetric perturbation with every mode, the Nyquist planes
    included, and explicit (-1)^{j_a} content on each axis."""
    rng = np.random.default_rng(seed)
    lead = (grid.d, grid.d)
    h = rng.standard_normal(lead + grid.shape)
    sign = (-1.0) ** np.indices(grid.shape)
    for a in range(grid.d):
        h += rng.standard_normal(lead + (1,) * grid.d) * sign[a]
    return geo.MetricField.from_h(grid, amp * (h + np.swapaxes(h, 0, 1)))


def christoffel_whole_stack(metric):
    """Gamma^c_{ab} = 1/2 g^{cs} (d_b g_{as} + d_a g_{bs} - d_s g_{ab}),
    literally, from the whole gradient dg[s, a, b] = d_s g_{ab}."""
    dg = sp.gradient(metric.grid, metric.g)
    low = np.einsum("bas...->sab...", dg) + np.einsum("abs...->sab...", dg) - dg
    return np.einsum("cs...,sab...->cab...", metric.inv, 0.5 * low)


class TestMetricField:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_christoffel_is_the_whole_stack_formula(self, d):
        # MetricField sums Gamma_{s,ab} one axis of d g at a time
        m = nyquist_rich_metric(Grid(d=d, n=8), seed=d)
        want = christoffel_whole_stack(m)
        assert np.max(np.abs(want)) > 1e-3
        assert np.max(np.abs(m.christoffel - want)) <= 1e-15 * np.max(np.abs(want))

    def test_identity(self, grid2):
        m = geo.MetricField.identity(grid2)
        assert np.max(np.abs(m.christoffel)) <= 1e-13
        assert np.max(np.abs(m.inv - m.g)) <= 1e-13
        assert np.max(np.abs(m.sqrt_det - 1.0)) <= 1e-13
        assert abs(m.min_eigenvalue - 1.0) <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_identity_is_the_flat_from_h(self, d):
        # built in closed form, equal to the transformed and factored I + 0
        # in every attribute: those __init__ sets and the cached ones
        grid = Grid(d=d, n=8)
        got = geo.MetricField.identity(grid)
        want = geo.MetricField.from_h(grid, np.zeros((d, d) + grid.shape))
        for name, value in vars(geo.MetricField).items():
            if isinstance(value, functools.cached_property):
                getattr(got, name), getattr(want, name)
        assert vars(got).keys() == vars(want).keys()
        for name, value in vars(want).items():
            assert np.shape(vars(got)[name]) == np.shape(value), name
        np.testing.assert_equal(vars(got), vars(want))

    def test_rejects_asymmetric(self, grid2):
        g = geo.MetricField.identity(grid2).g.copy()
        g[0, 1] += 1e-3
        with pytest.raises(ValueError):
            geo.MetricField(grid2, g)

    def test_rejects_indefinite(self, grid2):
        g = geo.MetricField.identity(grid2).g.copy()
        g[0, 0] *= -1.0
        with pytest.raises(geo.SingularMetricError):
            geo.MetricField(grid2, g)

    def test_h_roundtrip(self, grid2):
        m = small_metric(grid2, seed=3)
        m2 = geo.MetricField.from_h(grid2, m.h)
        assert np.max(np.abs(m2.g - m.g)) <= 1e-13

    def test_inverse_contracts_to_identity(self, grid2):
        m = small_metric(grid2, seed=4)
        prod = np.einsum("ab...,bc...->ac...", m.inv, m.g)
        eye = geo.MetricField.identity(grid2).g
        assert np.max(np.abs(prod - eye)) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_ldl_inverse_matches_linalg(self, d):
        rng = np.random.default_rng(d)
        pts = (5, 7)
        B = rng.standard_normal((d, d) + pts)
        g = np.einsum("ac...,bc...->ab...", B, B) + 0.5 * np.eye(d).reshape(
            (d, d) + (1,) * len(pts))  # SPD field with O(1) condition numbers
        inv, det = geo._ldl_inverse(g)
        gm = np.moveaxis(g, (0, 1), (-2, -1))
        ref_inv = np.moveaxis(np.linalg.inv(gm), (-2, -1), (0, 1))
        scale = np.max(np.abs(ref_inv))
        assert np.max(np.abs(inv - ref_inv)) <= 1e-13 * scale
        ref_det = np.linalg.det(gm)
        assert np.max(np.abs(det - ref_det) / ref_det) <= 1e-13
        assert inv.flags.c_contiguous

    def test_rejects_indefinite_positive_diagonal(self, grid2):
        g = np.zeros((2, 2) + grid2.shape)
        g[0, 0] = g[1, 1] = 1.0
        g[0, 1] = g[1, 0] = 2.0  # eigenvalues 3 and -1
        with pytest.raises(geo.SingularMetricError):
            geo.MetricField(grid2, g)

    def test_rejects_nan_without_warning(self, grid2):
        g = geo.MetricField.identity(grid2).g.copy()
        g[1, 1, 3, 4] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(geo.SingularMetricError):
                geo.MetricField(grid2, g)

    def test_inverse_is_c_contiguous(self, grid2):
        m = small_metric(grid2, seed=4)
        assert m.inv.flags.c_contiguous
        assert m.christoffel.flags.c_contiguous

    def test_laplace_beltrami_flat_reduction(self, grid2):
        m = geo.MetricField.identity(grid2)
        f = smooth_scalar(grid2, seed=5, complex_valued=True)
        assert np.max(np.abs(m.laplace_beltrami(f) - sp.laplacian(grid2, f))) <= 1e-11


def random_mean_zero(grid, lead, seed):
    """Random real field, Nyquist planes included, with zero mean."""
    u = np.random.default_rng(seed).standard_normal(lead + grid.shape)
    return u - np.mean(u, axis=grid.spatial_axes, keepdims=True)


class TestSolveLaplaceBeltrami:
    TOL = 1e-10

    @settings(max_examples=20, deadline=None)
    @given(d=st.sampled_from([2, 3]), stacked=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_inverts_laplace_beltrami(self, d, stacked, seed):
        grid = Grid(d=d, n=12 if d == 2 else 8)
        m = small_metric(grid, seed=seed % 1000, amp=0.05)
        u = random_mean_zero(grid, (d,) if stacked else (), seed)
        solved = geo.solve_laplace_beltrami(m, m.laplace_beltrami(u), "LB solve",
                                            self.TOL, 200)[0]
        assert solved.shape == u.shape
        assert np.max(np.abs(solved - u)) <= 10 * self.TOL

    @settings(max_examples=20, deadline=None)
    @given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_stacked_equals_per_component(self, d, seed):
        """A stacked solve sweeps until its slowest component converges;
        each component that needs as many sweeps alone is bit-identical
        to its own solve, and the others agree to the tolerance."""
        grid = Grid(d=d, n=12 if d == 2 else 8)
        m = small_metric(grid, seed=seed % 1000, amp=0.05)
        rhs = m.laplace_beltrami(random_mean_zero(grid, (d,), seed))
        sweeps = []

        def counted(*args):
            out = fixed_point(*args)
            sweeps.append(out[1])
            return out

        with mock.patch.object(geo, "fixed_point", counted):
            stacked = geo.solve_laplace_beltrami(m, rhs, "LB solve", self.TOL, 200)[0]
            alone = [geo.solve_laplace_beltrami(m, rhs[c], "LB solve", self.TOL, 200)[0]
                     for c in range(d)]
        assert sweeps[0] == max(sweeps[1:])
        for c in range(d):
            if sweeps[1 + c] == sweeps[0]:
                assert np.array_equal(stacked[c], alone[c])
            else:
                assert np.max(np.abs(stacked[c] - alone[c])) <= 10 * self.TOL

    def test_expanding_iteration_raises(self, grid2):
        # Delta_g = 2.5 Delta, so the flat-preconditioned sweep multiplies
        # the error by 1 - 2.5 = -1.5
        g = 0.4 * np.eye(2).reshape((2, 2, 1, 1)) * np.ones(grid2.shape)
        m = geo.MetricField(grid2, g)
        rhs = random_mean_zero(grid2, (), 0)
        with pytest.raises(geo.NotContractingError, match="test solve"):
            geo.solve_laplace_beltrami(m, rhs, "test solve", 1e-10, 200)


class TestCovariantDerivative:
    def test_scalar_is_gradient(self, grid2):
        m = small_metric(grid2, seed=6)
        f = smooth_scalar(grid2, seed=7, complex_valued=True)
        df = geo.covariant_derivative(f, 0, 0, m)
        assert np.max(np.abs(df - sp.gradient(grid2, f))) <= 1e-12

    def test_gauged_scalar(self, grid2):
        m = small_metric(grid2, seed=8)
        f = smooth_scalar(grid2, seed=9, complex_valued=True)
        A = np.stack([smooth_scalar(grid2, seed=10 + a) for a in range(2)])
        dAf = geo.covariant_derivative(f, 0, 0, m, A)
        expect = sp.gradient(grid2, f) + 1j * A * f
        assert np.max(np.abs(dAf - expect)) <= 1e-12

    def test_metric_compatibility(self, grid2):
        m = small_metric(grid2, seed=12)
        dg = geo.covariant_derivative(m.g, 0, 2, m)
        assert np.max(np.abs(dg)) <= 1e-10

    def test_second_derivative_of_scalar_symmetric(self, grid2):
        # torsion-free connection: Hessians of scalars are symmetric
        m = small_metric(grid2, seed=13)
        f = smooth_scalar(grid2, seed=14, complex_valued=True)
        df = geo.covariant_derivative(f, 0, 0, m)
        d2f = geo.covariant_derivative(df, 0, 1, m)
        assert np.max(np.abs(d2f - np.einsum("ab...->ba...", d2f))) <= 1e-10


def curvature_from_christoffel(metric):
    """The Christoffel-derivative form of ``geo.curvature``, the reference
    for its second-derivative form: R^s_{gab} = d_a Gamma^s_{bg} -
    d_b Gamma^s_{ag} + Gamma^m_{bg} Gamma^s_{am} - Gamma^m_{ag} Gamma^s_{bm},
    lowered with g, and Ric_{gb} = R^s_{gsb}."""
    grid, Gam = metric.grid, metric.christoffel
    dGam = sp.gradient(grid, Gam)  # (m, c, a, b) = d_m Gamma^c_{ab}
    half = np.einsum("asbg...->sgab...", dGam) \
        + np.einsum("mbg...,sam...->sgab...", Gam, Gam)
    riem_up = half - np.einsum("sgab...->sgba...", half)
    return (np.einsum("ms...,mgab...->sgab...", metric.g, riem_up),
            np.einsum("sgsb...->gb...", riem_up))


class TestCurvature:
    @pytest.mark.parametrize("d, n", [(2, 32), (3, 12), (4, 8)])
    def test_pair_symmetries_exact(self, d, n):
        riemann, _ = geo.curvature(small_metric(Grid(d=d, n=n), seed=40, amp=0.05))
        assert np.max(np.abs(riemann)) > 0
        assert np.array_equal(riemann, -np.einsum("sgab...->gsab...", riemann))
        assert np.array_equal(riemann, -np.einsum("sgab...->sgba...", riemann))
        assert np.array_equal(riemann, np.einsum("sgab...->absg...", riemann))

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 12), (4, 12)])
    def test_matches_christoffel_derivative_form(self, d, n):
        # a metric of the lowest band, resolved on these grids; the two
        # forms differ by how products of its modes alias
        grid, rng = Grid(d=d, n=n), np.random.default_rng(41)
        h = rng.standard_normal((d, d) + grid.shape)
        h = sp.lp_project(grid, h + np.swapaxes(h, 0, 1), 0, "S_le").real
        m = geo.MetricField.from_h(grid, 0.01 * h / np.max(np.abs(h)))
        for got, want in zip(geo.curvature(m), curvature_from_christoffel(m)):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_flat_dimension_one(self):
        grid = Grid(d=1, n=32)
        m = small_metric(grid, seed=15, amp=0.1)
        riemann, ricci = geo.curvature(m)
        assert np.max(np.abs(riemann)) <= 1e-12
        assert np.max(np.abs(ricci)) <= 1e-12

    def test_conformal_scalar_curvature(self, grid2):
        # g = e^{2p} delta in 2d has scalar curvature -2 e^{-2p} Lap p
        p = smooth_scalar(grid2, seed=16, amp=0.05)
        conf = np.exp(2.0 * p)
        g = np.zeros((2, 2) + grid2.shape)
        g[0, 0] = conf
        g[1, 1] = conf
        m = geo.MetricField(grid2, g)
        _, ricci = geo.curvature(m)
        scal = np.einsum("ab...,ab...->...", m.inv, ricci)
        expect = -2.0 * np.exp(-2.0 * p) * sp.laplacian(grid2, p).real
        assert np.max(np.abs(scal - expect)) <= 1e-9

    def test_ricci_in_2d_is_half_scalar_times_metric(self, grid2):
        m = small_metric(grid2, seed=17, amp=0.05)
        _, ricci = geo.curvature(m)
        scal = np.einsum("ab...,ab...->...", m.inv, ricci)
        assert np.max(np.abs(ricci - 0.5 * scal * m.g)) <= 1e-10

    def test_riemann_antisymmetries(self, grid2):
        m = small_metric(grid2, seed=18, amp=0.05)
        riemann, _ = geo.curvature(m)
        scale = max(np.max(np.abs(riemann)), 1e-30)
        assert np.max(np.abs(riemann + np.einsum("sgab...->sgba...", riemann))) / scale <= 1e-9
        assert np.max(np.abs(riemann + np.einsum("sgab...->gsab...", riemann))) / scale <= 1e-9

    def test_commutator_on_covector(self, grid2):
        # [nabla_a, nabla_b] w_c = -R^s_{cab} w_s
        m = small_metric(grid2, seed=19, amp=0.05)
        w = np.stack([smooth_scalar(grid2, seed=20 + a, complex_valued=True) for a in range(2)])
        dw = geo.covariant_derivative(w, 0, 1, m)
        d2w = geo.covariant_derivative(dw, 0, 2, m)  # (a, b, c)
        comm = d2w - np.einsum("abc...->bac...", d2w)
        riemann, _ = geo.curvature(m)
        riem_up = np.einsum("sm...,mcab...->scab...", m.inv, riemann)
        expect = -np.einsum("scab...,s...->abc...", riem_up.astype(complex), w)
        assert np.max(np.abs(comm - expect)) <= 1e-8


def norm_sq_by_raising(grid, T, nup, nlow, metric):
    """|T|^2_g as T with every index moved by g or g^{-1}, dotted with
    conj(T): the reference for ``geo.tensor_norm_sq_field``'s frames."""
    M = T
    for ax in range(nup + nlow):
        G = metric.g if ax < nup else metric.inv
        M = np.moveaxis(np.einsum("ab...,b...->a...", G, np.moveaxis(M, ax, 0)), 0, ax)
    return (M * np.conj(T)).real.sum(axis=tuple(range(nup + nlow)))


class TestNormsAndEnergy:
    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("nup, nlow", [(0, 1), (0, 2), (1, 1), (0, 4)])
    def test_density_matches_raised_form(self, d, n, nup, nlow):
        grid, rng = Grid(d=d, n=n), np.random.default_rng(nup + 2 * nlow)
        m = small_metric(grid, seed=42, amp=0.2)
        shape = (d,) * (nup + nlow) + grid.shape
        T = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for part in (T, T.real):
            want = norm_sq_by_raising(grid, part, nup, nlow, m)
            got = geo.tensor_norm_sq_field(part, nup, nlow, m)
            assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_pointwise_norm_nonnegative(self, grid2):
        m = small_metric(grid2, seed=22)
        T = np.stack([smooth_scalar(grid2, seed=23 + a, complex_valued=True) for a in range(2)])
        dens = geo.tensor_norm_sq_field(T, 0, 1, m)
        assert np.min(dens) >= -1e-14

    def test_flat_reduction(self, grid2, flat_sobolev_norm):
        m = geo.MetricField.identity(grid2)
        f = smooth_scalar(grid2, seed=25, complex_valued=True)
        for k in range(4):
            a = geo.intrinsic_norm(f, 0, 0, m, None, k)
            b = flat_sobolev_norm(grid2, f, k)
            assert abs(a - b) / b <= 1e-10

    def test_identity_metric_matches_flat(self, grid2, flat_sobolev_norm):
        m = geo.MetricField.identity(grid2)
        f = smooth_scalar(grid2, seed=26, complex_valued=True)
        a = geo.intrinsic_norm(f, 0, 0, m, None, 3)
        b = flat_sobolev_norm(grid2, f, 3)
        assert abs(a - b) / b <= 1e-10

    def test_monotone_in_k(self, grid2):
        m = small_metric(grid2, seed=27)
        f = smooth_scalar(grid2, seed=28, complex_valued=True)
        A = np.stack([smooth_scalar(grid2, seed=29 + a) for a in range(2)])
        norms = [geo.intrinsic_norm(f, 0, 0, m, A, k) for k in range(4)]
        assert all(norms[i + 1] >= norms[i] for i in range(3))

    def test_energy_is_squared_norm(self, grid2):
        m = small_metric(grid2, seed=31)
        f = smooth_scalar(grid2, seed=32, complex_valued=True)
        e = geo.energy(f, m, None, 2)
        n = geo.intrinsic_norm(f, 0, 0, m, None, 2)
        assert abs(e - n * n) <= 1e-12 * max(e, 1.0)

    def test_negative_order_rejected(self, grid2):
        with pytest.raises(ValueError):
            geo.intrinsic_norm(np.zeros(grid2.shape), 0, 0,
                               geo.MetricField.identity(grid2), None, -1)


class TestConstraintResiduals:
    def test_trivial_state_clean(self, grid2):
        m = geo.MetricField.identity(grid2)
        psi = np.zeros(grid2.shape, dtype=complex)
        lam = np.zeros((2, 2) + grid2.shape, dtype=complex)
        A = np.zeros((2,) + grid2.shape)
        rep = geo.constraint_residuals(psi, m, lam, A)
        assert rep.max_l2() <= 1e-12
        assert rep.max_linf() <= 1e-12

    def test_symmetry_and_trace_detect_violations(self, grid2):
        m = geo.MetricField.identity(grid2)
        psi = np.zeros(grid2.shape, dtype=complex)
        lam = np.zeros((2, 2) + grid2.shape, dtype=complex)
        lam[0, 1] = smooth_scalar(grid2, seed=33, complex_valued=True)
        A = np.zeros((2,) + grid2.shape)
        rep = geo.constraint_residuals(psi, m, lam, A)
        assert rep.symmetry.l2 > 1e-3
        lam[1, 0] = lam[0, 1]
        lam[0, 0] = smooth_scalar(grid2, seed=34, complex_valued=True)
        rep = geo.constraint_residuals(psi, m, lam, A)
        assert rep.symmetry.l2 <= 1e-12
        assert rep.trace.l2 > 1e-3

    def test_mean_projection_reported(self, grid2):
        m = geo.MetricField.identity(grid2)
        psi = np.full(grid2.shape, 0.5 + 0j)  # constant psi breaks the trace
        lam = np.zeros((2, 2) + grid2.shape, dtype=complex)
        A = np.zeros((2,) + grid2.shape)
        rep = geo.constraint_residuals(psi, m, lam, A)
        assert rep.trace.l2 <= 1e-13  # constant residual was projected out...
        assert abs(rep.nondecay["trace"] - 0.5) <= 1e-12  # ...and reported


def literal_report(grid, psi, metric, lam, A):
    """Each condition of ``geo.constraint_residuals`` as its full tensor,
    from ``geo.covariant_derivative`` and ``curvature_from_christoffel``:
    {name: (l2, linf, nondecay)} of the mean-projected field."""
    out = {}

    def norms(name, field):
        mean = sp.field_mean(grid, field)
        field = field - mean[(...,) + (np.newaxis,) * grid.d]
        out[name] = (sp.l2_norm(grid, field), sp.linf_norm(grid, field),
                     float(np.sqrt(np.sum(np.abs(mean) ** 2))))

    re, im = lam.real, lam.imag
    half = np.einsum("bg...,as...->sgab...", re, re) \
        + np.einsum("bg...,as...->sgab...", im, im)
    norms("gauss", curvature_from_christoffel(metric)[0] - half
          + np.einsum("sgab...->sgba...", half))
    dlam = geo.covariant_derivative(lam, 0, 2, metric, A)  # (c, a, b)
    norms("codazzi", dlam - np.einsum("acb...->cab...", dlam))
    norms("divergence", np.einsum("ca...,cab...->b...", metric.inv, dlam)
          - geo.covariant_derivative(psi, 0, 0, metric, A))
    dA = geo.covariant_derivative(A, 0, 1, metric)  # (c, a)
    lam_up = np.einsum("gc...,ca...->ga...", metric.inv, lam)
    norms("curl_a", dA - np.einsum("ac...->ca...", dA)
          - np.einsum("ga...,bg...->ab...", lam_up, np.conj(lam)).imag)
    norms("coulomb", np.einsum("ab...,ab...->...", metric.inv, dA))
    norms("harmonic", metric.harmonic_defect)
    norms("symmetry", lam - np.einsum("ba...->ab...", lam))
    norms("trace", np.einsum("ab...,ab...->...", metric.inv, lam) - psi)
    return out


class TestReportForms:
    """The report forms each condition on its independent entries; on
    converged states its norms are those of the full tensors."""

    @pytest.fixture(scope="class", params=[(2, 32), (3, 16)], ids=["32^2", "16^3"])
    def state(self, request):
        grid = Grid(d=request.param[0], n=request.param[1])
        x = grid.coords()
        r2 = sum((x[a] - np.pi) ** 2 for a in range(grid.d))
        psi = 1e-2 * np.exp(-r2 / 0.72) * np.exp(1j * (x[0] - np.pi))
        return ge.solve_elliptic_system(grid, psi - np.mean(psi),
                                        ge.EllipticConfig(smallness_threshold=0.25))

    def test_matches_literal_report(self, state):
        rep = state.constraint_report()
        want = literal_report(state.grid, state.psi, state.metric, state.lam, state.A)
        for name, values in want.items():
            got = (getattr(rep, name).l2, getattr(rep, name).linf, rep.nondecay[name])
            if name == "gauss":
                # the curvature forms differ by truncation: round-off where
                # the state is resolved (32^2), no larger where not (16^3)
                assert all(g <= max(w, 1e-11) for g, w in zip(got[:2], values))
                assert got[2] == pytest.approx(values[2], abs=1e-16)
            else:
                assert got == pytest.approx(values, rel=1e-12, abs=1e-16), name


def direct_trig_sum(grid, f, points):
    """The interpolant as a direct sum over all N = n^d modes (O(N) per point)."""
    fh = grid.fft(np.asarray(f)) / grid.n**grid.d
    lead = fh.shape[: fh.ndim - grid.d]
    K = grid.full.k.reshape(grid.d, -1)
    phase = np.exp(1j * points.T @ K)  # (points, modes)
    return np.einsum("pm,...m->...p", phase, fh.reshape(lead + (-1,)))


class TestTrigInterp:
    @pytest.mark.parametrize("lead", [(), (2,), (2, 2)])
    @pytest.mark.parametrize("d, n", [(1, 16), (2, 12), (3, 8)])
    def test_matches_direct_mode_sum(self, d, n, lead):
        grid = Grid(d=d, n=n)
        rng = np.random.default_rng(40 + d)
        f = (rng.standard_normal(lead + grid.shape)
             + 1j * rng.standard_normal(lead + grid.shape))
        pts = rng.uniform(-1.0, 2 * np.pi + 1.0, size=(d, 53))  # 53 = 7*7 + 4
        vals = sp.trig_interp(grid, f, pts, chunk=7)
        expect = direct_trig_sum(grid, f, pts)
        assert vals.shape == lead + (53,)
        assert np.max(np.abs(vals - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_reproduces_grid_values(self, grid2):
        f = smooth_scalar(grid2, seed=35, complex_valued=True)
        pts = grid2.coords().reshape(2, -1)
        vals = sp.trig_interp(grid2, f, pts)
        assert np.max(np.abs(vals - f.reshape(-1))) <= 1e-12

    def test_offset_points_exact_for_band_limited(self, grid2):
        x = grid2.coords()
        f = np.cos(3 * x[0]) * np.sin(2 * x[1]) + 0j
        rng = np.random.default_rng(36)
        pts = rng.uniform(0, 2 * np.pi, size=(2, 50))
        vals = sp.trig_interp(grid2, f, pts)
        expect = np.cos(3 * pts[0]) * np.sin(2 * pts[1])
        assert np.max(np.abs(vals - expect)) <= 1e-11


class TestHarmonicFix:
    def test_flat_metric_is_fixed_point(self, grid2):
        m = geo.MetricField.identity(grid2)
        phi, _, _, fixed = geo.harmonic_coordinate_fix(m)
        assert np.max(np.abs(phi)) <= 1e-12
        assert np.max(np.abs(fixed.g - m.g)) <= 1e-10

    def test_defect_removed(self, grid2):
        m = small_metric(grid2, seed=37, amp=0.02)
        before = sp.l2_norm(grid2, m.harmonic_defect)
        phi, _, _, fixed = geo.harmonic_coordinate_fix(m)
        after = sp.l2_norm(grid2, fixed.harmonic_defect)
        assert before > 1e-4
        assert after <= 1e-6
        assert after <= 1e-3 * before

    def test_rejects_large_perturbation(self, grid2):
        m = small_metric(grid2, seed=38, amp=0.5)
        with pytest.raises(ValueError):
            geo.harmonic_coordinate_fix(m)

    def test_smallness_threshold(self, grid2, monkeypatch):
        # ||d h||_{L2} <= 0.1 |T^d|^{1/2} passes on to the solve, and a
        # metric just beyond it is rejected before the solve
        class Solved(Exception):
            pass

        def solve(*args):
            raise Solved

        monkeypatch.setattr(geo, "solve_laplace_beltrami", solve)
        h = small_metric(grid2, seed=39).h
        scale = 0.1 * np.sqrt(grid2.volume) / sp.l2_norm(grid2, sp.gradient(grid2, h))
        with pytest.raises(ValueError, match="too large"):
            geo.harmonic_coordinate_fix(geo.MetricField.from_h(grid2, h * scale * 1.000001))
        with pytest.raises(Solved):
            geo.harmonic_coordinate_fix(geo.MetricField.from_h(grid2, h * scale * 0.999999))

    def test_acceptance_metric_passes(self, grid2):
        st = ge.solve_elliptic_system(grid2, gaussian_psi(grid2),
                                      ge.EllipticConfig(smallness_threshold=0.25),
                                      report=False)
        # the solve's metric is harmonic to its tolerance: the chart is the
        # identity up to it
        phi, _, _, fixed = geo.harmonic_coordinate_fix(st.metric)
        assert np.max(np.abs(phi)) <= 1e-10
        assert np.max(np.abs(fixed.g - st.metric.g)) <= 1e-10


class TestInvertCoordinates:
    def test_inverts_small_shift(self, grid2):
        x = grid2.coords()
        phi = 0.1 * np.stack([np.sin(x[1]), np.cos(x[0] + x[1])])
        pre, inv_jac = geo._invert_coordinates(grid2, phi)
        # the preimages map back onto the grid: x + phi(x) = y
        y = pre + sp.trig_interp(grid2, phi, pre).real
        assert np.max(np.abs(y - grid2.coords().reshape(2, -1))) <= 1e-12
        assert inv_jac.shape == (grid2.n**2, 2, 2)

    def test_non_contracting_map_raises(self, grid2):
        # slope 1.5 > 1: x = y - phi(x) has no contracting fixed point
        x = grid2.coords()
        phi = np.stack([1.5 * np.sin(x[0]), np.zeros(grid2.shape)])
        with pytest.raises(geo.NotContractingError) as info:
            geo._invert_coordinates(grid2, phi)
        assert info.value.residual > 1e-13
