import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcf import geometry as geo
from smcf import spectral as sp
from smcf.geometry import fixed_point
from smcf.spectral import Grid


@pytest.fixture
def grid2():
    return Grid(d=2, n=32)


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


class TestMetricField:
    def test_identity(self, grid2):
        m = geo.MetricField.identity(grid2)
        assert np.max(np.abs(m.christoffel)) <= 1e-13
        assert np.max(np.abs(m.inv - m.g)) <= 1e-13
        assert np.max(np.abs(m.sqrt_det - 1.0)) <= 1e-13
        assert abs(m.min_eigenvalue - 1.0) <= 1e-13

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
                                            self.TOL, 200)
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
            stacked = geo.solve_laplace_beltrami(m, rhs, "LB solve", self.TOL, 200)
            alone = [geo.solve_laplace_beltrami(m, rhs[c], "LB solve", self.TOL, 200)
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
        df = geo.covariant_derivative(grid2, f, 0, 0, m)
        assert np.max(np.abs(df - sp.gradient(grid2, f))) <= 1e-12

    def test_gauged_scalar(self, grid2):
        m = small_metric(grid2, seed=8)
        f = smooth_scalar(grid2, seed=9, complex_valued=True)
        A = np.stack([smooth_scalar(grid2, seed=10 + a) for a in range(2)])
        dAf = geo.covariant_derivative(grid2, f, 0, 0, m, A)
        expect = sp.gradient(grid2, f) + 1j * A * f
        assert np.max(np.abs(dAf - expect)) <= 1e-12

    def test_metric_compatibility(self, grid2):
        m = small_metric(grid2, seed=12)
        dg = geo.covariant_derivative(grid2, m.g, 0, 2, m)
        assert np.max(np.abs(dg)) <= 1e-10

    def test_second_derivative_of_scalar_symmetric(self, grid2):
        # torsion-free connection: Hessians of scalars are symmetric
        m = small_metric(grid2, seed=13)
        f = smooth_scalar(grid2, seed=14, complex_valued=True)
        df = geo.covariant_derivative(grid2, f, 0, 0, m)
        d2f = geo.covariant_derivative(grid2, df, 0, 1, m)
        assert np.max(np.abs(d2f - np.einsum("ab...->ba...", d2f))) <= 1e-10


class TestCurvature:
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
        dw = geo.covariant_derivative(grid2, w, 0, 1, m)
        d2w = geo.covariant_derivative(grid2, dw, 0, 2, m)  # (a, b, c)
        comm = d2w - np.einsum("abc...->bac...", d2w)
        riemann, _ = geo.curvature(m)
        riem_up = np.einsum("sm...,mcab...->scab...", m.inv, riemann)
        expect = -np.einsum("scab...,s...->abc...", riem_up.astype(complex), w)
        assert np.max(np.abs(comm - expect)) <= 1e-8


class TestNormsAndEnergy:
    def test_pointwise_norm_nonnegative(self, grid2):
        m = small_metric(grid2, seed=22)
        T = np.stack([smooth_scalar(grid2, seed=23 + a, complex_valued=True) for a in range(2)])
        dens = geo.tensor_norm_sq_field(grid2, T, 0, 1, m)
        assert np.min(dens) >= -1e-14

    def test_flat_reduction(self, grid2):
        f = smooth_scalar(grid2, seed=25, complex_valued=True)
        for k in range(4):
            a = geo.intrinsic_norm(grid2, f, 0, 0, None, None, k)
            b = sp.flat_sobolev_norm(grid2, f, k)
            assert abs(a - b) / b <= 1e-10

    def test_identity_metric_matches_flat(self, grid2):
        m = geo.MetricField.identity(grid2)
        f = smooth_scalar(grid2, seed=26, complex_valued=True)
        a = geo.intrinsic_norm(grid2, f, 0, 0, m, None, 3)
        b = sp.flat_sobolev_norm(grid2, f, 3)
        assert abs(a - b) / b <= 1e-10

    def test_monotone_in_k(self, grid2):
        m = small_metric(grid2, seed=27)
        f = smooth_scalar(grid2, seed=28, complex_valued=True)
        A = np.stack([smooth_scalar(grid2, seed=29 + a) for a in range(2)])
        norms = [geo.intrinsic_norm(grid2, f, 0, 0, m, A, k) for k in range(4)]
        assert all(norms[i + 1] >= norms[i] for i in range(3))

    def test_energy_is_squared_norm(self, grid2):
        m = small_metric(grid2, seed=31)
        f = smooth_scalar(grid2, seed=32, complex_valued=True)
        e = geo.energy(grid2, f, m, None, 2)
        n = geo.intrinsic_norm(grid2, f, 0, 0, m, None, 2)
        assert abs(e - n * n) <= 1e-12 * max(e, 1.0)

    def test_negative_order_rejected(self, grid2):
        with pytest.raises(ValueError):
            geo.intrinsic_norm(grid2, np.zeros(grid2.shape), 0, 0, None, None, -1)


class TestConstraintResiduals:
    def test_trivial_state_clean(self, grid2):
        m = geo.MetricField.identity(grid2)
        psi = np.zeros(grid2.shape, dtype=complex)
        lam = np.zeros((2, 2) + grid2.shape, dtype=complex)
        A = np.zeros((2,) + grid2.shape)
        rep = geo.constraint_residuals(grid2, psi, m, lam, A)
        assert rep.max_l2() <= 1e-12
        assert rep.max_linf() <= 1e-12

    def test_symmetry_and_trace_detect_violations(self, grid2):
        m = geo.MetricField.identity(grid2)
        psi = np.zeros(grid2.shape, dtype=complex)
        lam = np.zeros((2, 2) + grid2.shape, dtype=complex)
        lam[0, 1] = smooth_scalar(grid2, seed=33, complex_valued=True)
        A = np.zeros((2,) + grid2.shape)
        rep = geo.constraint_residuals(grid2, psi, m, lam, A)
        assert rep.symmetry.l2 > 1e-3
        lam[1, 0] = lam[0, 1]
        lam[0, 0] = smooth_scalar(grid2, seed=34, complex_valued=True)
        rep = geo.constraint_residuals(grid2, psi, m, lam, A)
        assert rep.symmetry.l2 <= 1e-12
        assert rep.trace.l2 > 1e-3

    def test_mean_projection_reported(self, grid2):
        m = geo.MetricField.identity(grid2)
        psi = np.full(grid2.shape, 0.5 + 0j)  # constant psi breaks the trace
        lam = np.zeros((2, 2) + grid2.shape, dtype=complex)
        A = np.zeros((2,) + grid2.shape)
        rep = geo.constraint_residuals(grid2, psi, m, lam, A, mean_project=True)
        assert rep.trace.l2 <= 1e-13  # constant residual was projected out...
        assert abs(rep.nondecay["trace"] - 0.5) <= 1e-12  # ...and reported


def direct_trig_sum(grid, f, points):
    """The interpolant as a direct sum over all N = n^d modes (O(N) per point)."""
    fh = grid.fft(np.asarray(f)) / grid.n**grid.d
    lead = fh.shape[: fh.ndim - grid.d]
    K = grid.wavenumbers().reshape(grid.d, -1)
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
        phi, fixed = geo.harmonic_coordinate_fix(m)
        assert np.max(np.abs(phi)) <= 1e-12
        assert np.max(np.abs(fixed.g - m.g)) <= 1e-10

    def test_defect_removed(self, grid2):
        m = small_metric(grid2, seed=37, amp=0.02)
        before = sp.l2_norm(grid2, m.harmonic_defect)
        phi, fixed = geo.harmonic_coordinate_fix(m)
        after = sp.l2_norm(grid2, fixed.harmonic_defect)
        assert before > 1e-4
        assert after <= 1e-6
        assert after <= 1e-3 * before

    def test_rejects_large_perturbation(self, grid2):
        m = small_metric(grid2, seed=38, amp=0.5)
        with pytest.raises(ValueError):
            geo.harmonic_coordinate_fix(m)


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
