import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcf import gauge_elliptic as ge
from smcf import geometry as geo
from smcf import spectral as sp
from smcf.geometry import MetricField
from smcf.spectral import Grid


@pytest.fixture(scope="module")
def grid2():
    return Grid(d=2, n=32)


def gaussian_psi(grid, amp=1e-2, width=0.6, wave=1):
    """Modulated Gaussian bump, mean-projected for torus compatibility."""
    x = grid.coords()
    c = grid.length / 2.0
    r2 = sum((x[a] - c) ** 2 for a in range(grid.d))
    psi = amp * np.exp(-r2 / (2 * width**2)) * np.exp(1j * wave * (x[0] - c))
    return psi - np.mean(psi)


CFG = ge.EllipticConfig(smallness_threshold=0.25)


@pytest.fixture(scope="module")
def converged(grid2):
    return ge.solve_elliptic_system(grid2, gaussian_psi(grid2), CFG)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ge.EllipticConfig(tol=0.0)
        with pytest.raises(ValueError):
            ge.EllipticConfig(max_iter=0)


class TestRecoverLambda:
    def test_zero_psi(self, grid2):
        m = MetricField.identity(grid2)
        A = np.zeros((2,) + grid2.shape)
        lam = ge.recover_lambda(grid2, np.zeros(grid2.shape, complex), m, A, CFG)
        assert np.max(np.abs(lam)) <= 1e-13

    def test_flat_closed_form(self, grid2):
        psi = gaussian_psi(grid2)
        m = MetricField.identity(grid2)
        A = np.zeros((2,) + grid2.shape)
        lam = ge.recover_lambda(grid2, psi, m, A, CFG)
        assert np.max(np.abs(lam - sp.riesz_pairs(grid2, psi))) <= 1e-10

    def test_flat_closed_form_satisfies_system(self, grid2):
        # direct substitution: symmetric, flat-curl-free, divergence = d psi,
        # trace = psi (mean-projected)
        psi = gaussian_psi(grid2)
        lam = sp.riesz_pairs(grid2, psi)
        assert np.max(np.abs(lam - np.einsum("ab...->ba...", lam))) <= 1e-13
        dlam = sp.gradient(grid2, lam)  # (c, a, b)
        curl = dlam - np.einsum("cab...->acb...", dlam)
        assert np.max(np.abs(curl)) <= 1e-11
        div = np.einsum("aab...->b...", dlam)
        assert np.max(np.abs(div - sp.gradient(grid2, psi))) <= 1e-11
        tr = np.einsum("aa...->...", lam)
        assert np.max(np.abs(tr - psi)) <= 1e-11

    def test_scaling_quadratic(self, grid2):
        psi = gaussian_psi(grid2, amp=1.0)
        eps_ref = 1e-4  # essentially in the linear regime
        base = ge.solve_elliptic_system(grid2, eps_ref * psi, CFG).lam
        devs = []
        for eps in (1e-2, 1e-3):
            lam_eps = ge.solve_elliptic_system(grid2, eps * psi, CFG).lam
            lam_lin = (eps / eps_ref) * base
            devs.append(sp.l2_norm(grid2, lam_eps - lam_lin))
        # the deviation from pure rescaling decays superlinearly; by the
        # sign symmetry psi -> -psi (lam odd, g and A even) the first
        # correction to lam is in fact cubic, so the ratio sits near 1000
        assert 500 <= devs[0] / max(devs[1], 1e-300) <= 2000


class TestSolveMetric:
    def test_trivial(self, grid2):
        lam = np.zeros((2, 2) + grid2.shape, dtype=complex)
        m = ge.solve_metric(grid2, lam, np.zeros(grid2.shape, complex), CFG)
        assert np.max(np.abs(m.h)) <= 1e-13

    def test_equation_residual(self, grid2, converged):
        res = ge.metric_equation_residual(
            grid2, converged.metric, converged.lam, converged.psi
        )
        assert sp.l2_norm(grid2, res) <= 1e-9

    def test_ricci_cross_check(self, grid2, converged):
        _, ricci = geo.curvature(converged.metric)
        lam, psi = converged.lam, converged.psi
        lam_up = np.einsum("am...,mb...->ab...", converged.metric.inv, lam)
        expect = ((lam * np.conj(psi)).real
                  - np.einsum("ag...,as...->gs...", lam, np.conj(lam_up)).real)
        assert np.max(np.abs(ricci - expect)) <= 1e-9


class TestSolveVAB:
    def test_trivial(self, grid2):
        lam = np.zeros((2, 2) + grid2.shape, dtype=complex)
        m = MetricField.identity(grid2)
        V, A, B = ge.solve_VAB(grid2, lam, np.zeros(grid2.shape, complex), m, CFG)
        assert np.max(np.abs(V)) <= 1e-13
        assert np.max(np.abs(A)) <= 1e-13
        assert np.max(np.abs(B)) <= 1e-13

    def test_curl_cross_check(self, grid2, converged):
        rep = converged.constraint_report()
        assert rep.curl_a.l2 <= 10 * CFG.tol
        assert rep.coulomb.l2 <= 10 * CFG.tol

    def test_equation_residuals(self, grid2, converged):
        res_v = ge.advection_equation_residual(
            grid2, converged.metric, converged.lam, converged.psi, converged.V
        )
        res_b = ge.temporal_equation_residual(
            grid2, converged.metric, converged.lam, converged.psi,
            converged.V, converged.A, converged.B
        )
        assert sp.l2_norm(grid2, res_v) <= 1e-9
        assert sp.l2_norm(grid2, res_b) <= 1e-9

    def test_quadratic_smallness(self, grid2):
        psi = gaussian_psi(grid2, amp=1.0)
        sizes = {}
        for eps in (1e-2, 1e-3):
            st = ge.solve_elliptic_system(grid2, eps * psi, CFG)
            sizes[eps] = (sp.l2_norm(grid2, st.V), sp.l2_norm(grid2, st.A))
        # bilinear sources: V and A shrink ~quadratically in amplitude
        for i in range(2):
            assert sizes[1e-2][i] / max(sizes[1e-3][i], 1e-300) >= 50


class TestSolveEllipticSystem:
    def test_zero_data(self, grid2):
        st = ge.solve_elliptic_system(grid2, np.zeros(grid2.shape, complex), CFG)
        assert st.diagnostics["outer_iterations"] == 1
        assert np.max(np.abs(st.lam)) <= 1e-13
        assert np.max(np.abs(st.metric.h)) <= 1e-13

    def test_gaussian_converges(self, grid2, converged):
        d = converged.diagnostics
        assert d["outer_iterations"] <= 30
        assert d["final_update"] <= CFG.tol

    def test_all_constraints_small(self, grid2, converged):
        rep = converged.diagnostics["residuals"]
        assert rep.max_l2() <= 10 * CFG.tol
        assert rep.max_linf() <= 10 * CFG.tol

    def test_linear_response_sweep(self, grid2):
        psi = gaussian_psi(grid2, amp=1.0)
        table_s = 2.0
        ratios = []
        for eps in (1e-3, 3e-3, 1e-2, 3e-2):
            st = ge.solve_elliptic_system(grid2, eps * psi, CFG)
            ratios.append(
                sp.hs_norm(grid2, st.lam, table_s) / sp.hs_norm(grid2, st.psi, table_s)
            )
        assert max(ratios) / min(ratios) <= 2.0

    def test_smallness_violated(self, grid2):
        psi = gaussian_psi(grid2, amp=1.0)
        with pytest.raises(ge.SmallnessViolatedError):
            ge.solve_elliptic_system(grid2, psi, CFG)

    def test_determinism(self, grid2, converged):
        st2 = ge.solve_elliptic_system(grid2, gaussian_psi(grid2), CFG)
        assert np.array_equal(st2.lam, converged.lam)
        assert np.array_equal(st2.metric.g, converged.metric.g)
        assert np.array_equal(st2.V, converged.V)
        assert np.array_equal(st2.A, converged.A)
        assert np.array_equal(st2.B, converged.B)

    def test_fixed_point_self_consistency(self, grid2, converged):
        lam2 = ge.recover_lambda(grid2, converged.psi, converged.metric,
                                 converged.A, CFG)
        assert np.max(np.abs(lam2 - converged.lam)) <= 10 * CFG.tol
        m2 = ge.solve_metric(grid2, converged.lam, converged.psi, CFG,
                             g0=converged.metric)
        assert np.max(np.abs(m2.g - converged.metric.g)) <= 10 * CFG.tol

    def test_vab_self_consistency(self, grid2, converged):
        V, A, B = ge.solve_VAB(grid2, converged.lam, converged.psi,
                               converged.metric, CFG,
                               warm=(converged.V, converged.A))
        assert np.max(np.abs(V - converged.V)) <= 10 * CFG.tol
        assert np.max(np.abs(A - converged.A)) <= 10 * CFG.tol
        assert np.max(np.abs(B - converged.B)) <= 10 * CFG.tol

    def test_dimension_one_rejected(self):
        grid = Grid(d=1, n=16)
        with pytest.raises(ValueError):
            ge.solve_elliptic_system(grid, np.zeros(grid.shape, complex), CFG)


class TestLinearizeFd:
    def test_at_zero_matches_flat_recovery(self, grid2):
        dpsi = gaussian_psi(grid2, amp=1.0)
        resp = ge.linearize_fd(grid2, np.zeros(grid2.shape, complex), dpsi, CFG)
        expect = sp.riesz_pairs(grid2, dpsi)
        rel = np.max(np.abs(resp.dlam - expect)) / np.max(np.abs(expect))
        assert rel <= 1e-6

    def test_richardson_consistency(self, grid2):
        psi = gaussian_psi(grid2)
        dpsi = gaussian_psi(grid2, amp=1e-2, width=0.8, wave=2)
        r1 = ge.linearize_fd(grid2, psi, dpsi, CFG)
        r2 = ge.linearize_fd(grid2, psi, dpsi, CFG, tau=r1.tau / 2)
        scale = np.max(np.abs(r1.dlam))
        assert np.max(np.abs(r1.dlam - r2.dlam)) / scale <= 1e-6

    def test_bound_ratio(self, grid2):
        psi = gaussian_psi(grid2)
        resp = ge.linearize_fd(grid2, psi, psi, CFG)
        assert resp.ratio <= 10.0


def nyquist_rich_field(grid, lead, rng):
    """Real white noise plus (-1)^{j_a} and (-1)^{j_a + j_b} content, the
    Nyquist modes where real-path and complex multipliers differ."""
    f = rng.standard_normal(lead + grid.shape)
    sign = (-1.0) ** np.indices(grid.shape)
    for a in range(grid.d):
        f += rng.standard_normal(lead + (1,) * grid.d) * sign[a]
        for b in range(a + 1, grid.d):
            f += rng.standard_normal(lead + (1,) * grid.d) * sign[a] * sign[b]
    return f


def rough_metric(grid, rng):
    """I + 0.02 * symmetric white noise: positive definite, with Nyquist
    content in g, its inverse and its Christoffel symbols."""
    h = 0.02 * nyquist_rich_field(grid, (grid.d, grid.d), rng)
    return MetricField.from_h(grid, 0.5 * (h + np.einsum("ab...->ba...", h)))


def assert_real_part(got, want, rtol=1e-13):
    want = want.real
    assert got.dtype == np.float64
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestRealPath:
    """Real gauge data goes through the half spectrum; each operator must
    return the real part of the same call on the data cast to complex."""

    SETTINGS = settings(max_examples=25, deadline=None)
    # leading shapes (d,) * rank: (), (d,) and (d, d)
    FIELDS = dict(d=st.integers(1, 4), rank=st.integers(0, 2),
                  seed=st.integers(0, 2**32 - 1))

    @SETTINGS
    @given(**FIELDS)
    def test_hodge_solve(self, d, rank, seed):
        grid, rng = Grid(d=d, n=8), np.random.default_rng(seed)
        lead = (d,) * rank
        curl = nyquist_rich_field(grid, (d, d) + lead, rng)
        div = nyquist_rich_field(grid, lead, rng)
        assert_real_part(ge._hodge_solve(grid, curl, div),
                         ge._hodge_solve(grid, curl.astype(complex), div.astype(complex)))

    @SETTINGS
    @given(**FIELDS)
    def test_weighted_second(self, d, rank, seed):
        grid, rng = Grid(d=d, n=8), np.random.default_rng(seed)
        coeff = rough_metric(grid, rng).inv
        g = nyquist_rich_field(grid, (d,) * rank, rng)
        assert_real_part(ge._weighted_second(grid, coeff, g),
                         ge._weighted_second(grid, coeff, g.astype(complex)))
        # a given spectrum gives the same numbers
        assert np.array_equal(ge._weighted_second(grid, coeff, g, grid.rfft(g)),
                              ge._weighted_second(grid, coeff, g))

    @SETTINGS
    @given(**FIELDS)
    def test_laplace_beltrami(self, d, rank, seed):
        grid, rng = Grid(d=d, n=8), np.random.default_rng(seed)
        metric = rough_metric(grid, rng)
        f = nyquist_rich_field(grid, (d,) * rank, rng)
        assert_real_part(metric.laplace_beltrami(f),
                         metric.laplace_beltrami(f.astype(complex)))

    @SETTINGS
    @given(d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_vector_laplacian(self, d, seed):
        grid, rng = Grid(d=d, n=8), np.random.default_rng(seed)
        metric = rough_metric(grid, rng)
        V = nyquist_rich_field(grid, (d,), rng)

        def vector_laplacian(V):
            dV = geo.covariant_derivative(grid, V, 1, 0, metric)
            return ge._vector_laplacian(grid, metric, V, dV)

        assert_real_part(vector_laplacian(V), vector_laplacian(V.astype(complex)))

    def test_metric_gradient_handed_over(self, grid2):
        rng = np.random.default_rng(5)
        m = rough_metric(grid2, rng)
        handed = MetricField(grid2, m.g, sp.gradient(grid2, m.g, grid2.rfft(m.g)))
        assert np.array_equal(handed.christoffel, m.christoffel)
