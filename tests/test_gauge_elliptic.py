import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcf import evolution as ev
from smcf import gauge_elliptic as ge
from smcf import geometry as geo
from smcf import spectral as sp
from smcf.geometry import MetricField
from smcf.spectral import Grid

from conftest import gaussian_psi


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
        for bad in ({"tol": np.nan}, {"smallness_threshold": np.nan},
                    {"smallness_threshold": -1.0}):
            with pytest.raises(ValueError):
                ge.EllipticConfig(**bad)


class TestRecoverLambda:
    def test_zero_psi(self, grid2):
        m = MetricField.identity(grid2)
        A = np.zeros((2,) + grid2.shape)
        lam = ge.recover_lambda(np.zeros(grid2.shape, complex), m, A, CFG)
        assert np.max(np.abs(lam)) <= 1e-13

    def test_flat_closed_form(self, grid2):
        psi = gaussian_psi(grid2)
        m = MetricField.identity(grid2)
        A = np.zeros((2,) + grid2.shape)
        lam = ge.recover_lambda(psi, m, A, CFG)
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
        res = ge.metric_equation_residual(converged)
        assert sp.l2_norm(grid2, res) <= 1e-9

    def test_ricci_cross_check(self, grid2, converged):
        _, ricci = geo.curvature(converged.metric)
        lam, psi = converged.lam, converged.psi
        lam_up = np.einsum("am...,mb...->ab...", converged.metric.inv, lam)
        expect = ((lam * np.conj(psi)).real
                  - np.einsum("ag...,as...->gs...", lam, np.conj(lam_up)).real)
        assert np.max(np.abs(ricci - expect)) <= 1e-9


class TestSolveVAB:
    def test_lambda_raised_once(self, grid2, converged, monkeypatch):
        calls, raise_parts = [], geo._raise_parts

        def counted(*args):
            calls.append(1)
            return raise_parts(*args)

        monkeypatch.setattr(geo, "_raise_parts", counted)
        V, B, record = ge._solve_VB(converged.lam, converged.psi, converged.metric,
                                    converged.A, CFG, converged.V)
        assert len(calls) == 1
        assert set(record) == {"V_iterations", "q_V", "B_iterations"}
        assert np.max(np.abs(V - converged.V)) <= 10 * CFG.tol
        assert np.max(np.abs(B - converged.B)) <= 10 * CFG.tol

    def test_trivial(self, grid2):
        lam = np.zeros((2, 2) + grid2.shape, dtype=complex)
        m = MetricField.identity(grid2)
        V, A, B = ge.solve_VAB(lam, np.zeros(grid2.shape, complex), m, CFG)
        assert np.max(np.abs(V)) <= 1e-13
        assert np.max(np.abs(A)) <= 1e-13
        assert np.max(np.abs(B)) <= 1e-13

    def test_curl_cross_check(self, grid2, converged):
        rep = converged.constraint_report()
        assert rep.curl_a.l2 <= 10 * CFG.tol
        assert rep.coulomb.l2 <= 10 * CFG.tol

    def test_equation_residuals(self, grid2, converged):
        res_v = ge.advection_equation_residual(converged)
        res_b = ge.temporal_equation_residual(converged)
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
        rep = converged.constraint_report()
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
        lam2 = ge.recover_lambda(converged.psi, converged.metric, converged.A, CFG)
        assert np.max(np.abs(lam2 - converged.lam)) <= 10 * CFG.tol
        m2 = ge.solve_metric(grid2, converged.lam, converged.psi, CFG,
                             g0=converged.metric)
        assert np.max(np.abs(m2.g - converged.metric.g)) <= 10 * CFG.tol

    def test_vab_self_consistency(self, grid2, converged):
        V, A, B = ge.solve_VAB(converged.lam, converged.psi, converged.metric, CFG,
                               warm=(converged.V, converged.A))
        assert np.max(np.abs(V - converged.V)) <= 10 * CFG.tol
        assert np.max(np.abs(A - converged.A)) <= 10 * CFG.tol
        assert np.max(np.abs(B - converged.B)) <= 10 * CFG.tol

    def test_dimension_one_rejected(self):
        grid = Grid(d=1, n=16)
        with pytest.raises(ValueError):
            ge.solve_elliptic_system(grid, np.zeros(grid.shape, complex), CFG)


def nested_solve(grid, psi, cfg):
    """The joint fixed point by nested contractions: each outer sweep
    solves lambda, g and A to their own fixed points in turn, through
    the public per-subsystem solvers."""
    lam = np.zeros((grid.d, grid.d) + grid.shape, dtype=complex)
    metric, A = MetricField.identity(grid), np.zeros((grid.d,) + grid.shape)
    for _ in range(cfg.max_iter):
        lam_new = ge.recover_lambda(psi, metric, A, cfg)
        metric_new = ge.solve_metric(grid, lam_new, psi, cfg, g0=metric)
        A_new = ge._solve_A(lam_new, metric_new, cfg, A)
        change = max(np.max(np.abs(lam_new - lam)),
                     np.max(np.abs(metric_new.g - metric.g)),
                     np.max(np.abs(A_new - A)))
        lam, metric, A = lam_new, metric_new, A_new
        if change <= cfg.tol:
            break
    V, _, B = ge.solve_VAB(lam, psi, metric, cfg, warm=(np.zeros_like(A), A))
    return dict(lam=lam, g=metric.g, V=V, A=A, B=B)


class TestJointSweep:
    """The one-update-per-subsystem sweep of ``solve_elliptic_system``."""

    @pytest.mark.parametrize("d, n", [(2, 32), (3, 12)])
    def test_matches_nested_contractions(self, d, n):
        grid = Grid(d=d, n=n)
        psi = gaussian_psi(grid)
        st = ge.solve_elliptic_system(grid, psi, CFG)
        want = nested_solve(grid, psi, CFG)
        got = dict(lam=st.lam, g=st.metric.g, V=st.V, A=st.A, B=st.B)
        for key, ref in want.items():
            rel = np.max(np.abs(got[key] - ref)) / np.max(np.abs(ref))
            assert rel <= 1e-12, key

    def test_one_metric_and_two_hodge_solves_per_sweep(self, grid2, monkeypatch):
        counts = {"metric": 0, "hodge": 0}
        init, hodge = MetricField.__init__, sp.hodge_solve

        def counting_init(self, *args, **kwargs):
            counts["metric"] += 1
            init(self, *args, **kwargs)

        def counting_hodge(*args, **kwargs):
            counts["hodge"] += 1
            return hodge(*args, **kwargs)

        monkeypatch.setattr(MetricField, "__init__", counting_init)
        monkeypatch.setattr(sp, "hodge_solve", counting_hodge)
        st = ge.solve_elliptic_system(grid2, gaussian_psi(grid2), CFG)
        sweeps = st.diagnostics["outer_iterations"]
        assert sweeps >= 2
        # one per sweep (the flat start is built in closed form); the
        # start's A update, then one lambda and one A update per sweep
        assert counts["metric"] == sweeps
        assert counts["hodge"] == 2 * sweeps + 1

    def test_failure_names_the_subsystem(self, grid2):
        # a cold start is lambda's flat closed form at g = I, so the first
        # sweep moves g by O(amplitude^2) from the identity (7.7e-6), and
        # lambda and A by less
        cfg = ge.EllipticConfig(max_iter=1, smallness_threshold=0.25)
        with pytest.raises(geo.NotContractingError) as info:
            ge.solve_elliptic_system(grid2, gaussian_psi(grid2), cfg)
        assert "outer elliptic sweep" in str(info.value)
        assert "largest change in the metric equation" in str(info.value)
        assert CFG.tol < info.value.residual < 1.0


class TestColdStart:
    """A cold solve starts from the flat closed form: lambda = R_a R_b psi
    on the flat metric, and A its Coulomb update at g = I."""

    @pytest.mark.parametrize("d, n", [(2, 32), (3, 12)])
    def test_acceptance_gaussian_takes_two_sweeps(self, d, n):
        grid = Grid(d=d, n=n)
        st = ge.solve_elliptic_system(grid, gaussian_psi(grid), CFG, report=False)
        assert st.diagnostics["outer_iterations"] == 2

    def test_start_is_the_flat_closed_form(self, grid2):
        psi = gaussian_psi(grid2)
        lam, metric, A = ge._outer_start(grid2, psi, None)
        assert np.array_equal(lam, sp.riesz_pairs(grid2, psi))
        assert np.array_equal(metric.g, np.broadcast_to(geo._eye(grid2), metric.g.shape))
        assert not np.any(metric.christoffel)
        # the flat Coulomb system: curl Im(lam_ga conj(lam)_bg) on the pairs
        # a < b, divergence 0
        curl = np.einsum("ga...,bg...->ab...", lam, np.conj(lam)).imag
        curl = curl[np.triu_indices(2, 1)]
        want = sp.hodge_solve(grid2, curl, np.zeros(grid2.shape))
        assert np.max(np.abs(A - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.max(np.abs(A)) > 0

    def test_zero_data_takes_one_sweep(self, grid2):
        st = ge.solve_elliptic_system(grid2, np.zeros(grid2.shape, complex), CFG)
        assert st.diagnostics["outer_iterations"] == 1


class TestWarmStart:
    """A warm solve starts lambda from its linear response to the change
    in psi, and each sweep updates g, then lambda, then A."""

    @pytest.mark.parametrize("scheme, sweeps", [("split_step", [1, 1, 1]),
                                                ("lawson_rk4", [1, 1, 1, 1])])
    def test_stage_sweep_counts(self, grid2, converged, monkeypatch, scheme, sweeps):
        counts, solve = [], ge.solve_elliptic_system

        def counted(*args, **kwargs):
            st = solve(*args, **kwargs)
            counts.append(st.diagnostics["outer_iterations"])
            return st

        monkeypatch.setattr(ge, "solve_elliptic_system", counted)
        cfg = ev.EvolutionConfig(dt=0.025, t_end=1.0, scheme=scheme, elliptic=CFG)
        ev.step(converged, cfg)
        assert counts == sweeps

    def test_reaches_the_cold_fixed_point(self, grid2, converged):
        psi = gaussian_psi(grid2, amp=1.2e-2, width=0.55, wave=2)
        warm = ge.solve_elliptic_system(grid2, psi, CFG, warm=converged)
        cold = ge.solve_elliptic_system(grid2, psi, CFG)
        for key in ("lam", "V", "A", "B"):
            diff = np.max(np.abs(getattr(warm, key) - getattr(cold, key)))
            assert diff <= 10 * CFG.tol, key
        assert np.max(np.abs(warm.metric.g - cold.metric.g)) <= 10 * CFG.tol

    def test_unchanged_psi_takes_one_sweep(self, grid2, converged):
        st = ge.solve_elliptic_system(grid2, converged.psi.copy(), CFG,
                                      warm=converged)
        assert st.diagnostics["outer_iterations"] == 1

    def test_no_superseded_metric_in_the_lambda_update(self, grid2, monkeypatch):
        made, live = weakref.WeakSet(), []
        init, update = MetricField.__init__, ge._lambda_update

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.add(self)

        def counted_update(*args, **kwargs):
            live.append(len(made))
            return update(*args, **kwargs)

        monkeypatch.setattr(MetricField, "__init__", tracked_init)
        monkeypatch.setattr(ge, "_lambda_update", counted_update)
        st = ge.solve_elliptic_system(grid2, gaussian_psi(grid2), CFG)
        assert len(live) == st.diagnostics["outer_iterations"] >= 2
        assert live == [1] * len(live)


class TestErrorBound:
    """Solves stop on the Banach bound, and what they return is still
    within tol of the fixed point: every lambda, g, A, V and B of a cold
    solve, of a warm solve from another psi's state, and of the stages of
    one step lies within tol of a cold re-solve at tol * 1e-3."""

    @pytest.mark.parametrize("d, n, amp", [(2, 32, 0.01), (2, 32, 0.1),
                                           (2, 32, 0.5), (2, 32, 2.0),
                                           (3, 12, 0.01), (3, 12, 0.5),
                                           (3, 12, 2.0)])
    def test_within_tol_of_a_tight_resolve(self, d, n, amp, monkeypatch):
        grid = Grid(d=d, n=n)
        cfg = ge.EllipticConfig(smallness_threshold=100.0)
        tight = ge.EllipticConfig(tol=1e-3 * cfg.tol, max_iter=400,
                                  smallness_threshold=100.0)
        cold = ge.solve_elliptic_system(grid, gaussian_psi(grid, amp), cfg,
                                        report=False)
        states = [cold, ge.solve_elliptic_system(
            grid, gaussian_psi(grid, 1.1 * amp, width=0.55, wave=2), cfg,
            warm=cold, report=False)]
        solve = ge.solve_elliptic_system

        def kept(*args, **kwargs):
            states.append(solve(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(ge, "solve_elliptic_system", kept)
        for scheme in ("split_step", "lawson_rk4"):
            ev.step(cold, ev.EvolutionConfig(
                dt=0.025 if d == 2 else 0.02, t_end=1.0, scheme=scheme,
                elliptic=cfg))
        monkeypatch.undo()
        assert len(states) == 2 + 3 + 4
        for i, st in enumerate(states):
            ref = ge.solve_elliptic_system(grid, st.psi, tight, report=False)
            for key in ("lam", "V", "A", "B"):
                diff = np.max(np.abs(getattr(st, key) - getattr(ref, key)))
                assert diff <= cfg.tol, (i, key)
            assert np.max(np.abs(st.metric.g - ref.metric.g)) <= cfg.tol, (i, "g")


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

    def test_builds_no_constraint_report(self, grid2, monkeypatch):
        calls, residuals = [], geo.constraint_residuals

        def counted(*args, **kwargs):
            calls.append(1)
            return residuals(*args, **kwargs)

        monkeypatch.setattr(geo, "constraint_residuals", counted)
        ge.linearize_fd(grid2, gaussian_psi(grid2), gaussian_psi(grid2, wave=2), CFG)
        assert calls == []

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
        curl = nyquist_rich_field(grid, (d * (d - 1) // 2,) + lead, rng)  # pairs a < b
        div = nyquist_rich_field(grid, lead, rng)
        assert_real_part(sp.hodge_solve(grid, curl, div),
                         sp.hodge_solve(grid, curl.astype(complex), div.astype(complex)))

    @SETTINGS
    @given(**FIELDS)
    def test_weighted_second(self, d, rank, seed):
        grid, rng = Grid(d=d, n=8), np.random.default_rng(seed)
        coeff = rough_metric(grid, rng).inv
        g = nyquist_rich_field(grid, (d,) * rank, rng)
        assert_real_part(sp.hessian_trace(grid, coeff, g),
                         sp.hessian_trace(grid, coeff, g.astype(complex)))

    @SETTINGS
    @given(d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_weighted_second_symmetric(self, d, seed):
        # the upper triangle, mirrored, is the whole stack bit for bit
        grid, rng = Grid(d=d, n=8), np.random.default_rng(seed)
        coeff, g = rough_metric(grid, rng).inv, rough_metric(grid, rng).g
        assert np.array_equal(ge._weighted_second_sym(grid, coeff, g),
                              sp.hessian_trace(grid, coeff, g))

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
            dV = geo.covariant_derivative(V, 1, 0, metric)
            return ge._vector_laplacian(metric, V, dV)

        assert_real_part(vector_laplacian(V), vector_laplacian(V.astype(complex)))


class TestMetricGradient:
    """The metric equation reads the first derivatives of g off the
    lowered Christoffel symbols, d_c g_ab = Gamma_{a,bc} + Gamma_{b,ac},
    instead of differentiating g a second time."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_lowered_christoffel_gives_the_gradient(self, d):
        grid = Grid(d=d, n=8)
        m = rough_metric(grid, np.random.default_rng(d))
        low = np.einsum("nm...,mbc...->nbc...", m.g, m.christoffel)  # Gamma_{n,bc}
        got = np.einsum("abc...->cab...", low + np.swapaxes(low, 0, 1))
        want = sp.gradient(grid, m.g)  # (c, a, b) = d_c g_ab
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# The forms below build the whole (gauged) covariant derivative and then
# read its trace, as the solver did before it contracted first; they are
# the references for the contract-first forms.

def lambda_update_full(grid, dpsi, metric, A, lam):
    Gam = metric.christoffel
    gl = np.einsum("sag...,bs...->abg...", Gam, lam) \
        - 1j * np.einsum("a...,bg...->abg...", A, lam)
    C = gl - np.einsum("abg...->bag...", gl)  # exactly antisymmetric
    dlam = geo.covariant_derivative(lam, 0, 2, metric, A)
    D = dpsi - np.einsum("ca...,cab...->b...", metric.inv, dlam) \
        + np.einsum("aab...->b...", sp.gradient(grid, lam))
    lam_new = sp.hodge_solve(grid, C[np.triu_indices(grid.d, 1)], D)
    return 0.5 * (lam_new + np.einsum("ab...->ba...", lam_new))


def vector_laplacian_full(grid, metric, V, dV):
    flat = np.einsum("bcg...->bgc...", sp.hessian(grid, V)) \
        + sp.gradient(grid, np.einsum("gcs...,s...->gc...", metric.christoffel, V))
    d2 = geo._add_connection(dV, flat, 1, 1, metric, None)  # (g, c2, c1)
    return np.einsum("bc...,gbc...->g...", metric.inv, d2)


def raise2(metric, T):
    """T^{ab} = g^{am} g^{bn} T_{mn}."""
    return np.einsum("am...,bn...,mn...->ab...", metric.inv, metric.inv, T)


def advection_rhs0_full(grid, metric, lam, psi):
    lam_up2 = raise2(metric, lam)
    M = (lam_up2 * np.conj(psi)).imag
    dM = geo.covariant_derivative(M, 2, 0, metric)  # (a, g, c)
    rhs0 = 2.0 * np.einsum("aga...->g...", dM)
    lam_psi_up = (psi * np.conj(lam_up2)).imag
    return rhs0 + 2.0 * np.einsum("ab...,gab...->g...", lam_psi_up, metric.christoffel)


def temporal_rhs_full(grid, metric, lam, psi, V, A):
    lam_up1 = np.einsum("am...,mb...->ab...", metric.inv, lam)
    lam_up2 = raise2(metric, lam)
    N = (lam_up1 * np.conj(psi)).real
    dN = geo.covariant_derivative(N, 1, 1, metric)  # (s, c, g)
    dw = geo.covariant_derivative(np.einsum("ssg...->g...", dN), 0, 1, metric)
    rhs = -np.einsum("cg...,cg...->...", metric.inv, dw)
    rhs += 0.5 * metric.laplace_beltrami((psi * np.conj(psi)).real)
    u = np.einsum("sg...,sb...,b...->g...", lam_up1, np.conj(lam), V).imag
    du = geo.covariant_derivative(u, 0, 1, metric)
    rhs += np.einsum("cg...,cg...->...", metric.inv, du)
    gradV_up = ge._grad_up(metric, geo.covariant_derivative(V, 1, 0, metric))
    sym = 2.0 * (psi * np.conj(lam_up2)).imag \
        + gradV_up + np.einsum("ab...->ba...", gradV_up)
    return rhs + np.einsum("bg...,bg...->...", sym, sp.gradient(grid, A))


def metric_update_full(grid, m, lam, psi):
    """The metric update as it was before the shared sweep: the
    right-hand side with (g^{ab} - delta^{ab}) d^2 g moved over, then
    Delta^{-1}, symmetrized and mean-projected."""
    dg = sp.gradient(grid, m.g)  # (c, a, b) = d_c g_ab
    dg = np.einsum("cab...->abc...", dg)
    dginv = sp.gradient(grid, m.inv)
    gam_low = np.einsum("nm...,msa...->nsa...", m.g, m.christoffel)
    t = np.einsum("gab...,asb...->gs...", dginv, dg)
    rhs = -t - np.einsum("gs...->sg...", t)
    rhs += np.einsum("abg...,sab...->gs...", dg, dginv)
    rhs += 2.0 * np.einsum("ab...,nsa...,nbg...->gs...",
                           m.inv, gam_low, m.christoffel)
    lam_up = np.einsum("am...,mb...->ab...", m.inv, lam)
    rhs -= 2.0 * ((lam * np.conj(psi)).real
                  - np.einsum("ag...,as...->gs...", lam, np.conj(lam_up)).real)
    acc = sp.hessian_trace(grid, m.inv - geo._eye(grid), m.g)
    h_new = sp.inverse_laplacian(grid, rhs - acc)
    return sp.mean_zero(grid, 0.5 * (h_new + np.einsum("ab...->ba...", h_new)))


def lambda_divergence_data_full(grid, metric, A, lam, dpsi):
    """The divergence data from the whole d_c lam_ab stack and the complex
    lam^c_b, as the solver formed it before it took d lam one axis at a
    time."""
    dlam = sp.gradient(grid, lam)  # (c, a, b) = d_c lam_ab
    lam_up = np.einsum("am...,mb...->ab...", metric.inv, lam)
    D = dpsi - np.einsum("ca...,cab...->b...", metric.inv - geo._eye(grid), dlam)
    D += np.einsum("s...,sb...->b...", metric.harmonic_defect, lam)
    D += np.einsum("scb...,cs...->b...", metric.christoffel, lam_up)
    A_up = np.einsum("ac...,c...->a...", metric.inv, A)
    return D - 1j * np.einsum("a...,ab...->b...", A_up, lam)


def codazzi_divergence_full(grid, psi, metric, lam, A):
    """The report's Codazzi and divergence residual fields from the whole
    d_c lam_ab stack: the connection curl minus d_c lam_ab - d_a lam_cb on
    the pairs c < a, and the divergence data minus d_a lam_ab."""
    c, a = np.triu_indices(grid.d, 1)
    dlam = sp.gradient(grid, lam)
    codazzi = geo._connection_curl(metric, A, lam) - (dlam[c, a] - dlam[a, c])
    dpsi = sp.gradient(grid, psi) + 1j * A * psi
    divergence = lambda_divergence_data_full(grid, metric, A, lam, dpsi) \
        - np.einsum("aab...->b...", dlam)
    return codazzi, divergence


def vb_tensors_full(metric, lam, psi):
    """(M, W, N, K) from the complex raised pair (lam^a_b, lam^{ab}), as
    the V and B sources read them before they took real tensors."""
    lam_up1 = np.einsum("am...,mb...->ab...", metric.inv, lam)
    lam_up2 = raise2(metric, lam)
    M = (lam_up2 * np.conj(psi)).imag
    N = (lam_up1 * np.conj(psi)).real
    W = N - np.einsum("as...,ag...->gs...", lam, np.conj(lam_up2)).real
    K = np.einsum("sa...,sb...->ab...", lam_up1, np.conj(lam)).imag
    return M, W, N, K


def residual_norms(grid, field, weight):
    """(l2, linf, nondecay) of a residual field as the report reduces it."""
    mean = sp.field_mean(grid, field)
    a2 = weight * np.abs(field - mean[(...,) + (np.newaxis,) * grid.d]) ** 2
    a2 = a2.reshape((-1,) + grid.shape).sum(axis=0)
    return (np.sqrt(np.sum(a2) * grid.cell_volume), np.sqrt(np.max(a2)),
            np.sqrt(weight * np.sum(np.abs(mean) ** 2)))


def assert_close(got, want, rtol=1e-13):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.fixture(params=[(2, 10), (3, 8), (4, 8)], ids=["2d", "3d", "4d"])
def data(request):
    """A rough metric and Nyquist-rich lambda (symmetric), psi, A and V."""
    d, n = request.param
    grid, rng = Grid(d=d, n=n), np.random.default_rng(d)
    lam = nyquist_rich_field(grid, (d, d), rng) \
        + 1j * nyquist_rich_field(grid, (d, d), rng)
    return dict(grid=grid, metric=rough_metric(grid, rng),
                lam=lam + np.einsum("ab...->ba...", lam),
                psi=nyquist_rich_field(grid, (), rng)
                + 1j * nyquist_rich_field(grid, (), rng),
                A=nyquist_rich_field(grid, (d,), rng),
                V=nyquist_rich_field(grid, (d,), rng))


def data_state(data):
    """``data`` as a gauge state, with B = 0."""
    return ge.GaugeState(psi=data["psi"], metric=data["metric"], lam=data["lam"],
                         V=data["V"], A=data["A"], B=np.zeros(data["grid"].shape))


class TestContractFirst:
    """The solver contracts covariant divergences before it adds the
    connection; on rough metrics and data the result must be the full
    covariant derivative's trace."""

    def test_lambda_update(self, data):
        grid, psi, A = data["grid"], data["psi"], data["A"]
        dpsi = sp.gradient(grid, psi) + 1j * A * psi
        args = (dpsi, data["metric"], A, data["lam"])
        assert_close(ge._lambda_update(*args), lambda_update_full(grid, *args))

    def test_vector_laplacian(self, data):
        grid, metric, V = data["grid"], data["metric"], data["V"]
        dV = geo.covariant_derivative(V, 1, 0, metric)
        assert_close(ge._vector_laplacian(metric, V, dV),
                     vector_laplacian_full(grid, metric, V, dV))

    def test_advection_source(self, data):
        grid, metric, lam, psi = (data[k] for k in ("grid", "metric", "lam", "psi"))
        got = ge._vb_sources(metric, lam, psi, data["A"])[0][0]
        assert_close(got, advection_rhs0_full(grid, metric, lam, psi))

    def test_temporal_rhs(self, data):
        grid, metric, lam, psi = (data[k] for k in ("grid", "metric", "lam", "psi"))
        args = (psi, data["V"], data["A"])
        source = ge._vb_sources(metric, lam, psi, data["A"])[1]
        got = ge._temporal_rhs(metric, source, data["V"])
        assert_close(got, temporal_rhs_full(grid, metric, lam, *args))


class TestOneAxisAtATime:
    """The lambda update and the report take d lam one axis at a time,
    and the V and B sources read real tensors of lambda and psi; on rough
    metrics and Nyquist-rich data they must equal the full-stack forms."""

    def test_lambda_divergence_data(self, data):
        grid, metric, lam, psi, A = (data[k] for k in ("grid", "metric", "lam",
                                                       "psi", "A"))
        dpsi = sp.gradient(grid, psi) + 1j * A * psi
        got = geo._lambda_divergence_data(metric, A, lam,
                                          sp._derivatives_sym(grid, lam), dpsi)
        assert_close(got, lambda_divergence_data_full(grid, metric, A, lam, dpsi))

    def test_report_codazzi_and_divergence(self, data):
        grid, metric, lam, psi, A = (data[k] for k in ("grid", "metric", "lam",
                                                       "psi", "A"))
        rep = geo.constraint_residuals(psi, metric, lam, A)
        codazzi, divergence = codazzi_divergence_full(grid, psi, metric, lam, A)
        for name, field, weight in (("codazzi", codazzi, 2.0),
                                    ("divergence", divergence, 1.0)):
            got = getattr(rep, name)
            want = residual_norms(grid, field, weight)
            assert abs(got.l2 - want[0]) <= 1e-13 * want[0], name
            assert abs(got.linf - want[1]) <= 1e-13 * want[1], name
            assert abs(rep.nondecay[name] - want[2]) <= 1e-13 * want[0], name

    def test_vb_tensors(self, data):
        # M and N reach the sources only through rhs_V and rhs_B, which
        # TestContractFirst checks against the full forms
        metric, lam, psi = data["metric"], data["lam"], data["psi"]
        (_, W), (_, K, _) = ge._vb_sources(metric, lam, psi, data["A"])
        _, W_full, _, K_full = vb_tensors_full(metric, lam, psi)
        assert_close(W, W_full)
        assert_close(K, K_full)

    def test_coulomb_curl(self, data):
        metric, lam = data["metric"], data["lam"]
        a, b = np.triu_indices(len(lam), 1)
        lam_up = np.einsum("am...,mb...->ab...", metric.inv, lam)
        want = np.einsum("gp...,pg...->p...", lam_up[:, a], np.conj(lam[b])).imag
        assert_close(geo._coulomb_curl(metric, lam), want)


class TestOneResidual:
    """The metric and V equations each have one residual, right-hand side
    minus left-hand side: their solves run ``geo.preconditioned_sweep`` on
    it, and their public ``*_equation_residual`` is minus its mean-zero
    part."""

    def test_metric_sweep_is_the_moved_over_update(self, data):
        # Delta^{-1}(rhs - (g^{ab} - delta^{ab}) d^2 g) = mean_zero(h + Delta^{-1} r)
        grid, metric, lam, psi = (data[k] for k in ("grid", "metric", "lam", "psi"))
        r = ge._metric_residual(metric, lam, psi)
        h = geo.preconditioned_sweep(grid, metric.h, r)[0]
        assert_close(h, metric_update_full(grid, metric, lam, psi), rtol=1e-14)

    def test_metric_sweep_is_exactly_symmetric(self, data):
        grid, metric, lam, psi = (data[k] for k in ("grid", "metric", "lam", "psi"))
        r = ge._metric_residual(metric, lam, psi)
        h = geo.preconditioned_sweep(grid, metric.h, r)[0]
        assert np.array_equal(r, np.swapaxes(r, 0, 1))
        assert np.array_equal(h, np.swapaxes(h, 0, 1))

    def test_solve_hands_on_exactly_symmetric_metrics(self, monkeypatch):
        # the large-amplitude case, where an unsymmetrized residual leaves a
        # defect above MetricField's 1e-12 check
        grid, seen, of_h = Grid(d=2, n=32), [], ge._metric_of_h

        def checked(grid, h):
            seen.append(np.array_equal(h, np.swapaxes(h, 0, 1)))
            return of_h(grid, h)

        monkeypatch.setattr(ge, "_metric_of_h", checked)
        ge.solve_elliptic_system(grid, gaussian_psi(grid, 2.0),
                                 ge.EllipticConfig(smallness_threshold=100.0),
                                 report=False)
        assert len(seen) >= 2 and all(seen)

    def test_metric_equation_residual(self, data):
        grid, metric, lam, psi = (data[k] for k in ("grid", "metric", "lam", "psi"))
        assert np.array_equal(
            ge.metric_equation_residual(data_state(data)),
            -sp.mean_zero(grid, ge._metric_residual(metric, lam, psi)))

    def test_advection_equation_residual(self, data):
        grid, metric, lam, psi, V = (data[k] for k in ("grid", "metric", "lam",
                                                       "psi", "V"))
        source = ge._vb_sources(metric, lam, psi, data["A"])[0]
        assert np.array_equal(
            ge.advection_equation_residual(data_state(data)),
            -sp.mean_zero(grid, ge._advection_residual(metric, source, V)))


class TestFirstIterate:
    """A cold V solve starts at its first sweep's iterate from V = 0, so
    its residual at zero (the V-independent source) is never evaluated."""

    def test_cold_solve_evaluates_residual_V_once(self, grid2, monkeypatch):
        calls, laplacian = [], ge._vector_laplacian

        def counted(*args):
            calls.append(1)
            return laplacian(*args)

        monkeypatch.setattr(ge, "_vector_laplacian", counted)
        st = ge.solve_elliptic_system(grid2, gaussian_psi(grid2), CFG, report=False)
        # from zero the first sweep would land on the start, and the
        # second would confirm it: two evaluations
        assert len(calls) == 1
        assert np.max(np.abs(st.V)) > 1e3 * CFG.tol

    def test_start_is_the_first_sweep(self, grid2, converged, monkeypatch):
        starts, solve = [], geo.solve_preconditioned

        def recorded(grid, residual, u0, *args):
            starts.append((u0, residual))
            return solve(grid, residual, u0, *args)

        monkeypatch.setattr(geo, "solve_preconditioned", recorded)
        ge._solve_VB(converged.lam, converged.psi, converged.metric,
                     converged.A, CFG, None)
        assert len(starts) == 2
        for u0, residual in starts:  # the V solve, then the B solve
            zero = np.zeros_like(u0)
            want = sp.mean_zero(grid2, sp.inverse_laplacian(grid2, residual(zero)))
            assert np.array_equal(u0, want)
            assert np.max(np.abs(u0)) > 0


def traced_solve_peak(grid, cfg, report):
    """A cold solve's traced numpy peak, in complex scalar fields of the
    grid, after a first solve has built the spectra."""
    psi = gaussian_psi(grid)
    ge.solve_elliptic_system(grid, psi, cfg, report=report)
    tracemalloc.start()
    try:
        ge.solve_elliptic_system(grid, psi, cfg, report=report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * grid.n**grid.d)


class TestMemory:
    def test_cold_solve_traced_peak(self):
        # 116.2 before d lam, d g^{-1} and the V and B sources went one
        # axis at a time or onto real tensors; 74.2 measured
        assert traced_solve_peak(Grid(d=3, n=12), CFG, report=False) <= 104

    def test_cold_solve_with_report_traced_peak(self):
        # 116.2 before, set by the solve; 74.9 measured
        assert traced_solve_peak(Grid(d=3, n=12), CFG, report=True) <= 105

    def test_cold_4d_solve_traced_peak(self):
        # 216.5 before; 140.5 measured
        cfg = ge.EllipticConfig(smallness_threshold=0.5)
        assert traced_solve_peak(Grid(d=4, n=12), cfg, report=False) <= 160

    def test_cold_4d_solve_with_report_traced_peak(self):
        # 151.0 while the report reduced Codazzi over whole stacks; 140.5
        # measured, the lambda update's peak
        cfg = ge.EllipticConfig(smallness_threshold=0.5)
        assert traced_solve_peak(Grid(d=4, n=12), cfg, report=True) <= 145

    def test_constraint_report_traced_peak(self):
        # the report's traced numpy peak, in real scalar fields of the grid;
        # it formed each condition's full tensor before, 769 fields here
        grid = Grid(d=4, n=8)
        st = ge.solve_elliptic_system(grid, gaussian_psi(grid),
                                      ge.EllipticConfig(smallness_threshold=0.5),
                                      report=False)
        geo.constraint_residuals(st.psi, st.metric, st.lam, st.A)  # spectra built
        tracemalloc.start()
        try:
            st.constraint_report()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 400 * 8 * grid.n**grid.d
