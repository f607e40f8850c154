import numpy as np
import pytest

from smcf import evolution as ev
from smcf import gauge_elliptic as ge
from smcf import geometry as geo
from smcf import spectral as sp
from smcf.spectral import Grid


@pytest.fixture(scope="module")
def grid2():
    return Grid(d=2, n=32)


def gaussian_psi(grid, amp=1e-2, width=0.6, wave=1):
    x = grid.coords()
    c = grid.length / 2.0
    r2 = sum((x[a] - c) ** 2 for a in range(grid.d))
    psi = amp * np.exp(-r2 / (2 * width**2)) * np.exp(1j * wave * (x[0] - c))
    return psi - np.mean(psi)


ECFG = ge.EllipticConfig(smallness_threshold=0.5)


def make_cfg(**kw):
    kw.setdefault("elliptic", ECFG)
    return ev.EvolutionConfig(**kw)


@pytest.fixture(scope="module")
def reference_run(grid2):
    cfg = make_cfg(dt=0.025, t_end=0.25)
    return ev.evolve(grid2, gaussian_psi(grid2), cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ev.EvolutionConfig(dt=-0.1)
        with pytest.raises(ValueError):
            ev.EvolutionConfig(dt=2.0, t_end=1.0)
        with pytest.raises(ValueError):
            ev.EvolutionConfig(scheme="euler")
        with pytest.raises(ValueError):
            ev.EvolutionConfig(resolve_every=0)

    def test_default_dt(self, grid2):
        cfg = ev.EvolutionConfig()
        assert abs(cfg.effective_dt(grid2) - 0.25 * grid2.dx**2) <= 1e-15


class TestRhs:
    def test_zero(self, grid2):
        st = ev.trivial_state(grid2, np.zeros(grid2.shape, complex))
        rhs = ev.schrodinger_rhs(grid2, st.psi, st)
        assert np.max(np.abs(rhs)) == 0.0

    def test_trivial_gauge_is_free(self, grid2):
        psi = gaussian_psi(grid2)
        st = ev.trivial_state(grid2, psi)
        rhs = ev.schrodinger_rhs(grid2, psi, st)
        assert np.max(np.abs(rhs - 1j * sp.laplacian(grid2, psi))) <= 1e-12

    def test_shape_mismatch(self, grid2):
        st = ev.trivial_state(grid2, np.zeros(grid2.shape, complex))
        with pytest.raises(ValueError):
            ev.schrodinger_rhs(grid2, np.zeros((3, 3), complex), st)

    def test_single_mode_residual_vanishes(self, grid2):
        # a pure mode is degenerate: its quadratic gauge sources are
        # spatial constants, which the periodic mean projection removes,
        # so the correction terms cancel to machine precision
        x = grid2.coords()
        psi = 1e-2 * np.exp(1j * x[0])
        st = ge.solve_elliptic_system(grid2, psi, ECFG)
        res = ev.schrodinger_rhs(grid2, psi, st) - 1j * sp.laplacian(grid2, psi)
        assert sp.l2_norm(grid2, res) <= 1e-12

    def test_cubic_residual_scaling(self, grid2):
        # generic data: corrections beyond the flat flow are cubic in
        # the amplitude (lam ~ eps, the coefficients h, V, A, B ~ eps^2)
        sizes = {}
        for eps in (1e-2, 1e-3):
            psi = gaussian_psi(grid2, amp=eps)
            st = ge.solve_elliptic_system(grid2, psi, ECFG)
            res = ev.schrodinger_rhs(grid2, psi, st) - 1j * sp.laplacian(grid2, psi)
            sizes[eps] = sp.l2_norm(grid2, res)
        slope = np.log10(sizes[1e-2] / sizes[1e-3])
        assert 2.7 <= slope <= 3.3


class TestStep:
    def test_trivial_gauge_exact_free(self, grid2):
        psi = gaussian_psi(grid2)
        cfg = make_cfg(trivial_gauge=True, dt=0.05, t_end=1.0)
        st = ev.trivial_state(grid2, psi)
        psi1, _ = ev.step(grid2, psi, st, cfg, dt=0.05)
        exact = grid2.ifft(np.exp(-1j * grid2.k_squared() * 0.05) * grid2.fft(psi))
        assert np.max(np.abs(psi1 - exact)) <= 1e-12

    def test_free_subflow_reversible(self, grid2):
        psi = gaussian_psi(grid2)
        cfg = make_cfg(trivial_gauge=True, dt=0.05, t_end=1.0)
        st = ev.trivial_state(grid2, psi)
        fwd, st1 = ev.step(grid2, psi, st, cfg, dt=0.05)
        back, _ = ev.step(grid2, fwd, st1, cfg, dt=-0.05)
        assert np.max(np.abs(back - psi)) <= 1e-12

    @pytest.mark.parametrize("scheme", ["split_step", "imex_rk2"])
    def test_second_order(self, grid2, scheme):
        # Richardson self-convergence: dt and dt/2 solutions against a
        # dt/4 reference; a second-order step gives a ratio near 4
        psi0 = gaussian_psi(grid2, amp=3e-2)
        t_end = 0.1
        sols = {}
        for dt in (0.05, 0.025, 0.0125):
            cfg = make_cfg(dt=dt, t_end=t_end, scheme=scheme)
            sols[dt] = ev.evolve(grid2, psi0, cfg).psis[-1]
        e1 = sp.l2_norm(grid2, sols[0.05] - sols[0.0125])
        e2 = sp.l2_norm(grid2, sols[0.025] - sols[0.0125])
        assert 2.5 <= e1 / e2 <= 7.0

    def test_nan_guard(self, grid2):
        psi = gaussian_psi(grid2)
        psi[0, 0] = np.nan
        cfg = make_cfg(trivial_gauge=True, dt=0.05, t_end=1.0)
        st = ev.trivial_state(grid2, psi)
        with pytest.raises(RuntimeError):
            ev.step(grid2, psi, st, cfg, dt=0.05)

    def test_reused_state_gets_fresh_constraint_report(self, grid2):
        psi = gaussian_psi(grid2)
        cfg = make_cfg(dt=0.025, t_end=0.25)
        st = ev.resolve_gauge(grid2, psi, cfg)
        assert st.constraint_report() is st.diagnostics["residuals"]
        psi_new, st_new = ev.step(grid2, psi, st, cfg, resolve=False)
        expect = geo.constraint_residuals(grid2, psi_new, st.metric, st.lam, st.A)
        assert st_new.constraint_report() == expect
        assert st.constraint_report() != expect


class TestEvolve:
    def test_typed_step_error_keeps_type_and_time(self, grid2, monkeypatch):
        def failing_step(*args, **kwargs):
            raise geo.NotContractingError("inner solve stalled", residual=0.5)

        monkeypatch.setattr(ev, "step", failing_step)
        cfg = make_cfg(trivial_gauge=True, dt=0.05, t_end=0.1)
        with pytest.raises(geo.NotContractingError) as info:
            ev.evolve(grid2, gaussian_psi(grid2), cfg)
        assert "t = " in str(info.value)
        assert "inner solve stalled" in str(info.value)
        assert info.value.residual == 0.5

    def test_untyped_step_error_becomes_runtime_error(self, grid2, monkeypatch):
        def failing_step(*args, **kwargs):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(ev, "step", failing_step)
        cfg = make_cfg(trivial_gauge=True, dt=0.05, t_end=0.1)
        with pytest.raises(RuntimeError, match="t = "):
            ev.evolve(grid2, gaussian_psi(grid2), cfg)

    def test_zero_data(self, grid2):
        cfg = make_cfg(dt=0.05, t_end=0.1)
        traj = ev.evolve(grid2, np.zeros(grid2.shape, complex), cfg)
        assert np.max(traj.hs_norms) == 0.0
        assert np.max(traj.strichartz) == 0.0
        for k in cfg.monitor_ks:
            assert np.max(traj.energies[k]) == 0.0

    def test_small_data_bounded(self, grid2, reference_run):
        traj = reference_run
        assert np.max(traj.hs_norms) <= 1.1 * traj.hs_norms[0]
        assert traj.diagnostics["max_constraint_l2"] <= 100 * ECFG.tol

    def test_times_and_monitors(self, grid2, reference_run):
        traj = reference_run
        assert np.all(np.diff(traj.times) > 0)
        assert abs(traj.times[-1] - 0.25) <= 1e-12
        assert np.all(traj.hs_norms >= 0)
        assert np.all(np.diff(traj.strichartz) >= 0)
        finite = np.isfinite(traj.rho[0])
        assert np.all(np.abs(traj.rho[0][finite]) <= 1e4)

    def test_trivial_gauge_conserves_l2(self, grid2):
        psi0 = gaussian_psi(grid2)
        cfg = make_cfg(trivial_gauge=True, dt=0.05, t_end=1.0)
        traj = ev.evolve(grid2, psi0, cfg)
        l2 = [sp.l2_norm(grid2, p) for p in traj.psis]
        assert max(l2) - min(l2) <= 1e-10

    def test_determinism(self, grid2, reference_run):
        cfg = make_cfg(dt=0.025, t_end=0.25)
        traj2 = ev.evolve(grid2, gaussian_psi(grid2), cfg)
        assert np.array_equal(traj2.psis[-1], reference_run.psis[-1])
        assert np.array_equal(traj2.hs_norms, reference_run.hs_norms)

    def test_g_tensor_symmetric(self, grid2, reference_run):
        G = ev.g_tensor(grid2, reference_run.final_state)
        assert np.max(np.abs(G - np.einsum("ab...->ba...", G))) <= 1e-12


class TestMonitor:
    @pytest.mark.parametrize("ks", [(0, 1, 2), (0, 2)])
    def test_one_pass_norms_match_per_order_calls(self, grid2, ks):
        st = ge.solve_elliptic_system(grid2, gaussian_psi(grid2, amp=3e-2), ECFG)
        m, A = st.metric, st.A
        assert np.max(np.abs(m.h)) > 0 and np.max(np.abs(A)) > 0
        smp = ev.Monitor(grid2, make_cfg(monitor_ks=ks)).record(st.psi, st)
        assert sorted(smp.energies) == sorted(smp.lam_norms) == sorted(ks)
        for k in ks:
            assert smp.energies[k] == geo.energy(grid2, st.psi, m, A, k)
            assert smp.lam_norms[k] == geo.intrinsic_norm(grid2, st.lam, 0, 2,
                                                          m, A, k)


class TestMetricConsistency:
    def test_zero_data(self, grid2):
        cfg = make_cfg(dt=0.05, t_end=0.1)
        traj = ev.evolve(grid2, np.zeros(grid2.shape, complex), cfg)
        dev = ev.metric_consistency(traj)
        assert np.max(dev) == 0.0

    def test_small_and_second_order(self, grid2, reference_run):
        dev_a = ev.metric_consistency(reference_run)
        assert np.max(dev_a) <= 1e-6
        cfg = make_cfg(dt=0.0125, t_end=0.25)
        dev_b = ev.metric_consistency(
            ev.evolve(grid2, gaussian_psi(grid2), cfg)
        )
        assert np.max(dev_b) <= np.max(dev_a) / 2.5


class TestDifferenceStability:
    def test_zero_perturbation(self, grid2):
        cfg = make_cfg(dt=0.05, t_end=0.1)
        r = ev.difference_stability(
            grid2, gaussian_psi(grid2), np.zeros(grid2.shape, complex), cfg
        )
        assert np.max(r) == 0.0

    def test_trivial_gauge_isometry(self, grid2):
        cfg = make_cfg(trivial_gauge=True, dt=0.05, t_end=0.5)
        psi0 = gaussian_psi(grid2)
        dpsi = 1e-3 * gaussian_psi(grid2, width=0.8, wave=2)
        r = ev.difference_stability(grid2, psi0, dpsi, cfg)
        assert np.max(np.abs(r - 1.0)) <= 1e-10

    def test_small_data_bounded(self, grid2):
        cfg = make_cfg(dt=0.05, t_end=0.25)
        psi0 = gaussian_psi(grid2)
        dpsi = 1e-3 * psi0
        r = ev.difference_stability(grid2, psi0, dpsi, cfg)
        assert np.max(r) <= 2.0


class TestScatteringProfile:
    def test_trivial_gauge_constant_profile(self, grid2):
        cfg = make_cfg(trivial_gauge=True, dt=0.05, t_end=1.0)
        traj = ev.evolve(grid2, gaussian_psi(grid2), cfg)
        diffs = ev.scattering_profile(traj, sample_times=[0.0, 0.5, 1.0])
        assert all(d <= 1e-12 for _, _, d in diffs)

    def test_zero_data(self, grid2):
        cfg = make_cfg(dt=0.05, t_end=0.1)
        traj = ev.evolve(grid2, np.zeros(grid2.shape, complex), cfg)
        diffs = ev.scattering_profile(traj)
        assert all(d == 0.0 for _, _, d in diffs)
