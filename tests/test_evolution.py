import numpy as np
import pytest

from smcf import evolution as ev
from smcf import gauge_elliptic as ge
from smcf import geometry as geo
from smcf import spectral as sp

from conftest import gaussian_psi


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
        for bad in ({"dt": np.nan}, {"t_end": np.nan}, {"monitor_ks": ()},
                    {"monitor_ks": (1, 1)}, {"monitor_ks": (0, -1)}):
            with pytest.raises(ValueError):
                ev.EvolutionConfig(**bad)

    def test_default_dt(self, grid2):
        cfg = ev.EvolutionConfig()
        assert abs(cfg.effective_dt(grid2) - 0.25 * grid2.dx**2) <= 1e-15

    @pytest.mark.parametrize("dt, t_end, n_steps", [
        (0.05, 0.074, 2), (0.05, 0.124, 3),  # rounded up, not to nearest
        (0.05, 0.15, 3), (0.02, 0.14, 7),    # t_end / dt = 3 - 4e-16, 7 + 9e-16
        (0.025, 0.25, 10), (0.002, 0.1, 50), (0.003, 0.1, 34),
        (0.0045, 0.02, 5)])
    def test_step_count(self, grid2, dt, t_end, n_steps):
        n, step = ev.step_count(grid2, ev.EvolutionConfig(dt=dt, t_end=t_end))
        assert n == n_steps
        assert step <= dt * (1 + 1e-12)
        assert n * step == pytest.approx(t_end, rel=1e-15)

    def test_equal_steps_up_to_2_53(self):
        # whole counts, not round-off short of them
        for dt, n_steps in ((1e-12, 10**12), (1e-13, 10**13), (1e-14, 10**14)):
            n, step = ev.equal_steps(1.0, dt)
            assert n == n_steps and step <= dt * (1 + 1e-12)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            ev.equal_steps(1.0, 2.0**-54)

    @pytest.mark.parametrize("t_end, dt", [
        (0.1, 1e-320),  # t_end / dt overflows
        (0.1, 1e-300),  # finite, but about 1e299 steps
        (1.0, 0.0), (1.0, -0.1), (1.0, np.nan), (np.inf, 0.1)])
    def test_equal_steps_rejects_unusable_step(self, t_end, dt):
        with pytest.raises(ValueError):
            ev.equal_steps(t_end, dt)


class TestRhs:
    def test_zero(self, grid2):
        st = ev.trivial_state(grid2, np.zeros(grid2.shape, complex))
        rhs = ev.schrodinger_rhs(st)
        assert np.max(np.abs(rhs)) == 0.0

    def test_trivial_gauge_is_free(self, grid2):
        psi = gaussian_psi(grid2)
        st = ev.trivial_state(grid2, psi)
        rhs = ev.schrodinger_rhs(st)
        assert np.max(np.abs(rhs - 1j * sp.laplacian(grid2, psi))) <= 1e-12

    def test_single_mode_residual_vanishes(self, grid2):
        # a pure mode is degenerate: its quadratic gauge sources are
        # spatial constants, which the periodic mean projection removes,
        # so the correction terms cancel to machine precision
        x = grid2.coords()
        psi = 1e-2 * np.exp(1j * x[0])
        st = ge.solve_elliptic_system(grid2, psi, ECFG)
        res = ev.schrodinger_rhs(st) - 1j * sp.laplacian(grid2, psi)
        assert sp.l2_norm(grid2, res) <= 1e-12

    def test_cubic_residual_scaling(self, grid2):
        # generic data: corrections beyond the flat flow are cubic in
        # the amplitude (lam ~ eps, the coefficients h, V, A, B ~ eps^2)
        sizes = {}
        for eps in (1e-2, 1e-3):
            psi = gaussian_psi(grid2, amp=eps)
            st = ge.solve_elliptic_system(grid2, psi, ECFG)
            res = ev.schrodinger_rhs(st) - 1j * sp.laplacian(grid2, psi)
            sizes[eps] = sp.l2_norm(grid2, res)
        slope = np.log10(sizes[1e-2] / sizes[1e-3])
        assert 2.7 <= slope <= 3.3


class TestStep:
    def test_trivial_gauge_exact_free(self, grid2):
        psi = gaussian_psi(grid2)
        cfg = make_cfg(trivial_gauge=True, dt=0.05, t_end=1.0)
        st = ev.trivial_state(grid2, psi)
        psi1 = ev.step(st, cfg, dt=0.05).psi
        exact = grid2.ifft(np.exp(-1j * grid2.full.k2 * 0.05) * grid2.fft(psi))
        assert np.max(np.abs(psi1 - exact)) <= 1e-12

    def test_free_subflow_reversible(self, grid2):
        psi = gaussian_psi(grid2)
        cfg = make_cfg(trivial_gauge=True, dt=0.05, t_end=1.0)
        st = ev.trivial_state(grid2, psi)
        st1 = ev.step(st, cfg, dt=0.05)
        back = ev.step(st1, cfg, dt=-0.05).psi
        assert np.max(np.abs(back - psi)) <= 1e-12

    def test_lawson_trivial_gauge_exact_free(self, grid2):
        psi = gaussian_psi(grid2)
        cfg = make_cfg(trivial_gauge=True, dt=0.05, t_end=1.0,
                       scheme="lawson_rk4")
        st = ev.trivial_state(grid2, psi)
        psi1 = ev.step(st, cfg, dt=0.05).psi
        exact = grid2.ifft(np.exp(-1j * grid2.full.k2 * 0.05) * grid2.fft(psi))
        assert np.max(np.abs(psi1 - exact)) <= 1e-12

    def test_lawson_free_subflow_reversible(self, grid2):
        psi = gaussian_psi(grid2)
        cfg = make_cfg(trivial_gauge=True, dt=0.05, t_end=1.0,
                       scheme="lawson_rk4")
        st = ev.trivial_state(grid2, psi)
        st1 = ev.step(st, cfg, dt=0.05)
        back = ev.step(st1, cfg, dt=-0.05).psi
        assert np.max(np.abs(back - psi)) <= 1e-12

    def test_lawson_four_solves_per_step(self, grid2, monkeypatch):
        # k1 reads the state the step is given: the end-of-step solve of
        # one step is the first stage of the next
        calls = []
        solve = ge.solve_elliptic_system

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(ge, "solve_elliptic_system", counting)
        cfg = make_cfg(dt=0.05, t_end=0.15, scheme="lawson_rk4")
        state = ev.resolve_gauge(grid2, gaussian_psi(grid2), cfg)
        for _ in ev.stepper(state, cfg):
            pass
        assert len(calls) == 1 + 4 * 3

    def test_lawson_matches_written_scheme(self, grid2):
        # one step against the scheme as written, with E(h) taken whole;
        # the order test alone cannot see a stage argument that is off by
        # O(h^2), because the residual's derivative is O(amplitude^2)
        psi, h = gaussian_psi(grid2, amp=3e-2), 0.1
        st = ge.solve_elliptic_system(grid2, psi, ECFG)
        cfg = make_cfg(dt=h, t_end=1.0, scheme="lawson_rk4")

        def E(u, s):
            return sp.free_flow(grid2, u, s)

        def N(u, warm):
            st_u = ge.solve_elliptic_system(grid2, u, ECFG, warm=warm)
            return ev._residual_rhs(st_u), st_u

        k1 = ev._residual_rhs(st)
        k2, st2 = N(E(psi + h / 2 * k1, h / 2), st)
        k3, st3 = N(E(psi, h / 2) + h / 2 * k2, st2)
        k4, _ = N(E(psi, h) + h * E(k3, h / 2), st3)
        written = E(psi, h) + h / 6 * (E(k1, h) + 2 * E(k2 + k3, h / 2) + k4)
        got = ev.step(st, cfg, dt=h).psi
        assert np.max(np.abs(got - written)) <= 1e-14

    def test_lawson_fourth_order(self, grid2):
        # Richardson self-convergence: dt, dt/2 and dt/4 against a dt/8
        # reference.  A fourth-order step gives a ratio near 16 per
        # halving (24 and 28 measured); second or third order gives 4 or
        # 8.  The elliptic tolerance is tight so that the solver's error
        # floor does not cap the ratio.
        psi0 = gaussian_psi(grid2, amp=3e-2)
        ecfg = ge.EllipticConfig(tol=1e-13, smallness_threshold=0.5)
        sols = {}
        for dt in (0.1, 0.05, 0.025, 0.0125):
            cfg = make_cfg(dt=dt, t_end=0.2, scheme="lawson_rk4", elliptic=ecfg)
            state = ev.resolve_gauge(grid2, psi0, cfg)
            for _, _, state in ev.stepper(state, cfg):
                pass
            sols[dt] = state.psi
        errs = [sp.l2_norm(grid2, sols[dt] - sols[0.0125])
                for dt in (0.1, 0.05, 0.025)]
        assert 12.0 <= errs[0] / errs[1] <= 40.0
        assert 12.0 <= errs[1] / errs[2] <= 40.0

    @pytest.mark.parametrize("scheme", ["split_step"])
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
            ev.step(st, cfg, dt=0.05)


class TestStepper:
    def test_steps_from_the_given_state(self, grid2):
        cfg = make_cfg(dt=0.05, t_end=0.15, trivial_gauge=True)
        _, dt = ev.step_count(grid2, cfg)
        state = ev.resolve_gauge(grid2, gaussian_psi(grid2), cfg)
        steps = ev.stepper(state, cfg, start=1)
        i, t, first = next(steps)
        assert (i, t) == (1, dt) and first is state
        i, t, after = next(steps)
        assert (i, t) == (2, 2 * dt)
        np.testing.assert_array_equal(after.psi, ev.step(state, cfg, dt=dt).psi)
        assert [i for i, _, _ in steps] == [3]

    def test_bare_step_takes_the_runs_step(self, grid2):
        # t_end / dt = 10 / 3 is not whole: a run steps 0.1 / 4 = 0.025
        cfg = make_cfg(dt=0.03, t_end=0.1)
        assert ev.step_count(grid2, cfg)[1] == 0.025
        state = ev.resolve_gauge(grid2, gaussian_psi(grid2), cfg)
        np.testing.assert_array_equal(ev.step(state, cfg).psi,
                                      ev.step(state, cfg, dt=0.025).psi)


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
        G = ev.g_tensor(reference_run.final_state)
        assert np.max(np.abs(G - np.einsum("ab...->ba...", G))) <= 1e-12


class TestMonitor:
    @pytest.mark.parametrize("ks", [(0, 1, 2), (0, 2)])
    def test_one_pass_norms_match_per_order_calls(self, grid2, ks):
        st = ge.solve_elliptic_system(grid2, gaussian_psi(grid2, amp=3e-2), ECFG)
        m, A = st.metric, st.A
        assert np.max(np.abs(m.h)) > 0 and np.max(np.abs(A)) > 0
        smp = ev.Monitor(grid2, make_cfg(monitor_ks=ks)).record(st)
        assert sorted(smp.energies) == sorted(smp.lam_norms) == sorted(ks)
        for k in ks:
            assert smp.energies[k] == geo.energy(st.psi, m, A, k)
            assert smp.lam_norms[k] == geo.intrinsic_norm(st.lam, 0, 2, m, A, k)


def report_bytes(report):
    """Every Residual and nondecay value of a report, as raw bytes."""
    values = [v for r in report.as_dict().values() for v in (r.l2, r.linf)]
    return np.array(values + list(report.nondecay.values())).tobytes()


class TestLazyReport:
    # a stage or step state builds its constraint report on first read:
    # the stepper alone builds none, a monitored run one per sample
    @pytest.mark.parametrize("scheme, monitored, reports", [
        ("split_step", False, 0), ("split_step", True, 4),
        ("lawson_rk4", True, 4)])
    def test_reports_per_run(self, grid2, monkeypatch, scheme, monitored,
                             reports):
        calls = []
        build = geo.constraint_residuals

        def counting(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(geo, "constraint_residuals", counting)
        cfg = make_cfg(dt=0.05, t_end=0.15, scheme=scheme)
        monitor = ev.Monitor(grid2, cfg)
        state = ev.resolve_gauge(grid2, gaussian_psi(grid2), cfg)
        for _, _, state in ev.stepper(state, cfg):
            if monitored:
                monitor.record(state)
        assert len(calls) == reports

    def test_lazy_report_is_the_eager_one(self, grid2, monkeypatch):
        solves = []
        solve = ge.solve_elliptic_system

        def recording(*args, **kwargs):
            solves.append((args, kwargs))
            return solve(*args, **kwargs)

        monkeypatch.setattr(ge, "solve_elliptic_system", recording)
        cfg = make_cfg(dt=0.05, t_end=0.15)
        psi = gaussian_psi(grid2, amp=3e-2)
        st0 = ev.resolve_gauge(grid2, psi, cfg)
        st1 = ev.step(st0, cfg)
        assert "residuals" not in st1.diagnostics
        (grid, psi1, ecfg), kwargs = solves[-1]
        assert psi1 is st1.psi and kwargs.pop("report") is False
        eager = solve(grid, psi1, ecfg, **kwargs).diagnostics["residuals"]
        assert report_bytes(st1.constraint_report()) == report_bytes(eager)
        assert st1.constraint_report() is st1.diagnostics["residuals"]


class TestMetricConsistency:
    def test_zero_data(self, grid2):
        cfg = make_cfg(dt=0.05, t_end=0.1)
        traj = ev.evolve(grid2, np.zeros(grid2.shape, complex), cfg)
        dev = traj.metric_dev
        assert np.max(dev) == 0.0

    def test_small_and_second_order(self, grid2, reference_run):
        dev_a = reference_run.metric_dev
        assert np.max(dev_a) <= 1e-6
        cfg = make_cfg(dt=0.0125, t_end=0.25)
        dev_b = ev.evolve(grid2, gaussian_psi(grid2), cfg).metric_dev
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
