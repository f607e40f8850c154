import numpy as np
import pytest

from smcf import gauge_elliptic as ge
from smcf import geometry as geo
from smcf import immersion as im
from smcf import spectral as sp
from smcf.spectral import Grid

from conftest import gaussian_psi


ECFG = ge.EllipticConfig(smallness_threshold=0.5)


@pytest.fixture(scope="module")
def circle():
    return im.circle_state(n=256, radius=2.0)


@pytest.fixture(scope="module")
def sphere():
    return im.sphere_state(n=24, radius=2.0)


@pytest.fixture(scope="module")
def graph(grid2):
    w = sp.inverse_laplacian(grid2, sp.drop_nyquist(grid2, gaussian_psi(grid2)))
    return im.graph_state(grid2, w)


def frame_rotate(state, theta):
    """Rotate the normal frame pointwise by the angle field theta."""
    c, s = np.cos(theta), np.sin(theta)
    return im.ImmersionState(
        grid=state.grid,
        F=state.F,
        nu1=c * state.nu1 + s * state.nu2,
        nu2=-s * state.nu1 + c * state.nu2,
        linear=state.linear,
    )


def gauge_fix_frame(state):
    """Rotate the normal frame into the Coulomb gauge div_g A = 0, by the
    mean-zero angle of ``im._coulomb_angle``; a constant pre-rotation of
    the frame is left untouched."""
    ex = im.extract_gauge(state)
    return frame_rotate(state, im._coulomb_angle(ex.metric, ex.A))


def coulomb_residual(state):
    ex = im.extract_gauge(state)
    dA = geo.covariant_derivative(ex.A, 0, 1, ex.metric).real
    return float(np.max(np.abs(np.einsum("ab...,ab...->...", ex.metric.inv, dA))))


class TestImmersionState:
    def test_shape_validation(self, grid2):
        F = np.zeros((4,) + grid2.shape)
        with pytest.raises(ValueError):
            im.ImmersionState(grid=grid2, F=np.zeros((3,) + grid2.shape),
                              nu1=F, nu2=F)

    def test_linear_shape_validation(self, grid2, graph):
        with pytest.raises(ValueError):
            im.ImmersionState(grid=grid2, F=graph.F, nu1=graph.nu1,
                              nu2=graph.nu2, linear=np.zeros((4, 3)))

    def test_frame_validation(self, circle):
        with pytest.raises(ValueError):
            im.ImmersionState(grid=circle.grid, F=circle.F,
                              nu1=2.0 * circle.nu1, nu2=circle.nu2)


class TestInducedGeometry:
    def test_circle_curvature(self, circle):
        _, H = im.induced_geometry(circle.grid, circle.F)
        speed = np.sqrt(np.einsum("i...,i...->...", H, H))
        assert np.max(np.abs(speed - 1.0 / 2.0)) <= 1e-8

    def test_sphere_curvature(self, sphere):
        _, H = im.induced_geometry(sphere.grid, sphere.F)
        speed = np.sqrt(np.einsum("i...,i...->...", H, H))
        assert np.max(np.abs(speed - 2.0 / 2.0)) <= 1e-6

    def test_flat_patch(self, grid2):
        # the graph of w = 0 is the flat d-torus in R^{d+2}, framed by
        # (e_{d+1}, e_{d+2})
        for grid in (grid2, Grid(d=3, n=8)):
            d = grid.d
            state = im.graph_state(grid, np.zeros(grid.shape, dtype=complex))
            assert state.F.shape == (d + 2,) + grid.shape
            np.testing.assert_array_equal(state.linear, np.eye(d + 2, d))
            e = np.eye(d + 2).reshape((d + 2, d + 2) + (1,) * d)
            assert np.max(np.abs(state.nu1 - e[d])) <= 1e-15
            assert np.max(np.abs(state.nu2 - e[d + 1])) <= 1e-15
            _, H = im.induced_geometry(grid, state.F, state.linear)
            assert np.max(np.abs(H)) <= 1e-12

    def test_degenerate(self, circle):
        with pytest.raises(im.DegenerateImmersionError):
            im.induced_geometry(circle.grid, 0.0 * circle.F)

    def test_normality(self, graph):
        # H is normal: H . d_a F vanishes to discretization error
        _, H = im.induced_geometry(graph.grid, graph.F, graph.linear)
        dF = im._tangents(graph.grid, graph.F, graph.linear)
        tang = np.einsum("ai...,i...->a...", dF, H)
        assert np.max(np.abs(tang)) <= 1e-8


class TestSmcfStep:
    def test_circle_translating_soliton(self, circle):
        # the round circle translates rigidly along the binormal at
        # speed 1/r with the radius frozen
        t_end, dt = 0.05, 1e-4
        state = circle
        for _ in range(round(t_end / dt)):
            state = im.smcf_step(state, dt)
        disp = (state.F - circle.F).reshape(3, -1).mean(axis=1)
        expect = np.array([0.0, 0.0, t_end / 2.0])
        assert np.max(np.abs(disp - expect)) <= 1e-4
        radii = np.sqrt(state.F[0] ** 2 + state.F[1] ** 2)
        assert np.max(np.abs(radii - 2.0)) <= 1e-6

    def test_sphere_translates(self, sphere):
        # symmetry forces rigid translation along the frame axis e4 at
        # speed 2/r; the sign follows the frame orientation
        t_end, dt = 0.02, 1e-3
        state = sphere
        for _ in range(round(t_end / dt)):
            state = im.smcf_step(state, dt)
        disp = (state.F - sphere.F).reshape(4, -1).mean(axis=1)
        expect = np.array([0.0, 0.0, 0.0, -2.0 * t_end / 2.0])
        assert np.max(np.abs(disp - expect)) <= 1e-5
        radii = np.sqrt(np.einsum("i...,i...->...", state.F - disp.reshape(4, 1, 1),
                                  state.F - disp.reshape(4, 1, 1)))
        assert np.max(np.abs(radii - 2.0)) <= 1e-6

    def test_time_reversal(self, graph):
        dt = 1e-3
        fwd = im.smcf_step(graph, dt)
        back = im.smcf_step(fwd, -dt)
        assert np.max(np.abs(back.F - graph.F)) <= 1e-10
        assert np.max(np.abs(back.nu1 - graph.nu1)) <= 1e-10

    @pytest.mark.parametrize("name, dt", [("graph", 1e-3), ("sphere", 1e-3),
                                          ("circle", 1e-4)])
    def test_normal_part_of_H_suffices(self, request, name, dt):
        # a reference RK4 on the full J Delta_g F, Christoffel term
        # included, agrees with the step that forms only g^{ab} d2_ab F
        state = ref = request.getfixturevalue(name)
        grid, lin = state.grid, state.linear

        def frame(F):
            metric, H = im.induced_geometry(grid, F, lin)
            dF = im._tangents(grid, F, lin)
            return H, im._frame_project(dF, metric.inv, ref.nu1, ref.nu2)

        def vel(F):
            H, (n1, n2) = frame(F)
            return (np.einsum("i...,i...->...", H, n1) * n2
                    - np.einsum("i...,i...->...", H, n2) * n1)

        for _ in range(5):
            k1 = vel(ref.F)
            k2 = vel(ref.F + 0.5 * dt * k1)
            k3 = vel(ref.F + 0.5 * dt * k2)
            k4 = vel(ref.F + dt * k3)
            F = ref.F + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            nu1, nu2 = frame(F)[1]
            ref = im.ImmersionState(grid=grid, F=F, nu1=nu1, nu2=nu2, linear=lin)
            state = im.smcf_step(state, dt)
        assert np.max(np.abs(state.F - ref.F)) <= 1e-14
        assert np.max(np.abs(state.nu1 - ref.nu1)) <= 1e-14

    def test_degenerate_midstep(self, circle):
        # an enormous step drives the curve through a singular
        # configuration inside the RK4 stages
        with pytest.raises(im.DegenerateImmersionError):
            state = circle
            for _ in range(50):
                state = im.smcf_step(state, 10.0)


class TestExtractGauge:
    def test_circle_psi(self, circle):
        ex = im.extract_gauge(circle)
        assert np.max(np.abs(np.abs(ex.psi) - 1.0 / 2.0)) <= 1e-8

    def test_sphere_psi(self, sphere):
        ex = im.extract_gauge(sphere)
        assert np.max(np.abs(np.abs(ex.psi) - 2.0 / 2.0)) <= 1e-6

    def test_lambda_symmetry(self, sphere, graph):
        for state in (sphere, graph):
            lam = im.extract_gauge(state).lam
            assert np.max(np.abs(lam - np.einsum("ab...->ba...", lam))) <= 1e-8

    def test_trace_identity(self, graph):
        # |psi| = |H| pointwise: the scalar collects both normal
        # components of the mean curvature
        ex = im.extract_gauge(graph)
        _, H = im.induced_geometry(graph.grid, graph.F, graph.linear)
        normH = np.sqrt(np.einsum("i...,i...->...", H, H))
        assert np.max(np.abs(np.abs(ex.psi) - normH)) <= 1e-8

    def test_constant_frame_rotation(self, graph):
        theta = 0.7
        rot = frame_rotate(graph, theta * np.ones(graph.grid.shape))
        ex0 = im.extract_gauge(graph)
        ex1 = im.extract_gauge(rot)
        assert np.max(np.abs(ex1.A - ex0.A)) <= 1e-10
        assert np.max(np.abs(ex1.lam - np.exp(-1j * theta) * ex0.lam)) <= 1e-10
        assert np.max(np.abs(np.abs(ex1.psi) - np.abs(ex0.psi))) <= 1e-10
        assert np.max(np.abs(ex1.metric.g - ex0.metric.g)) <= 1e-12

    def test_sphere_codazzi(self):
        # extracted data satisfies the curl-free compatibility of the
        # second fundamental form; all sphere fields are trigonometric
        # polynomials so the residual sits at roundoff for every n
        for n in (16, 24):
            state = im.sphere_state(n=n, radius=2.0)
            ex = im.extract_gauge(state)
            rep = geo.constraint_residuals(ex.psi, ex.metric, ex.lam, ex.A)
            # the projected residual plus its mean bounds the unprojected one
            assert rep.codazzi.linf + rep.nondecay["codazzi"] <= 1e-10

    def test_reparametrization_covariance(self):
        # |psi| is a geometric scalar: a non-uniform parametrization of
        # the same circle extracts the same curvature 1/r
        grid = Grid(d=1, n=256)
        s = grid.coords()[0]
        phi = s + 0.3 * np.sin(s)
        F = 2.0 * np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)])
        nu1 = np.stack([np.zeros_like(phi), np.zeros_like(phi), np.ones_like(phi)])
        nu2 = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)])
        state = im.ImmersionState(grid=grid, F=F, nu1=nu1, nu2=nu2)
        ex = im.extract_gauge(state)
        assert np.max(np.abs(np.abs(ex.psi) - 1.0 / 2.0)) <= 1e-8


class TestGaugeFixFrame:
    def test_already_coulomb_fixed_point(self, graph):
        fixed = gauge_fix_frame(graph)
        res = coulomb_residual(fixed)
        assert res <= 1e-8
        again = gauge_fix_frame(fixed)
        assert np.max(np.abs(again.nu1 - fixed.nu1)) <= 1e-8

    def test_constant_rotation_in_kernel(self, graph):
        # a constant rotation satisfies the gauge condition already, so
        # the fix leaves it alone
        fixed = gauge_fix_frame(graph)
        theta = 0.4
        rot = frame_rotate(fixed, theta * np.ones(graph.grid.shape))
        fixed_rot = gauge_fix_frame(rot)
        assert np.max(np.abs(fixed_rot.nu1 - rot.nu1)) <= 1e-8
        assert coulomb_residual(fixed_rot) <= 1e-8

    def test_smooth_perturbation_recovered(self, graph):
        x = graph.grid.coords()
        theta = 0.3 * np.sin(x[0]) * np.cos(2 * x[1])
        perturbed = frame_rotate(graph, theta)
        before = coulomb_residual(perturbed)
        fixed = gauge_fix_frame(perturbed)
        after = coulomb_residual(fixed)
        assert before >= 1e-2
        assert after <= 1e-8


class TestCoulombAngle:
    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_rhs_is_minus_covariant_divergence(self, d, n, monkeypatch):
        """The right-hand side, formed contract-first from the Coulomb data
        of ``geometry``, is the literal -g^{ca} nabla_c A_a."""
        grid, rng = Grid(d=d, n=n), np.random.default_rng(d)
        h = 0.05 * rng.standard_normal((d, d) + grid.shape)
        metric = geo.MetricField.from_h(grid, h + np.swapaxes(h, 0, 1))
        A = rng.standard_normal((d,) + grid.shape)
        rhs = []

        def recorded(metric, f, *args):  # the rhs only; nothing is solved
            rhs.append(f)
            return (np.zeros_like(f),)

        monkeypatch.setattr(geo, "solve_laplace_beltrami", recorded)
        im._coulomb_angle(metric, A)
        dA = geo.covariant_derivative(A, 0, 1, metric)  # (c, a)
        want = -np.einsum("ca...,ca...->...", metric.inv, dA)
        assert len(rhs) == 1
        assert np.max(np.abs(rhs[0] - want)) <= 1e-12 * np.max(np.abs(want))


class TestAlignExtracted:
    def test_one_chart_per_alignment(self, grid2, graph, monkeypatch):
        calls, fix = [], geo.harmonic_coordinate_fix

        def counted(metric):
            calls.append(1)
            return fix(metric)

        monkeypatch.setattr(geo, "harmonic_coordinate_fix", counted)
        psi_ref = sp.drop_nyquist(grid2, gaussian_psi(grid2))
        aligned, _ = im.align_extracted(grid2, im.extract_gauge(graph), psi_ref)
        assert len(calls) == 1
        assert sp.l2_norm(grid2, aligned - psi_ref) <= 1e-6


class TestConstruction:
    def test_drop_nyquist(self, grid2):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(grid2.shape) + 1j * rng.standard_normal(grid2.shape)
        g = sp.drop_nyquist(grid2, f)
        gh = grid2.fft(g)
        assert np.max(np.abs(gh[grid2.n // 2, :])) <= 1e-12
        assert np.max(np.abs(gh[:, grid2.n // 2])) <= 1e-12
        assert np.max(np.abs(sp.drop_nyquist(grid2, g) - g)) <= 1e-12

    def test_prescribed_psi(self, grid2):
        psi0 = sp.drop_nyquist(grid2, gaussian_psi(grid2))
        state = im.immersion_from_psi(grid2, psi0, tol=1e-7)
        aligned, _ = im.align_extracted(grid2, im.extract_gauge(state), psi0)
        assert sp.l2_norm(grid2, aligned - psi0) <= 1e-7

    def test_construction_reaches_round_off_at_16(self):
        # H and d^2 F keep the diagonal Nyquist mode, so the construction
        # is not floored near 1e-9 on a coarse grid
        grid = Grid(d=2, n=16)
        psi0 = sp.drop_nyquist(grid, gaussian_psi(grid))
        state = im.immersion_from_psi(grid, psi0, tol=1e-14)
        aligned, _ = im.align_extracted(grid, im.extract_gauge(state), psi0)
        assert sp.l2_norm(grid, aligned - psi0) <= 1e-14


class TestAlignmentFit:
    def shifted(self, grid):
        psi = sp.drop_nyquist(grid, gaussian_psi(grid))
        ref = np.exp(1e-7j) * sp.translate(grid, psi, np.array([1e-7, -2e-7]))
        return psi, ref + 1e-9

    def test_recovers_phase_translation_and_offset(self, grid2):
        psi, ref = self.shifted(grid2)
        cur, theta, shift, offset = im._phase_translation_fit(grid2, psi, ref)
        assert abs(theta - 1e-7) <= 1e-12
        assert np.max(np.abs(shift - [1e-7, -2e-7])) <= 1e-12
        assert sp.l2_norm(grid2, cur - ref) <= 1e-14

    def test_sweep_limit_of_one_raises(self, grid2, monkeypatch):
        monkeypatch.setattr(im, "_FIT_SWEEPS", 1)
        with pytest.raises(geo.NotContractingError, match="alignment fit"):
            im._phase_translation_fit(grid2, *self.shifted(grid2))


class TestOracle:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            im.OracleConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            im.OracleConfig(dt_gauge=0.0)
        for bad in ({"t_end": np.nan}, {"dt_gauge": np.nan},
                    {"dt_immersion": np.nan}, {"construction_tol": np.nan}):
            with pytest.raises(ValueError):
                im.OracleConfig(**bad)

    def test_t_end_below_one_gauge_step_rejected(self):
        with pytest.raises(ValueError, match="gauge step"):
            im.OracleConfig(t_end=0.005)
        with pytest.raises(ValueError, match="gauge step"):
            im.OracleConfig(t_end=0.02, dt_gauge=0.03)
        assert im.OracleConfig(t_end=0.0).t_end == 0.0
        assert im.OracleConfig(t_end=0.05).t_end == 0.05

    def test_no_immersion_step_exceeds_dt_immersion(self, monkeypatch):
        # 0.02 / 0.0045 = 4.4 steps: five of 0.004, not four of 0.005
        steps = []
        smcf_step = im.smcf_step

        def recording(state, dt):
            steps.append(dt)
            return smcf_step(state, dt)

        monkeypatch.setattr(im, "smcf_step", recording)
        grid = Grid(d=2, n=16)
        cfg = im.OracleConfig(t_end=0.02, dt_gauge=0.01, dt_immersion=0.0045,
                              elliptic=ECFG)
        im.oracle_compare(grid, gaussian_psi(grid), cfg)
        assert len(steps) == 5
        assert max(steps) <= cfg.dt_immersion
        assert sum(steps) == pytest.approx(cfg.t_end, rel=1e-15)

    def test_default_gauge_side_makes_nine_solves(self, monkeypatch):
        # lawson_rk4 at dt_gauge 0.05 to t_end 0.1: the initial solve and
        # 4 per step, where the split step at 0.0125 made 1 + 8 * 3
        calls = []
        solve = ge.solve_elliptic_system

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(ge, "solve_elliptic_system", counting)
        grid = Grid(d=2, n=16)
        im.oracle_compare(grid, gaussian_psi(grid), im.OracleConfig(elliptic=ECFG))
        assert len(calls) == 9

    def test_builds_no_constraint_report(self, monkeypatch):
        # the gauge side reads psi only, so none of its solves builds one
        calls = []
        build = geo.constraint_residuals

        def counting(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(geo, "constraint_residuals", counting)
        grid = Grid(d=2, n=16)
        im.oracle_compare(grid, gaussian_psi(grid), im.OracleConfig(elliptic=ECFG))
        assert calls == []

    def test_dimension_rejected(self):
        grid = Grid(d=1, n=32)
        with pytest.raises(ValueError):
            im.oracle_compare(grid, np.zeros(grid.shape, complex),
                              im.OracleConfig())

    def test_t0_alignment_residual_only(self, grid2):
        cfg = im.OracleConfig(t_end=0.0, elliptic=ECFG)
        rep = im.oracle_compare(grid2, gaussian_psi(grid2), cfg)
        assert rep.discrepancy <= 1e-6

    def test_short_time_agreement(self, grid2):
        cfg = im.OracleConfig(t_end=0.02, dt_gauge=0.01, dt_immersion=0.002,
                              elliptic=ECFG)
        rep = im.oracle_compare(grid2, gaussian_psi(grid2), cfg)
        assert rep.discrepancy <= 1e-6

    def test_amplitude_halving_shrinks_discrepancy(self, grid2):
        cfg = im.OracleConfig(t_end=0.02, dt_gauge=0.01, dt_immersion=0.002,
                              elliptic=ECFG)
        d_full = im.oracle_compare(grid2, gaussian_psi(grid2), cfg).discrepancy
        d_half = im.oracle_compare(
            grid2, gaussian_psi(grid2, amp=5e-3), cfg
        ).discrepancy
        assert d_half <= d_full / 2.0
