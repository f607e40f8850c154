import numpy as np
import pytest

from smcf import gauge_elliptic as ge
from smcf import geometry as geo
from smcf import immersion as im
from smcf import spectral as sp
from smcf.spectral import Grid


def gaussian_psi(grid, amp=1e-2, width=0.6, wave=1):
    x = grid.coords()
    c = grid.length / 2.0
    r2 = sum((x[a] - c) ** 2 for a in range(grid.d))
    psi = amp * np.exp(-r2 / (2 * width**2)) * np.exp(1j * wave * (x[0] - c))
    return psi - np.mean(psi)


ECFG = ge.EllipticConfig(smallness_threshold=0.5)


@pytest.fixture(scope="module")
def circle():
    return im.circle_state(n=256, radius=2.0)


@pytest.fixture(scope="module")
def sphere():
    return im.sphere_state(n=24, radius=2.0)


@pytest.fixture(scope="module")
def grid2():
    return Grid(d=2, n=32)


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


def coulomb_residual(state):
    ex = im.extract_gauge(state)
    dA = geo.covariant_derivative(state.grid, ex.A, 0, 1, ex.metric).real
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

    def test_dimension_rejected(self):
        grid = Grid(d=3, n=8)
        F = np.zeros((5,) + grid.shape)
        with pytest.raises(ValueError):
            im.ImmersionState(grid=grid, F=F, nu1=F, nu2=F)


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
        state = im.flat_patch_state(grid2)
        _, H = im.induced_geometry(grid2, state.F, state.linear)
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
            rep = geo.constraint_residuals(state.grid, ex.psi, ex.metric,
                                           ex.lam, ex.A, mean_project=False)
            assert rep.codazzi.linf <= 1e-10

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
        fixed = im.gauge_fix_frame(graph)
        res = coulomb_residual(fixed)
        assert res <= 1e-8
        again = im.gauge_fix_frame(fixed)
        assert np.max(np.abs(again.nu1 - fixed.nu1)) <= 1e-8

    def test_constant_rotation_in_kernel(self, graph):
        # a constant rotation satisfies the gauge condition already, so
        # the fix leaves it alone
        fixed = im.gauge_fix_frame(graph)
        theta = 0.4
        rot = frame_rotate(fixed, theta * np.ones(graph.grid.shape))
        fixed_rot = im.gauge_fix_frame(rot)
        assert np.max(np.abs(fixed_rot.nu1 - rot.nu1)) <= 1e-8
        assert coulomb_residual(fixed_rot) <= 1e-8

    def test_smooth_perturbation_recovered(self, graph):
        x = graph.grid.coords()
        theta = 0.3 * np.sin(x[0]) * np.cos(2 * x[1])
        perturbed = frame_rotate(graph, theta)
        before = coulomb_residual(perturbed)
        fixed = im.gauge_fix_frame(perturbed)
        after = coulomb_residual(fixed)
        assert before >= 1e-2
        assert after <= 1e-8


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


class TestOracle:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            im.OracleConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            im.OracleConfig(dt_gauge=0.0)

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
