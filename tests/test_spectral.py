import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcf import geometry as geo
from smcf import spectral as sp
from smcf.spectral import Grid


@pytest.fixture
def grid2():
    return Grid(d=2, n=32)


def coords(grid):
    return grid.coords()


def random_field(grid, seed=0, mean_zero=False):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = sp.lp_project(grid, f, 3, "S_le")  # keep it smooth
    if mean_zero:
        f = f - np.mean(f)
    return f


class TestGrid:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Grid(d=2, n=6)  # too small
        with pytest.raises(ValueError):
            Grid(d=2, n=9)  # odd
        with pytest.raises(ValueError):
            Grid(d=2, n=14)  # factor 7
        with pytest.raises(ValueError):
            Grid(d=5, n=16)
        Grid(d=2, n=24)  # 2^3 * 3 is fine

    def test_zero_wavenumber_once_per_axis(self, grid2):
        k1 = 2 * np.pi * np.fft.fftfreq(grid2.n, d=grid2.dx)
        assert np.count_nonzero(k1 == 0) == 1


class TestDerivative:
    """Rows of ``gradient``: row a is the partial derivative along axis a."""

    def test_cosine(self, grid2):
        x = coords(grid2)
        f = np.cos(x[0]).astype(complex)
        df = sp.gradient(grid2, f)
        assert np.max(np.abs(df[0] - (-np.sin(x[0])))) <= 1e-12
        assert np.max(np.abs(df[1])) <= 1e-12

    def test_constant(self, grid2):
        f = np.ones(grid2.shape, dtype=complex)
        assert np.max(np.abs(sp.gradient(grid2, f))) <= 1e-13

    def test_single_mode(self, grid2):
        x = coords(grid2)
        f = np.exp(3j * x[1])
        df = sp.gradient(grid2, f)
        assert np.max(np.abs(df[1] - 3j * f)) <= 1e-11
        assert np.max(np.abs(df[0])) <= 1e-11


class TestInverseLaplacian:
    def test_eigenfunction(self, grid2):
        x = coords(grid2)
        f = np.cos(x[0]).astype(complex)
        u = sp.inverse_laplacian(grid2, f)
        assert np.max(np.abs(u - (-np.cos(x[0])))) <= 1e-12

    def test_constant_goes_to_zero(self, grid2):
        f = 3.5 * np.ones(grid2.shape, dtype=complex)
        u = sp.inverse_laplacian(grid2, f)
        assert np.max(np.abs(u)) <= 1e-13

    def test_two_modes(self, grid2):
        x = coords(grid2)
        f = np.cos(2 * x[0]) + np.cos(x[1])
        u = sp.inverse_laplacian(grid2, f.astype(complex))
        expect = -np.cos(2 * x[0]) / 4 - np.cos(x[1])
        assert np.max(np.abs(u - expect)) <= 1e-12

    def test_left_inverse_of_laplacian(self, grid2):
        f = random_field(grid2, seed=1)
        u = sp.inverse_laplacian(grid2, sp.laplacian(grid2, f))
        assert np.max(np.abs(u - (f - np.mean(f)))) <= 1e-10


class TestRiesz:
    def test_own_axis_unit_frequency(self, grid2):
        x = coords(grid2)
        f = np.exp(1j * x[0])
        assert np.max(np.abs(sp.riesz(grid2, f, 0) - f)) <= 1e-12

    def test_orthogonal_axis(self, grid2):
        x = coords(grid2)
        f = np.exp(1j * x[0])
        assert np.max(np.abs(sp.riesz(grid2, f, 1))) <= 1e-13

    def test_riesz_squares_resolve_identity(self, grid2):
        # multiplier xi_a/|xi|, so the squares sum to +Id on mean-zero fields
        f = random_field(grid2, seed=2, mean_zero=True)
        total = sum(sp.riesz(grid2, sp.riesz(grid2, f, a), a) for a in range(2))
        assert np.max(np.abs(total - f)) <= 1e-12

    def test_pairs_compose_riesz(self, grid2):
        f = random_field(grid2, seed=3)
        pairs = sp.riesz_pairs(grid2, f)
        for a in range(2):
            for b in range(2):
                expect = sp.riesz(grid2, sp.riesz(grid2, f, b), a)
                assert np.max(np.abs(pairs[a, b] - expect)) <= 1e-13


class TestLittlewoodPaley:
    def test_partition_of_unity(self, grid2):
        # band-limited below 2^{J-1} with J = num_bands
        f = random_field(grid2, seed=3)
        J = sp.num_bands(grid2)
        total = sum(sp.lp_project(grid2, f, j, "S") for j in range(J + 1))
        assert np.max(np.abs(total - f)) <= 1e-12

    def test_band_support(self, grid2):
        x = coords(grid2)
        f = np.exp(16j * x[0])  # frequency 16, outside band of j=2
        assert np.max(np.abs(sp.lp_project(grid2, f, 2, "S"))) <= 1e-13

    def test_cumulative_matches_sum(self, grid2):
        f = random_field(grid2, seed=4)
        for j in range(4):
            cum = sp.lp_project(grid2, f, j, "S_le")
            total = sum(sp.lp_project(grid2, f, i, "S") for i in range(j + 1))
            assert np.max(np.abs(cum - total)) <= 1e-12

    def test_s0_covers_low_frequencies(self, grid2):
        x = coords(grid2)
        f = np.exp(1j * x[0])
        assert np.max(np.abs(sp.lp_project(grid2, f, 0, "S") - f)) <= 1e-12

    def test_commutes_with_derivative(self, grid2):
        f = random_field(grid2, seed=5)
        a = sp.gradient(grid2, sp.lp_project(grid2, f, 2, "S"))[0]
        b = sp.lp_project(grid2, sp.gradient(grid2, f)[0], 2, "S")
        assert np.max(np.abs(a - b)) <= 1e-12


class TestSobolevMultiplier:
    def test_identity_at_zero(self, grid2):
        f = random_field(grid2, seed=6)
        assert np.max(np.abs(sp.sobolev_multiplier(grid2, f, 0.0) - f)) <= 1e-13

    def test_single_mode_weight(self, grid2):
        x = coords(grid2)
        f = np.exp(1j * x[0])
        out = sp.sobolev_multiplier(grid2, f, 2.0)
        assert np.max(np.abs(out - 2.0 * f)) <= 1e-12

    def test_inverse_composition(self, grid2):
        f = random_field(grid2, seed=7)
        out = sp.sobolev_multiplier(grid2, sp.sobolev_multiplier(grid2, f, 1.7), -1.7)
        assert np.max(np.abs(out - f)) <= 1e-12

    def test_riesz_kind_zero_mode(self, grid2):
        f = np.ones(grid2.shape, dtype=complex)
        out = sp.sobolev_multiplier(grid2, f, -1.0, kind="riesz")
        assert np.max(np.abs(out)) <= 1e-13


class TestNormsAndInvariants:
    def test_parseval(self, grid2):
        f = random_field(grid2, seed=8)
        phys = np.sqrt(np.sum(np.abs(f) ** 2) * grid2.cell_volume)
        assert abs(sp.l2_norm(grid2, f) - phys) / phys <= 1e-10
        # hs_norm at s=0 is the L2 norm
        assert abs(sp.hs_norm(grid2, f, 0.0) - phys) / phys <= 1e-10

    def test_linearity(self, grid2):
        f = random_field(grid2, seed=9)
        g = random_field(grid2, seed=10)
        for op in (
            lambda u: sp.gradient(grid2, u),
            lambda u: sp.inverse_laplacian(grid2, u),
            lambda u: sp.riesz(grid2, u, 1),
            lambda u: sp.lp_project(grid2, u, 2, "S"),
            lambda u: sp.sobolev_multiplier(grid2, u, 1.3),
        ):
            lhs = op(2.0 * f + 3j * g)
            rhs = 2.0 * op(f) + 3j * op(g)
            assert np.max(np.abs(lhs - rhs)) <= 1e-11

    def test_broadcast_over_tensor_axes(self, grid2):
        f = np.stack([random_field(grid2, seed=11), random_field(grid2, seed=12)])
        out = sp.gradient(grid2, f)  # (axis, tensor index) + grid
        for a in range(2):
            assert np.max(np.abs(out[:, a] - sp.gradient(grid2, f[a]))) <= 1e-13


def nyquist_rich_field(grid, lead, seed):
    """Real white noise (every mode, the Nyquist planes included) plus
    explicit Nyquist content: (-1)^{j_a} on each axis and (-1)^{j_a + j_b}
    on each pair of axes, the modes where the real-path multipliers and
    the complex ones differ."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(lead + grid.shape)
    sign = (-1.0) ** np.indices(grid.shape)
    for a in range(grid.d):
        f += rng.standard_normal(lead + (1,) * grid.d) * sign[a]
        for b in range(a + 1, grid.d):
            f += rng.standard_normal(lead + (1,) * grid.d) * sign[a] * sign[b]
    return f


def assert_real_part(got, want, rtol=1e-13):
    """got == want.real in the max norm, relative to max |want.real|."""
    want = want.real
    assert got.dtype == np.float64
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestRealPath:
    """A real field goes through the half spectrum with Hermitian-part
    multipliers; the result must be the real part of the complex path."""

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 4), n=st.sampled_from([8, 10, 12]),
           rank=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_matches_real_part_of_complex_path(self, d, n, rank, seed):
        grid = Grid(d=d, n=n)
        f = nyquist_rich_field(grid, (d,) * rank, seed)  # leading (), (d,), (d, d)
        for op in (sp.gradient, sp.hessian, sp.inverse_laplacian):
            assert_real_part(op(grid, f), op(grid, f.astype(complex)))

    def test_diagonal_nyquist_mode_kept(self):
        # d_a d_b of (-1)^{j_a + j_b} is -(n/2)^2 times the field for
        # every a, b; two real first derivatives would give zero
        grid = Grid(d=2, n=8)
        f = (-1.0) ** np.sum(np.indices(grid.shape), axis=0)
        hess = sp.hessian(grid, f)
        for a in range(2):
            for b in range(2):
                assert np.max(np.abs(hess[a, b] + 16.0 * f)) <= 1e-12
        assert np.max(np.abs(sp.gradient(grid, f))) <= 1e-12

    def test_real_input_returns_float64(self, grid2):
        f = random_field(grid2, seed=13).real
        assert sp.gradient(grid2, f).dtype == np.float64
        assert sp.hessian(grid2, f).dtype == np.float64
        assert sp.inverse_laplacian(grid2, f).dtype == np.float64
        assert sp.gradient(grid2, f.astype(complex)).dtype == np.complex128

    def test_given_spectrum_is_used(self, grid2):
        f = random_field(grid2, seed=14).real
        fh = grid2.rfft(f)
        assert np.array_equal(sp.gradient(grid2, f, fh), sp.gradient(grid2, f))
        assert np.array_equal(sp.hessian(grid2, f, fh), sp.hessian(grid2, f))

    def test_transforms_round_trip(self):
        for d in (1, 2, 3):
            grid = Grid(d=d, n=8)
            f = nyquist_rich_field(grid, (2,), seed=d)
            assert np.max(np.abs(grid.irfft(grid.rfft(f)) - f)) <= 1e-13
            assert np.max(np.abs(grid.rfft(f) - grid.fft(f)[..., :5])) <= 1e-12
            assert np.max(np.abs(grid.ifft(grid.fft(f)) - f)) <= 1e-13


class TestFlowAndTranslate:
    @pytest.mark.parametrize("axis, m", [(0, 3), (1, -5)])
    def test_translate_by_grid_steps_is_roll(self, grid2, axis, m):
        f = random_field(grid2, seed=15)
        shift = np.zeros(2)
        shift[axis] = m * grid2.dx
        out = sp.translate(grid2, f, shift)  # f(x + m dx)
        assert np.max(np.abs(out - np.roll(f, -m, axis=axis))) <= 1e-13

    def test_free_flow_phase(self, grid2):
        x = coords(grid2)
        for m in (1, 3):
            f = np.exp(1j * m * x[1])
            out = sp.free_flow(grid2, f, 0.7)
            assert np.max(np.abs(out - np.exp(-1j * m**2 * 0.7) * f)) <= 1e-12

    def test_free_flow_reverses(self, grid2):
        f = random_field(grid2, seed=16)
        back = sp.free_flow(grid2, sp.free_flow(grid2, f, 0.9), -0.9)
        assert np.max(np.abs(back - f)) <= 1e-13


class TestOwnership:
    """``spectral`` is the only module that transforms a field or reads
    a wavenumber (see the module docstring)."""

    PATTERN = re.compile(r"np\.fft|\b(i?r?fft|wavenumbers|k_squared|k_abs)\(")

    def test_no_transform_outside_spectral(self):
        src = pathlib.Path(sp.__file__).parent
        hits = [f"{path.name}:{i}: {line.strip()}"
                for path in sorted(src.glob("*.py")) if path.name != "spectral.py"
                for i, line in enumerate(path.read_text().splitlines(), 1)
                if self.PATTERN.search(line)]
        assert hits == []

    def test_geometry_binds_trig_interp(self):
        # perfbench/spans.py traces it as smcf.geometry.trig_interp
        assert geo.trig_interp is sp.trig_interp
