import math
from fractions import Fraction

import numpy as np
import pytest

from smcf import evolution as ev
from smcf import norms
from smcf import spectral as sp
from smcf.spectral import Grid


def gaussian(grid, width=0.6, amp=1.0):
    x = grid.coords()
    c = grid.length / 2.0
    r2 = sum((x[a] - c) ** 2 for a in range(grid.d))
    return amp * np.exp(-r2 / (2 * width**2)) * np.exp(1j * x[0])


class TestExponents:
    def test_d4(self):
        t = norms.exponents(4)
        assert t.r_d == 6
        assert t.s_d == 3.0
        assert t.sigma_d == 1.0
        assert t.endpoint == (2, Fraction(8, 2))

    def test_d5(self):
        t = norms.exponents(5)
        assert t.r_d == Fraction(40, 9)
        assert abs(t.threshold - 3.125) <= 1e-14
        assert t.s_d > t.threshold

    def test_d6_r(self):
        assert norms.exponents(6).r_d == Fraction(15, 4)

    def test_invariants_through_d12(self):
        for d in range(4, 13):
            t = norms.exponents(d)
            assert t.r_d == Fraction(2 * d * (d - 1), (d - 2) ** 2)
            if d == 4:
                assert t.s_d >= 3
            else:
                assert t.s_d > (d + 1) / 2 + 1 / (2 * (d - 1))
            assert t.sigma_d > d / t.r_d  # i.e. s_d > d/r_d + 2
            assert abs(t.sigma_d - (t.s_d - 2.0)) <= 1e-14

    def test_low_dimensions_flagged(self):
        assert not norms.exponents(2).theorem_regime
        assert not norms.exponents(3).theorem_regime
        with pytest.raises(ValueError):
            norms.exponents(1)


class TestWspNorm:
    def test_p2_is_l2_at_s0(self, grid2):
        f = gaussian(grid2)
        assert abs(norms.wsp_norm(grid2, f, 0.0, 2) - sp.l2_norm(grid2, f)) <= 1e-12

    def test_single_band_proxy(self, grid2):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(grid2.shape) + 1j * rng.standard_normal(grid2.shape)
        f = sp.lp_project(grid2, f, 3, "P")
        s = 1.5
        val = norms.wsp_norm(grid2, f, s, 4)
        ref = 2.0 ** (3 * s) * sp.lp_norm(grid2, f, 4)
        # adjacent-band overlap of the cutoff allows a factor-2 window
        assert 0.5 * ref <= val <= 2.0 * ref

    def test_proxy_vs_exact_at_p2(self, grid2):
        f = gaussian(grid2)
        s = 1.0
        exact = norms.wsp_norm(grid2, f, s, 2)
        proxy = 0.0
        for j in range(sp.num_bands(grid2) + 1):
            band = sp.lp_project(grid2, f, j, "S")
            proxy += (2.0 ** (j * s) * sp.l2_norm(grid2, band)) ** 2
        proxy = np.sqrt(proxy)
        assert 0.25 <= proxy / exact <= 4.0

    def test_one_transform_of_f(self, grid2, monkeypatch):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(grid2.shape) + 1j * rng.standard_normal(grid2.shape)
        s, p = 1.5, 4.0
        per_band = 0.0
        for j in range(sp.num_bands(grid2) + 1):
            band = sp.lp_project(grid2, f, j, "S")
            per_band += (2.0 ** (j * s) * sp.lp_norm(grid2, band, p)) ** 2
        calls = []
        fft = Grid.fft
        monkeypatch.setattr(Grid, "fft", lambda g, x: calls.append(1) or fft(g, x))
        assert norms.wsp_norm(grid2, f, s, p) == float(np.sqrt(per_band))
        assert len(calls) == 1

    def test_rejects_p_below_2(self, grid2):
        with pytest.raises(ValueError):
            norms.wsp_norm(grid2, gaussian(grid2), 1.0, 1.5)


class TestStrichartz:
    """The space-time accumulator of ``evolution.Monitor``."""

    def test_constant_in_time(self, grid2):
        # 9 samples of one field at dt 0.5: the trapezoid sum over [0, 4]
        t = norms.exponents(2)
        f = gaussian(grid2)
        T = 4.0
        monitor = ev.Monitor(grid2, ev.EvolutionConfig(dt=0.5, t_end=T))
        state = ev.trivial_state(grid2, f)
        for _ in range(9):
            acc = monitor.record(state).strichartz
        spatial = norms.wsp_norm(grid2, f, t.sigma_d, float(t.r_d))
        assert abs(acc - np.sqrt(T) * spatial) <= 1e-10 * max(spatial, 1.0)

    def test_free_flow_tail_decay(self, grid2):
        # accumulate the free Schrodinger flow of a bump over [0,4] and
        # [0,8]; the increment on [4,8] is controlled by the dispersive
        # L^4 decay ~ t^{-d/2 * (1/2 - 1/4)} of the entries
        cfg = ev.EvolutionConfig(dt=0.125, t_end=8.0, trivial_gauge=True)
        traj = ev.evolve(grid2, gaussian(grid2, width=0.4), cfg)
        acc_a, acc_b = traj.strichartz[32], traj.strichartz[64]
        assert acc_b >= acc_a
        assert acc_b <= 1.5 * acc_a  # tail is small, not doubling


class TestPairCheck:
    def test_endpoint_admissible_d4(self):
        rep = norms.pair_check(2, Fraction(8, 2), 2, Fraction(8, 2), 4)
        assert rep.admissible

    def test_inf_2_acceptable(self):
        rep = norms.pair_check(math.inf, 2, math.inf, 2, 4)
        assert rep.acceptable and rep.acceptable_dual

    def test_2_inf_2_excluded(self):
        assert not norms.pair_check(2, math.inf, 2, math.inf, 2).admissible

    def test_proof_pair_d4(self):
        # (2, r_4) against (2, 2(d-1)/(d-2)): scaling identity holds and
        # the r-relation sits exactly on the window edge
        rep = norms.pair_check(2, 6, 2, 3, 4)
        assert rep.acceptable and rep.acceptable_dual
        assert rep.scaling
        assert rep.inhomogeneous_case == "endpoint"

    def test_duality_symmetry(self):
        for (q, r, qd, rd, d) in [(2, 6, 2, 3, 4), (4, 4, 2, 6, 4), (2, 6, 4, 4, 5)]:
            a = norms.pair_check(q, r, qd, rd, d)
            b = norms.pair_check(qd, rd, q, r, d)
            assert a.scaling == b.scaling

    def test_non_sharp_case(self):
        # d=4: (4,4) with itself: 1/q+1/qt = 1/2 < 1, scaling
        # (d/2)(1 - 1/2) = 1 != 1/2 -> build a correct one instead:
        # need 1/q + 1/qt = 2(1 - 1/r - 1/rt). Take r = rt = 8/3 ->
        # rhs = 2(1 - 3/4) = 1/2, q = qt = 4.  Window and caps hold.
        rep = norms.pair_check(4, Fraction(8, 3), 4, Fraction(8, 3), 4)
        assert rep.acceptable and rep.acceptable_dual and rep.scaling
        assert rep.inhomogeneous_case == "non_sharp"


class TestEnvelope:
    def test_zero_data(self, grid2):
        t = norms.exponents(2)
        env = norms.frequency_envelope(grid2, np.zeros(grid2.shape, complex), t)
        assert np.max(env.c) == 0.0

    def test_single_band(self, grid2):
        t = norms.exponents(2)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(grid2.shape) + 0j
        f = sp.lp_project(grid2, f, 3, "P")
        env = norms.frequency_envelope(grid2, f, t, delta=0.05)
        peak = np.argmax(env.band_norms)
        for j in range(len(env.c)):
            contrib = max(
                2.0 ** (-0.05 * abs(j - k)) * env.band_norms[k]
                for k in range(len(env.c))
            )
            assert abs(env.c[j] - contrib) <= 1e-12
        assert peak in (2, 3)

    def test_dominates_and_slowly_varying(self, grid2):
        t = norms.exponents(2)
        env = norms.frequency_envelope(grid2, gaussian(grid2), t, delta=0.02)
        nj = len(env.c)
        for j in range(nj):
            assert env.band_norms[j] <= env.c[j] + 1e-14
            for k in range(nj):
                assert env.c[j] <= 2.0 ** (0.02 * abs(j - k)) * env.c[k] + 1e-14

    def test_band_norms_from_one_spectrum(self, monkeypatch):
        grid = Grid(d=2, n=64)
        t = norms.exponents(2)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        want = [sp.hs_norm(grid, band, t.s_d) for band in sp.lp_bands(grid, f)]
        calls = {"fft": 0, "ifft": 0}
        fft, ifft = Grid.fft, Grid.ifft

        def counting_fft(self, *args):
            calls["fft"] += 1
            return fft(self, *args)

        def counting_ifft(self, *args):
            calls["ifft"] += 1
            return ifft(self, *args)

        monkeypatch.setattr(Grid, "fft", counting_fft)
        monkeypatch.setattr(Grid, "ifft", counting_ifft)
        env = norms.frequency_envelope(grid, f, t)
        assert calls == {"fft": 1, "ifft": 0}
        assert len(env.band_norms) == len(want)
        for got, ref in zip(env.band_norms, want):
            assert abs(got - ref) <= 1e-14 * ref

    def test_minimality(self, grid2):
        # lowering the envelope at its argmax of band contribution
        # breaks domination: c is the minimal slowly-varying majorant
        t = norms.exponents(2)
        env = norms.frequency_envelope(grid2, gaussian(grid2), t, delta=0.02)
        j = int(np.argmax(env.band_norms))
        smaller = env.c.copy()
        smaller[j] *= 0.99
        assert smaller[j] < env.band_norms[j]


class TestRegularization:
    def test_full_recovery_above_nyquist(self, grid2):
        f = gaussian(grid2)
        k = sp.num_bands(grid2)
        assert np.max(np.abs(norms.regularize(grid2, f, k) - f)) <= 1e-12

    def test_difference_is_single_band(self, grid2):
        f = gaussian(grid2)
        for k in range(3):
            diff = norms.regularize(grid2, f, k + 1) - norms.regularize(grid2, f, k)
            band = sp.lp_project(grid2, f, k + 1, "S")
            assert np.max(np.abs(diff - band)) <= 1e-12

    def test_constants_bounded(self, grid2):
        t = norms.exponents(2)
        rep = norms.regularization_report(grid2, gaussian(grid2), t)
        assert 0 < rep.c_high <= 4.0
        assert 0 < rep.c_diff <= 4.0


    def test_ratios_from_one_spectrum(self, monkeypatch):
        grid, t, sigma = Grid(d=2, n=64), norms.exponents(2), 1.0
        f = gaussian(grid) * np.exp(1j * grid.coords()[0])
        # the ratios from the regularized fields themselves
        c = norms.frequency_envelope(grid, f, t).c
        high = [sp.hs_norm(grid, norms.regularize(grid, f, k), t.s_d + sigma)
                / (2.0 ** (sigma * k) * c[k]) for k in range(len(c))]
        diff = [sp.hs_norm(grid, norms.regularize(grid, f, k + 1)
                           - norms.regularize(grid, f, k), -1.0)
                / (2.0 ** (-(t.s_d + 1) * k) * c[k]) for k in range(len(c) - 1)] + [0.0]
        calls = {"fft": 0, "ifft": 0}
        for name in calls:
            def counted(self, x, _name=name, _orig=getattr(Grid, name)):
                calls[_name] += 1
                return _orig(self, x)
            monkeypatch.setattr(Grid, name, counted)
        rep = norms.regularization_report(grid, f, t, sigma=sigma)
        assert calls == {"fft": 1, "ifft": 0}
        for got, want in ((rep.high_ratios, high), (rep.diff_ratios, diff)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        assert rep.c_high == np.max(rep.high_ratios) > 0
        assert rep.c_diff == np.max(rep.diff_ratios) > 0


class TestInterpNorm:
    def test_zero(self, grid2):
        assert norms.interp_norm(grid2, [], 2.0, 4.0) == 0.0

    def test_single_part_formula(self, grid2):
        f = gaussian(grid2)
        val = norms.interp_norm(grid2, [np.zeros_like(f), f], 2.0, 4.0)
        expect = 2.0 ** (2 * 3) * sp.hs_norm(grid2, f, -1.0) ** 2
        expect += 2.0 ** (-4) * sp.hs_norm(grid2, f, 4.0) ** 2
        assert abs(val - expect) / expect <= 1e-12

    def test_lp_decomposition_equivalent(self, grid2):
        f = gaussian(grid2)
        parts = [sp.lp_project(grid2, f, j, "S") for j in range(sp.num_bands(grid2) + 1)]
        val = norms.interp_norm(grid2, parts, 2.0, 5.0)
        ref = sp.hs_norm(grid2, f, 2.0) ** 2
        assert 1.0 / 16.0 <= val / ref <= 16.0

    def test_rejects_bad_orders(self, grid2):
        with pytest.raises(ValueError):
            norms.interp_norm(grid2, [], 4.0, 2.0)
