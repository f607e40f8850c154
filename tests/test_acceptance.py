"""End-to-end acceptance checks.

These run real simulations (several minutes total) and assert the
headline quantitative properties of the solver: elliptic solvability
with small residuals, flat linear response, intrinsic/flat norm
equivalence, bounded energy growth, constraint propagation, soliton
motion of the immersion integrator, gauge-vs-immersion agreement,
exponent arithmetic, rough-data machinery, scattering profiles, and
difference stability.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from smcf import evolution as ev
from smcf import gauge_elliptic as ge
from smcf import geometry as geo
from smcf import immersion as im
from smcf import norms as nrm
from smcf import spectral as sp
from smcf.spectral import Grid


def gaussian_psi(grid, amp=1e-2, width=0.6, wave=1):
    x = grid.coords()
    c = grid.length / 2.0
    r2 = sum((x[a] - c) ** 2 for a in range(grid.d))
    psi = amp * np.exp(-r2 / (2 * width**2)) * np.exp(1j * wave * (x[0] - c))
    return psi - np.mean(psi)


ECFG = ge.EllipticConfig(smallness_threshold=0.25)
ECFG_WIDE = ge.EllipticConfig(smallness_threshold=0.5)


@pytest.fixture(scope="module")
def grid2():
    return Grid(d=2, n=32)


@pytest.fixture(scope="module")
def psi0(grid2):
    return gaussian_psi(grid2)


@pytest.fixture(scope="module")
def converged2(grid2, psi0):
    return ge.solve_elliptic_system(grid2, psi0, ECFG)


@pytest.fixture(scope="module")
def ref_traj(grid2, psi0):
    cfg = ev.EvolutionConfig(dt=0.025, t_end=1.0, elliptic=ECFG)
    return ev.evolve(grid2, psi0, cfg)


class TestEllipticSolvability:
    def test_d2_and_d3_converge_small_residuals(self, converged2):
        rep2 = converged2.diagnostics["residuals"]
        assert rep2.max_l2() <= 1e-8
        assert rep2.max_linf() <= 1e-8

        grid3 = Grid(d=3, n=24)
        t0 = time.time()
        st3 = ge.solve_elliptic_system(grid3, gaussian_psi(grid3), ECFG)
        assert time.time() - t0 <= 60.0
        rep3 = st3.diagnostics["residuals"]
        assert rep3.max_l2() <= 1e-8
        assert rep3.max_linf() <= 1e-8

    def test_d4_smoke(self):
        grid4 = Grid(d=4, n=16)
        st4 = ge.solve_elliptic_system(grid4, gaussian_psi(grid4), ECFG_WIDE)
        rep4 = st4.diagnostics["residuals"]
        assert rep4.max_l2() <= 1e-6
        assert rep4.max_linf() <= 1e-6


class TestLinearResponse:
    def test_ratio_flat_over_amplitude_sweep(self, grid2):
        base = gaussian_psi(grid2, amp=1.0)
        ratios = []
        for eps in (1e-3, 3e-3, 1e-2, 3e-2):
            st = ge.solve_elliptic_system(grid2, eps * base, ECFG)
            ratios.append(
                sp.hs_norm(grid2, st.lam, 2.0) / sp.hs_norm(grid2, st.psi, 2.0)
            )
        assert max(ratios) / min(ratios) <= 2.0

    def test_linearization_richardson_consistency(self, grid2, psi0):
        dpsi = gaussian_psi(grid2, amp=1e-2, width=0.8, wave=2)
        r1 = ge.linearize_fd(grid2, psi0, dpsi, ECFG)
        r2 = ge.linearize_fd(grid2, psi0, dpsi, ECFG, tau=r1.tau / 2)
        scale = np.max(np.abs(r1.dlam))
        assert np.max(np.abs(r1.dlam - r2.dlam)) / scale <= 1e-6


class TestNormEquivalence:
    def test_intrinsic_vs_flat_on_random_tensors(self, grid2, converged2):
        rng = np.random.default_rng(7)
        decay = np.exp(-0.5 * grid2.k_squared() / 9.0)
        for _ in range(20):
            T = np.empty((2, 2) + grid2.shape, complex)
            for a in range(2):
                for b in range(2):
                    noise = (rng.standard_normal(grid2.shape)
                             + 1j * rng.standard_normal(grid2.shape))
                    T[a, b] = grid2.ifft(decay * grid2.fft(noise))
            for k in range(4):
                ratio = (
                    geo.intrinsic_norm(grid2, T, 0, 2, converged2.metric,
                                       converged2.A, k)
                    / sp.flat_sobolev_norm(grid2, T, k)
                )
                assert 0.9 <= ratio <= 1.1


class TestEnergyLaw:
    def test_growth_ratio_bounded_and_drift_small(self, ref_traj):
        cfg = ref_traj.config
        active = ref_traj.lam_linf[:-1] > 1e-6
        for k in (0, 1, 2):
            rho = ref_traj.rho[k][active]
            rho = rho[np.isfinite(rho)]
            assert np.all(np.abs(rho) <= cfg.c_e_budget)
            E = ref_traj.energies[k]
            assert (E.max() - E.min()) / E[0] <= 0.10

    def test_trivial_gauge_conserves_l2(self, grid2, psi0):
        cfg = ev.EvolutionConfig(dt=0.05, t_end=1.0, trivial_gauge=True,
                                 elliptic=ECFG)
        traj = ev.evolve(grid2, psi0, cfg)
        l2 = [sp.l2_norm(grid2, p) for p in traj.psis]
        assert max(l2) - min(l2) <= 1e-10


class TestConstraintPropagation:
    def test_residuals_stay_small_and_drift_converges(self, grid2, psi0,
                                                      ref_traj):
        assert ref_traj.reports[0].max_l2() <= 1e-8
        assert max(r.max_l2() for r in ref_traj.reports) <= 1e-6
        drift = ev.metric_consistency(ref_traj)[-1]
        assert drift <= 1e-6
        half = ev.evolve(grid2, psi0, ev.EvolutionConfig(
            dt=0.0125, t_end=1.0, elliptic=ECFG))
        drift_half = ev.metric_consistency(half)[-1]
        assert drift / drift_half >= 3.0


class TestOracleSolitons:
    def test_circle_translates_at_1_over_r(self):
        r, t_end, dt = 2.0, 1.0, 5e-3
        t0 = time.time()
        state = im.circle_state(n=64, radius=r)
        start = state
        for _ in range(round(t_end / dt)):
            state = im.smcf_step(state, dt)
        assert time.time() - t0 <= 30.0
        disp = (state.F - start.F).reshape(3, -1).mean(axis=1)
        speed = np.linalg.norm(disp) / t_end
        assert abs(speed - 1.0 / r) <= 1e-4
        rad = np.sqrt(state.F[0] ** 2 + state.F[1] ** 2)
        assert np.max(np.abs(rad - r)) <= 1e-5

    def test_sphere_translates_at_2_over_r(self):
        r, t_end, dt = 2.0, 1.0, 5e-3
        t0 = time.time()
        state = im.sphere_state(n=16, radius=r)
        start = state
        for _ in range(round(t_end / dt)):
            state = im.smcf_step(state, dt)
        assert time.time() - t0 <= 30.0
        disp = (state.F - start.F).reshape(4, -1).mean(axis=1)
        speed = np.linalg.norm(disp) / t_end
        assert abs(speed - 2.0 / r) <= 1e-4
        ctr = disp.reshape(4, 1, 1)
        rad = np.sqrt(np.einsum("i...,i...->...", state.F - ctr,
                                state.F - ctr))
        assert np.max(np.abs(rad - r)) <= 1e-5


class TestGaugeVsImmersion:
    def test_discrepancy_small_with_joint_convergence(self, grid2, psi0):
        base = im.oracle_compare(grid2, psi0, im.OracleConfig(
            t_end=0.1, dt_gauge=0.05, dt_immersion=0.004,
            elliptic=ECFG_WIDE))
        half = im.oracle_compare(grid2, psi0, im.OracleConfig(
            t_end=0.1, dt_gauge=0.025, dt_immersion=0.002,
            elliptic=ECFG_WIDE))
        assert base.discrepancy <= 1e-4
        assert half.discrepancy <= 1e-4
        # Richardson self-convergence of the joint dt-dependent part:
        # the gauge split-step is second order and the immersion RK4
        # fourth order, so halving both steps shrinks R = aligned - gauge
        # by 4x to 16x against a fine reference.  The dt-independent
        # floors (construction residual, torus metric zero mode) are the
        # same in all three runs and cancel in R_j - R_ref.
        ref = im.oracle_compare(grid2, psi0, im.OracleConfig(
            t_end=0.1, dt_gauge=0.00625, dt_immersion=0.0005,
            elliptic=ECFG_WIDE))

        def residual(rep):
            return rep.psi_aligned - rep.psi_gauge

        e_base = sp.l2_norm(grid2, residual(base) - residual(ref))
        e_half = sp.l2_norm(grid2, residual(half) - residual(ref))
        assert 3.0 <= e_base / e_half <= 17.0


class TestExponentArithmetic:
    def test_exhaustive_d4_to_d12(self):
        t0 = time.time()
        for d in range(4, 13):
            t = nrm.exponents(d)
            assert t.r_d == Fraction(2 * d * (d - 1), (d - 2) ** 2)
            if d == 4:
                assert t.s_d >= 3
            else:
                assert t.s_d > (d + 1) / 2 + 1 / (2 * (d - 1))
            assert t.sigma_d > d / t.r_d
            q_e, r_e = t.endpoint
            rep = nrm.pair_check(q_e, r_e, q_e, r_e, d)
            assert rep.admissible and rep.admissible_dual
        proof = nrm.pair_check(2, 6, 2, 3, 4)
        assert proof.acceptable and proof.acceptable_dual and proof.scaling
        assert proof.inhomogeneous_case == "endpoint"
        assert time.time() - t0 < 1.0


class TestRoughDataMachinery:
    def _corpus(self, grid):
        rng = np.random.default_rng(11)
        table = nrm.exponents(grid.d)
        out = []
        for _ in range(10):
            noise = (rng.standard_normal(grid.shape)
                     + 1j * rng.standard_normal(grid.shape))
            f = grid.ifft(
                np.exp(-0.5 * grid.k_squared() / rng.uniform(4, 25))
                * grid.fft(noise)
            )
            out.append(1e-2 * f / sp.hs_norm(grid, f, table.s_d))
        return table, out

    def test_envelopes_and_regularization(self, grid2):
        table, corpus = self._corpus(grid2)
        for f in corpus:
            env = nrm.frequency_envelope(grid2, f, table)
            assert np.all(env.band_norms <= env.c + 1e-15)
            c = env.c
            for j in range(len(c)):
                for k in range(len(c)):
                    assert c[j] <= 2 ** (env.delta * abs(j - k)) * c[k] + 1e-15
            rep = nrm.regularization_report(grid2, f, table)
            assert rep.c_high <= 4.0
            assert rep.c_diff <= 4.0

    def test_interpolation_functional_equivalent(self, grid2):
        _, corpus = self._corpus(grid2)
        for f in corpus:
            parts = [sp.lp_project(grid2, f, j, "S")
                     for j in range(sp.num_bands(grid2) + 1)]
            ratio = (nrm.interp_norm(grid2, parts, 2.0, 5.0)
                     / sp.hs_norm(grid2, f, 2.0) ** 2)
            assert 1.0 / 16.0 <= ratio <= 16.0


class TestScatteringProfile:
    def test_dyadic_cauchy_differences_decrease(self, grid2, psi0):
        cfg = ev.EvolutionConfig(dt=0.05, t_end=4.0, elliptic=ECFG)
        traj = ev.evolve(grid2, psi0, cfg)
        diffs = ev.scattering_profile(traj, sample_times=[0.5, 1.0, 2.0, 4.0])
        values = [d for _, _, d in diffs]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestDifferenceStability:
    def test_bounded_growth_on_reference_run(self, grid2, psi0):
        cfg = ev.EvolutionConfig(dt=0.025, t_end=1.0, elliptic=ECFG)
        r = ev.difference_stability(grid2, psi0, 1e-3 * psi0, cfg)
        assert np.max(r) <= 10.0

    def test_trivial_gauge_exact_isometry(self, grid2, psi0):
        cfg = ev.EvolutionConfig(dt=0.05, t_end=1.0, trivial_gauge=True,
                                 elliptic=ECFG)
        dpsi = 1e-3 * gaussian_psi(grid2, width=0.8, wave=2)
        r = ev.difference_stability(grid2, psi0, dpsi, cfg)
        assert np.max(np.abs(r - 1.0)) <= 1e-10
