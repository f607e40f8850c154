"""Evolve the gauged quasilinear Schrodinger flow and watch the monitors.

The flat Laplacian is integrated exactly in Fourier space; the
quasilinear corrections are advanced by an explicit midpoint rule with
the gauge re-solved from psi at every stage.  Along the way we track
the covariant energies E^k, the dispersive accumulator, the constraint
residuals, and the metric evolution law d_t g = 2G.
"""

import numpy as np

from smcf import evolution as ev
from smcf import gauge_elliptic as ge
from smcf.spectral import Grid


def gaussian_psi(grid, amp=1e-2, width=0.6, wave=1):
    x = grid.coords()
    c = grid.length / 2.0
    r2 = sum((x[a] - c) ** 2 for a in range(grid.d))
    psi = amp * np.exp(-r2 / (2 * width**2)) * np.exp(1j * wave * (x[0] - c))
    return psi - np.mean(psi)


def main():
    grid = Grid(d=2, n=32)
    psi0 = gaussian_psi(grid)
    cfg = ev.EvolutionConfig(
        dt=0.025, t_end=0.5,
        elliptic=ge.EllipticConfig(smallness_threshold=0.25),
    )
    print("running the gauged flow to t = 0.5 ...")
    traj = ev.evolve(grid, psi0, cfg)

    print(f"\n{'t':>6} {'E0':>12} {'E2':>12} {'H^2 norm':>12} "
          f"{'strichartz':>12} {'max res':>10}")
    for i in range(0, len(traj.times), 4):
        print(f"{traj.times[i]:6.3f} {traj.energies[0][i]:12.5e} "
              f"{traj.energies[2][i]:12.5e} {traj.hs_norms[i]:12.5e} "
              f"{traj.strichartz[i]:12.5e} {traj.reports[i].max_l2():10.2e}")

    for k in (0, 1, 2):
        E = traj.energies[k]
        rho = traj.rho[k][np.isfinite(traj.rho[k])]
        print(f"E^{k} relative drift: {(E.max() - E.min()) / E[0]:.2e}; "
              f"max |rho| = {np.max(np.abs(rho)) if rho.size else 0:.3g} "
              f"(budget {cfg.c_e_budget:g})")

    dev = traj.metric_dev
    print(f"\nmetric vs integral of 2G, final deviation: {dev[-1]:.2e}")

    r = ev.difference_stability(grid, psi0, 1e-3 * psi0, cfg)
    print(f"H^-1 difference growth sup r(t) = {np.max(r):.3f} (budget 10)")

    diffs = ev.scattering_profile(traj, sample_times=[0.0, 0.25, 0.5])
    for ti, tj, d in diffs:
        print(f"free-profile Cauchy difference [{ti:.2f}, {tj:.2f}]: {d:.3e}")


if __name__ == "__main__":
    main()
