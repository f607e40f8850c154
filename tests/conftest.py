"""References shared by the test modules."""

import numpy as np
import pytest

from smcf.spectral import Grid


@pytest.fixture(scope="module")
def grid2():
    """The 32^2 grid most tests run on; a ``Grid`` is a frozen value, so
    one per module is shared."""
    return Grid(d=2, n=32)


def gaussian_psi(grid, amp=1e-2, width=0.6, wave=1):
    """Modulated Gaussian bump, mean-projected for torus compatibility."""
    x = grid.coords()
    c = grid.length / 2.0
    r2 = sum((x[a] - c) ** 2 for a in range(grid.d))
    psi = amp * np.exp(-r2 / (2 * width**2)) * np.exp(1j * wave * (x[0] - c))
    return psi - np.mean(psi)


def _flat_sobolev_norm(grid, T, k):
    """Flat counterpart of the intrinsic norm: sqrt(sum_{l<=k} ||d^l T||^2_{L2}).

    Computed Fourier-side with the weight sum_{l<=k} |xi|^{2l} (Parseval);
    this is the norm the intrinsic one degenerates to at g=I, A=0.
    """
    fh = grid.fft(np.asarray(T))
    w = sum(grid.full.k2**l for l in range(k + 1))
    total = np.sum(w * (fh * np.conj(fh)).real)
    return float(np.sqrt(total * grid.cell_volume / grid.n**grid.d))


@pytest.fixture
def flat_sobolev_norm():
    """``_flat_sobolev_norm``, the reference for ``geometry.intrinsic_norm``."""
    return _flat_sobolev_norm
