"""References shared by the test modules."""

import numpy as np
import pytest


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
