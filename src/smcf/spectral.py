"""Fourier calculus on a periodic box.

Everything downstream (tensor calculus, elliptic solves, time stepping)
is built on the operators in this module: spectral derivatives, the
mean-projected inverse Laplacian, Riesz transforms, Littlewood-Paley
band projections and Sobolev-weight multipliers.

Fields are plain numpy arrays whose *last* ``d`` axes are the spatial
grid; leading axes (tensor indices) broadcast through every operator,
so a ``(d, d, n, n)`` tensor field can be fed to ``derivative`` as-is.

Real and complex fields.  ``gradient``, ``hessian`` and
``inverse_laplacian`` (via ``spectrum``) send a complex field through
the full spectrum (``Grid.fft``) and a real one through the half
spectrum (``Grid.rfft``, ``numpy.fft.rfftn``), which costs roughly
half as much and returns float64.  A real result has to be the real part of
the complex one, so each half-spectrum multiplier is the Hermitian part
(M(k) + conj M(-k)) / 2 of the complex multiplier M.  On an even grid
the Nyquist index is its own negative, so this is where the two differ:

  * i k_a vanishes on the Nyquist plane of axis a;
  * -k_a k_b keeps its Nyquist value where a = b, or where both or
    neither of axes a and b are at Nyquist, and vanishes where exactly
    one of them is.

So a second derivative has to come from -k_a k_b directly: two real
first derivatives lose the diagonal Nyquist mode.  The transforms are
numpy's: ``scipy.fft`` is faster per transform, but importing it costs
about 0.35 s and 27 MiB of resident memory, more than the whole start-up
of an ``smcf`` process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "smooth_bump",
    "derivative",
    "gradient",
    "hessian",
    "spectrum",
    "Multipliers",
    "laplacian",
    "inverse_laplacian",
    "riesz",
    "lp_project",
    "num_bands",
    "sobolev_multiplier",
    "dealias",
    "field_mean",
    "l2_norm",
    "linf_norm",
    "lp_norm",
    "hs_norm",
]


class Multipliers:
    """The Fourier multipliers of the derivative operators on one spectrum,
    each built on first use, leading index axes first: ``ik`` is i k_a,
    shape (d,) + spectrum; ``kk`` is -k_a k_b, shape (d, d) + spectrum;
    ``inv_lap`` is -1/|k|^2, zero at k = 0.  On the half spectrum
    (``real``) they are the Hermitian parts of the full-spectrum ones (see
    the module docstring)."""

    def __init__(self, k: np.ndarray, real: bool):
        self.k = k  # wavenumber components on this spectrum, (d,) + spectrum
        self.real = real

    @functools.cached_property
    def _nyquist(self) -> np.ndarray:
        """Where each axis is at its Nyquist index, (d,) + spectrum."""
        return self.k == np.min(self.k)

    @functools.cached_property
    def ik(self) -> np.ndarray:
        k = np.where(self._nyquist, 0.0, self.k) if self.real else self.k
        return 1j * k

    @functools.cached_property
    def kk(self) -> np.ndarray:
        kk = -self.k[:, np.newaxis] * self.k[np.newaxis, :]
        if self.real:
            nyq = self._nyquist
            kk *= nyq[:, np.newaxis] == nyq[np.newaxis, :]
        return kk

    @functools.cached_property
    def inv_lap(self) -> np.ndarray:
        k2 = np.sum(self.k * self.k, axis=0)
        inv_lap = np.zeros_like(k2)
        nz = k2 > 0
        inv_lap[nz] = -1.0 / k2[nz]
        return inv_lap


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the torus [0, L)^d.

    ``n`` points per axis (even, at least 8, FFT-friendly: prime
    factors 2, 3, 5 only), side length
    ``length`` (default 2*pi).  Wavenumbers are the integer lattice
    scaled by 2*pi/L.
    """

    d: int
    n: int
    length: float = 2.0 * np.pi
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.d <= 4:
            raise ValueError(f"dimension must be 1..4, got {self.d}")
        m = self.n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if self.n < 8 or self.n % 2 != 0 or m != 1:
            raise ValueError(
                f"points per axis must be even, >= 8, with prime factors in "
                f"{{2, 3, 5}}, got {self.n}"
            )
        if self.length <= 0:
            raise ValueError("box length must be positive")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def cell_volume(self) -> float:
        return self.dx**self.d

    @property
    def volume(self) -> float:
        return self.length**self.d

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def coords(self) -> np.ndarray:
        """Coordinate arrays, shape (d,) + shape."""
        x = self.axis_coords()
        mesh = np.meshgrid(*([x] * self.d), indexing="ij")
        return np.stack(mesh)

    def wavenumbers(self) -> np.ndarray:
        """Wavenumber component arrays, shape (d,) + shape."""
        if "k" not in self._cache:
            k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
            mesh = np.meshgrid(*([k1] * self.d), indexing="ij")
            self._cache["k"] = np.stack(mesh)
        return self._cache["k"]

    def k_squared(self) -> np.ndarray:
        if "k2" not in self._cache:
            k = self.wavenumbers()
            self._cache["k2"] = np.sum(k * k, axis=0)
        return self._cache["k2"]

    def k_abs(self) -> np.ndarray:
        if "kabs" not in self._cache:
            self._cache["kabs"] = np.sqrt(self.k_squared())
        return self._cache["kabs"]

    @property
    def spatial_axes(self) -> tuple:
        return tuple(range(-self.d, 0))

    # The d-dimensional transforms run axis by axis, as numpy.fft.fftn
    # does, but only the first pass allocates: the others write into its
    # result, which spares a fresh array (and its page faults) per axis.

    def fft(self, f: np.ndarray) -> np.ndarray:
        fh = np.fft.fft(f, axis=-1)
        for ax in range(-self.d, -1):
            np.fft.fft(fh, axis=ax, out=fh)
        return fh

    def ifft(self, fh: np.ndarray) -> np.ndarray:
        f = np.fft.ifft(fh, axis=-self.d)
        for ax in range(1 - self.d, 0):
            np.fft.ifft(f, axis=ax, out=f)
        return f

    def rfft(self, f: np.ndarray) -> np.ndarray:
        """Half spectrum of a real field: the last spatial axis keeps
        modes 0..n/2."""
        fh = np.fft.rfft(f, axis=-1)
        for ax in range(-self.d, -1):
            np.fft.fft(fh, axis=ax, out=fh)
        return fh

    def irfft(self, fh: np.ndarray) -> np.ndarray:
        """The real field with half spectrum ``fh``."""
        if self.d > 1:
            fh = np.fft.ifft(fh, axis=-self.d)
            for ax in range(1 - self.d, -1):
                np.fft.ifft(fh, axis=ax, out=fh)
        return np.fft.irfft(fh, self.n, axis=-1)

    def multipliers(self, real: bool) -> Multipliers:
        """The derivative multipliers on the full spectrum, or with
        ``real`` on the half spectrum of ``rfft``."""
        key = "half" if real else "full"
        if key not in self._cache:
            k = self.wavenumbers()
            self._cache[key] = Multipliers(k[..., : self.n // 2 + 1] if real else k, real)
        return self._cache[key]


def _check_axis(grid: Grid, axis: int) -> None:
    if not 0 <= axis < grid.d:
        raise ValueError(f"axis {axis} out of range for dimension {grid.d}")


def derivative(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """Spectral partial derivative along a spatial axis (multiplier i*xi)."""
    _check_axis(grid, axis)
    k = grid.wavenumbers()[axis]
    return grid.ifft(1j * k * grid.fft(f))


def spectrum(grid: Grid, f: np.ndarray, fh: np.ndarray | None = None):
    """(fh, multipliers, inverse transform) for applying multipliers to f.

    A real f gets its half spectrum, the Hermitian-part multipliers and
    ``Grid.irfft``; a complex f its full spectrum, the plain multipliers
    and ``Grid.ifft``.  Pass ``fh`` if the caller already holds that
    transform of f.
    """
    real = not np.iscomplexobj(f)
    if fh is None:
        fh = grid.rfft(f) if real else grid.fft(f)
    return fh, grid.multipliers(real), grid.irfft if real else grid.ifft


def _broadcast(grid: Grid, mult: np.ndarray, fh: np.ndarray) -> np.ndarray:
    """``mult`` (index axes + spectrum) shaped to multiply a stack of ``fh``."""
    index = mult.shape[: mult.ndim - grid.d]
    lead = (1,) * (fh.ndim - grid.d)
    return mult.reshape(index + lead + mult.shape[len(index):])


def gradient(grid: Grid, f: np.ndarray, fh: np.ndarray | None = None) -> np.ndarray:
    """All partial derivatives, stacked on a new leading axis: one
    forward and one batched inverse transform (``fh`` as in ``spectrum``)."""
    fh, mult, inverse = spectrum(grid, f, fh)
    return inverse(_broadcast(grid, mult.ik, fh) * fh)


def hessian(grid: Grid, f: np.ndarray, fh: np.ndarray | None = None) -> np.ndarray:
    """All second partial derivatives d_a d_b f, shape (d, d) + f.shape,
    from the -k_a k_b multiplier (``fh`` as in ``spectrum``)."""
    fh, mult, inverse = spectrum(grid, f, fh)
    return inverse(_broadcast(grid, mult.kk, fh) * fh)


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    return grid.ifft(-grid.k_squared() * grid.fft(f))


def inverse_laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Solve Delta u = f - mean(f) with mean(u) = 0.

    The constant mode lies in the kernel of the torus Laplacian, so its
    contribution to ``f`` is discarded (``field_mean`` gives it).
    """
    fh, mult, inverse = spectrum(grid, f)
    return inverse(mult.inv_lap * fh)


def riesz(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """Riesz transform: multiplier xi_axis/|xi|, zero frequency mapped to 0."""
    _check_axis(grid, axis)
    k = grid.wavenumbers()[axis]
    kabs = grid.k_abs()
    mult = np.zeros_like(kabs)
    nz = kabs > 0
    mult[nz] = k[nz] / kabs[nz]
    return grid.ifft(mult * grid.fft(f))


def smooth_bump(r: np.ndarray) -> np.ndarray:
    """The frozen radial C-infinity cutoff phi.

    Equal to 1 for r <= 1, 0 for r >= 2, with the standard
    exp(-1/t)-based smooth step in between.  All Littlewood-Paley
    envelope and norm-equivalence constants in this package depend on
    this one function; it is deliberately defined in exactly one place.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[r <= 1.0] = 1.0
    mid = (r > 1.0) & (r < 2.0)
    t = 2.0 - r[mid]  # in (0, 1); t -> 1 near r=1
    a = np.exp(-1.0 / t)
    b = np.exp(-1.0 / (1.0 - t))
    out[mid] = a / (a + b)
    return out


def num_bands(grid: Grid) -> int:
    """Smallest J with every grid frequency inside the support of S_0..S_J."""
    kmax = float(np.max(grid.k_abs()))
    j = 0
    while 2.0**j < kmax:
        j += 1
    return j + 1


def _band_multiplier(grid: Grid, j: int, kind: str) -> np.ndarray:
    kabs = grid.k_abs()
    if kind == "P":
        return smooth_bump(kabs / 2.0**j) - smooth_bump(kabs / 2.0 ** (j - 1))
    if kind == "S":
        if j < 0:
            raise ValueError("band index must be >= 0 for S_j")
        if j == 0:
            return smooth_bump(kabs)
        return smooth_bump(kabs / 2.0**j) - smooth_bump(kabs / 2.0 ** (j - 1))
    if kind == "S_le":
        if j < 0:
            raise ValueError("band index must be >= 0 for S_{<=j}")
        return smooth_bump(kabs / 2.0**j)
    raise ValueError(f"unknown projection kind {kind!r}")


def lp_project(grid: Grid, f: np.ndarray, j: int, kind: str = "S") -> np.ndarray:
    """Littlewood-Paley projection.

    ``kind`` selects P_j (dyadic annulus, any integer j), S_j (S_0
    collects all bands j <= 0) or S_le (the cumulative S_{<=j}).
    """
    return grid.ifft(_band_multiplier(grid, j, kind) * grid.fft(f))


def sobolev_multiplier(grid: Grid, f: np.ndarray, s: float, kind: str = "bessel"):
    """Apply <D>^s (kind='bessel') or |D|^s (kind='riesz').

    For |D|^s the zero frequency is always mapped to zero; with s < 0
    this discards the mean, which is the same torus-kernel convention
    as ``inverse_laplacian``.
    """
    k2 = grid.k_squared()
    if kind == "bessel":
        mult = (1.0 + k2) ** (s / 2.0)
    elif kind == "riesz":
        mult = np.zeros_like(k2)
        nz = k2 > 0
        mult[nz] = k2[nz] ** (s / 2.0)
    else:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    return grid.ifft(mult * grid.fft(f))


def dealias(grid: Grid, f: np.ndarray) -> np.ndarray:
    """2/3-rule truncation: zero all modes with any |k_axis| > n/3 * (2pi/L)."""
    fh = grid.fft(f)
    cutoff = (grid.n // 3) * (2.0 * np.pi / grid.length)
    k = grid.wavenumbers()
    mask = np.all(np.abs(k) <= cutoff + 1e-12, axis=0)
    return grid.ifft(mask * fh)


def field_mean(grid: Grid, f: np.ndarray):
    return np.mean(f, axis=grid.spatial_axes)


def _abs2(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Pointwise squared magnitude, tensor indices (leading axes) contracted flat."""
    a2 = f.real**2 + f.imag**2 if np.iscomplexobj(f) else f * f
    extra = a2.ndim - grid.d
    if extra > 0:
        a2 = a2.sum(axis=tuple(range(extra)))
    return a2


def l2_norm(grid: Grid, f: np.ndarray) -> float:
    """L^2(dx) norm; leading tensor axes are contracted with the flat metric."""
    return float(np.sqrt(np.sum(_abs2(f, grid)) * grid.cell_volume))


def linf_norm(grid: Grid, f: np.ndarray) -> float:
    return float(np.sqrt(np.max(_abs2(f, grid))))


def lp_norm(grid: Grid, f: np.ndarray, p: float) -> float:
    """L^p(dx) norm of the pointwise (flat) magnitude; p=inf gives the sup."""
    mag = np.sqrt(_abs2(f, grid))
    if np.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * grid.cell_volume) ** (1.0 / p))


def hs_norm(grid: Grid, f: np.ndarray, s: float) -> float:
    """Flat Sobolev norm ||<D>^s f||_{L^2}, computed Fourier-side."""
    fh = grid.fft(f)
    w = (1.0 + grid.k_squared()) ** s
    total = np.sum(w * (fh * np.conj(fh)).real)
    # Parseval: sum |fh|^2 * cell_volume / n^d  ==  integral |f|^2 dx
    return float(np.sqrt(total * grid.cell_volume / grid.n**grid.d))
