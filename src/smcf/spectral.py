"""Fourier calculus on a periodic box.

This is the one module that transforms a field or reads a wavenumber
or multiplier; everything downstream (tensor calculus, elliptic solves,
time stepping, the immersion oracle) is built on its operators:
spectral derivatives, the principal part coeff^{ab} d_a d_b
(``hessian_trace``), the mean-projected inverse Laplacian, the flat
div-curl solve (``hodge_solve``, its curl given on the pairs a < b) and
the torus zero-mode rule (``mean_zero``), Riesz transforms,
Littlewood-Paley band projections, Sobolev-weight multipliers and
norms, the exact flat flow (``free_flow``), translations, the
Nyquist-plane rules below (``drop_nyquist``) and off-grid evaluation
(``trig_interp``).

Fields are plain numpy arrays whose *last* ``d`` axes are the spatial
grid; leading axes (tensor indices) broadcast through every operator,
so a ``(d, d, n, n)`` tensor field can be fed to ``gradient`` as-is.

Real and complex fields.  A first derivative d_a f is one 1-D
transform pair along axis a only (``gradient``): ``numpy.fft.rfft`` and
``irfft`` for a real field, which return float64, ``fft`` and ``ifft``
for a complex one.  ``divergence`` forms sum_a d_a T[a] from one such
pair per a, and ``_derivatives_sym`` differentiates a stack symmetric
in its first two index axes (a metric, its inverse, lambda) one axis at
a time, from its d(d+1)/2 entries a <= b.  The operators on
``spectrum`` (``hessian``, ``hessian_trace``, ``hodge_solve``,
``inverse_laplacian``) use the full d-dimensional spectrum
(``Grid.fft``, multipliers on ``Grid.full``) for a complex field and
the half one (``Grid.rfft`` and ``Grid.half``), which costs roughly
half as much, for a real one.  ``hessian_sums`` forms sums of
second derivatives of a real symmetric stack (the metric, for the
Riemann tensor) on the half spectrum, one inverse transform per sum.
A real result has to be the real part of the complex one, so each
real-field multiplier is the Hermitian part (M(k) + conj M(-k)) / 2 of
the complex multiplier M.  On an even grid the Nyquist index is its own
negative, so this is where the two differ:

  * i k_a vanishes on the Nyquist plane of axis a (the Nyquist entry of
    the 1-D multiplier of a real field is zero);
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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "smooth_bump",
    "gradient",
    "divergence",
    "hessian",
    "hessian_sums",
    "hessian_trace",
    "hodge_solve",
    "laplacian",
    "inverse_laplacian",
    "riesz",
    "riesz_pairs",
    "lp_project",
    "lp_bands",
    "band_hs_norms",
    "num_bands",
    "sobolev_multiplier",
    "free_flow",
    "translate",
    "drop_nyquist",
    "trig_interp",
    "field_mean",
    "mean_zero",
    "l2_norm",
    "linf_norm",
    "lp_norm",
    "hs_norm",
]


class Spectrum:
    """The wavenumbers and multipliers of one transform, each built on
    first use, leading index axes first: ``Grid.full`` for ``Grid.fft``,
    ``Grid.half`` for ``Grid.rfft`` (last axis cut after mode n/2).  ``ik``
    is i k_a, (d,) + spectrum; ``kk`` is -k_a k_b, (d, d) + spectrum;
    ``inv_lap`` is -1/|k|^2, zero at k = 0.  On the half spectrum ``ik``
    and ``kk`` are the Hermitian parts of the full ones (see the module
    docstring)."""

    def __init__(self, k: np.ndarray, half: bool):
        self.k = k  # wavenumber components, (d,) + spectrum
        self.half = half

    @property
    def line(self) -> np.ndarray:
        """The last axis's 1-D wavenumbers, 2 pi/L times 0, 1, ..., -n/2, ..., -1."""
        return self.k[(-1,) + (0,) * (len(self.k) - 1)]

    @functools.cached_property
    def nyquist(self) -> np.ndarray:
        """Where each axis is at its Nyquist index, (d,) + spectrum."""
        return self.k == np.min(self.line)

    @functools.cached_property
    def ik(self) -> np.ndarray:
        return 1j * (np.where(self.nyquist, 0.0, self.k) if self.half else self.k)

    @functools.cached_property
    def axis_ik(self) -> list:
        """The 1-D i k of each axis a, shaped (m,) + (1,) * (d-1-a) to
        multiply a 1-D transform along spatial axis a (``gradient``): on
        the half line of ``rfft`` its Nyquist entry is zero, as in ``ik``."""
        d = len(self.k)
        line = self.ik[(-1,) + (0,) * (d - 1)]
        return [line.reshape((-1,) + (1,) * (d - 1 - a)) for a in range(d)]

    @functools.cached_property
    def kk(self) -> np.ndarray:
        kk = -self.k[:, np.newaxis] * self.k[np.newaxis, :]
        if self.half:
            kk *= self.nyquist[:, np.newaxis] == self.nyquist[np.newaxis, :]
        return kk

    @functools.cached_property
    def k2(self) -> np.ndarray:
        return np.sum(self.k * self.k, axis=0)

    @functools.cached_property
    def k_abs(self) -> np.ndarray:
        return np.sqrt(self.k2)

    @functools.cached_property
    def inv_lap(self) -> np.ndarray:
        return np.divide(-1.0, self.k2, out=np.zeros_like(self.k2), where=self.k2 > 0)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the torus [0, L)^d.

    ``n`` points per axis (even, at least 8, FFT-friendly: prime
    factors 2, 3, 5 only), side length
    ``length`` (default 2*pi).  Wavenumbers are the integer lattice
    scaled by 2*pi/L; ``full`` and ``half`` hold them and the multipliers
    built from them.
    """

    d: int
    n: int
    length: float = 2.0 * np.pi

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
        if not 0 < self.length < np.inf:
            raise ValueError(f"box length must be finite and > 0, got {self.length}")

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

    def coords(self) -> np.ndarray:
        """Coordinate arrays, shape (d,) + shape."""
        x = np.arange(self.n) * self.dx
        mesh = np.meshgrid(*([x] * self.d), indexing="ij")
        return np.stack(mesh)

    @functools.cached_property
    def full(self) -> Spectrum:
        """The spectrum of ``fft``."""
        line = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        return Spectrum(np.stack(np.meshgrid(*[line] * self.d, indexing="ij")), False)

    @functools.cached_property
    def half(self) -> Spectrum:
        """The spectrum of ``rfft``: a view of the full wavenumbers."""
        return Spectrum(self.full.k[..., : self.n // 2 + 1], True)

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


def spectrum(grid: Grid, f: np.ndarray):
    """(fh, ``Spectrum``, inverse transform) for applying multipliers to f.

    A real f gets its half spectrum, ``Grid.half`` and ``Grid.irfft``; a
    complex f its full spectrum, ``Grid.full`` and ``Grid.ifft``.  The
    transforms are looked up on every call, never stored.
    """
    real = not np.iscomplexobj(f)
    fh = grid.rfft(f) if real else grid.fft(f)
    return fh, grid.half if real else grid.full, grid.irfft if real else grid.ifft


def _broadcast(grid: Grid, mult: np.ndarray, fh: np.ndarray) -> np.ndarray:
    """``mult`` (index axes + spectrum) shaped to multiply a stack of ``fh``."""
    index = mult.shape[: mult.ndim - grid.d]
    lead = (1,) * (fh.ndim - grid.d)
    return mult.reshape(index + lead + mult.shape[len(index):])


def _derivative(grid: Grid, f: np.ndarray, a: int, out=None) -> np.ndarray:
    """d_a f: one 1-D transform pair along spatial axis a, into ``out``
    if given."""
    real = not np.iscomplexobj(f)
    fwd, inv = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    fh = fwd(f, axis=a - grid.d)
    fh *= (grid.half if real else grid.full).axis_ik[a]
    return inv(fh, grid.n, axis=a - grid.d, out=out)


def gradient(grid: Grid, f: np.ndarray) -> np.ndarray:
    """All partial derivatives, stacked on a new leading axis: d_a f is
    one 1-D transform pair along axis a, written into row a."""
    out = np.empty((grid.d,) + np.shape(f), dtype=complex if np.iscomplexobj(f) else float)
    for a in range(grid.d):
        _derivative(grid, f, a, out[a])
    return out


def _derivatives_sym(grid: Grid, f: np.ndarray):
    """The derivatives of a stack symmetric in its two leading index axes,
    f[a, b] = f[b, a], one axis at a time: yields d_0 f, ..., d_{d-1} f,
    each from the d(d+1)/2 entries a <= b, mirrored into (b, a).  Each
    row is written over the last in one buffer of f's shape, so no
    (d,) + f.shape stack is formed.  A row is therefore valid only until
    the next one is asked for: use it, or copy it, before then."""
    out = np.empty(np.shape(f), dtype=complex if np.iscomplexobj(f) else float)
    for c in range(grid.d):
        for a in range(len(f)):
            for b in range(a, len(f)):
                _derivative(grid, f[a, b], c, out[a, b])
                if b > a:
                    out[b, a] = out[a, b]
        yield out


def divergence(grid: Grid, T: np.ndarray) -> np.ndarray:
    """sum_a d_a T[a]: one 1-D transform pair of T[a] along axis a per a,
    under ``gradient``'s Nyquist rule; the axes of T after the first one
    are kept."""
    out = np.zeros(np.shape(T)[1:], dtype=complex if np.iscomplexobj(T) else float)
    for a in range(grid.d):
        out += _derivative(grid, T[a], a)
    return out


def hessian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """All second partial derivatives d_a d_b f, shape (d, d) + f.shape,
    from the -k_a k_b multiplier."""
    fh, spec, inverse = spectrum(grid, f)
    return inverse(_broadcast(grid, spec.kk, fh) * fh)


def hessian_sums(grid: Grid, f: np.ndarray, rows) -> np.ndarray:
    """Sums of second derivatives of a real stack f symmetric in its two
    leading index axes: row r of ``rows`` lists terms (c, a, b, i, j),
    and entry r of the result is sum c d_a d_b f[i, j].  The d(d+1)/2
    entries i <= j are transformed once, and each row is one inverse
    transform, under ``kk``'s half-spectrum Nyquist rule."""
    i, j = np.triu_indices(len(f))
    fh = grid.rfft(f[i, j])
    at = np.empty((len(f), len(f)), dtype=int)
    at[i, j] = at[j, i] = np.arange(len(i))
    kk = grid.half.kk
    out = np.empty((len(rows),) + grid.shape)
    for r, row in enumerate(rows):
        out[r] = grid.irfft(sum(c * kk[a, b] * fh[at[p, q]] for c, a, b, p, q in row))
    return out


def hessian_trace(grid: Grid, coeff: np.ndarray, f: np.ndarray) -> np.ndarray:
    """coeff^{ab} d_a d_b f for a symmetric (d, d) + grid coefficient,
    summed over a <= b with weight 2 off the diagonal: one inverse
    transform per pair, and no (d, d) Hessian stack.  Real for a real f,
    complex for a complex one; leading axes of f broadcast."""
    fh, spec, inverse = spectrum(grid, f)
    acc = np.zeros(f.shape, dtype=complex if np.iscomplexobj(f) else float)
    for a in range(grid.d):
        for b in range(a, grid.d):
            fac = 1.0 if a == b else 2.0
            acc += fac * coeff[a, b] * inverse(spec.kk[a, b] * fh)
    return acc


def hodge_solve(grid: Grid, curl: np.ndarray, div: np.ndarray) -> np.ndarray:
    """Flat div-curl solve: d_a u_b - d_b u_a = curl_p for each pair
    p = (a, b), a < b, in ``np.triu_indices(d, 1)`` order, and
    d_a u_a = div.

    Frequency-wise u_b = -(i xi_b div + sum_a i xi_a curl_ab) / |xi|^2,
    curl_ba = -curl_ab, the zero mode dropped (torus kernel).  Axes of
    curl after the pair axis, and the matching leading axes of div, are
    solved side by side; real data on the half spectrum.  The curl is
    transformed pair by pair into the numerator, so no spectrum of the
    whole curl is held."""
    cast = np.iscomplexobj(curl) or np.iscomplexobj(div)
    Dh, spec, inverse = spectrum(grid, div.astype(complex, copy=False) if cast else div)
    num = _broadcast(grid, spec.ik, Dh) * Dh
    del Dh
    for p, (a, b) in enumerate(zip(*np.triu_indices(grid.d, 1))):
        Ch = spectrum(grid, curl[p].astype(complex, copy=False) if cast else curl[p])[0]
        num[b] += spec.ik[a] * Ch
        num[a] -= spec.ik[b] * Ch
    num *= spec.inv_lap
    return inverse(num)


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    return grid.ifft(-grid.full.k2 * grid.fft(f))


def inverse_laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Solve Delta u = f - mean(f) with mean(u) = 0.

    The constant mode lies in the kernel of the torus Laplacian, so its
    contribution to ``f`` is discarded (``field_mean`` gives it).
    """
    fh, spec, inverse = spectrum(grid, f)
    return inverse(spec.inv_lap * fh)


def riesz(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """Riesz transform: multiplier xi_axis/|xi|, zero frequency mapped to 0."""
    if not 0 <= axis < grid.d:
        raise ValueError(f"axis {axis} out of range for dimension {grid.d}")
    return grid.ifft(grid.full.k[axis] * np.sqrt(-grid.full.inv_lap) * grid.fft(f))


def riesz_pairs(grid: Grid, f: np.ndarray) -> np.ndarray:
    """R_a R_b f for every pair of axes, shape (d, d) + f.shape: the
    multiplier k_a k_b / |k|^2, zero at k = 0.  At g = I, A = 0 this is
    the closed-form solution of the div-curl system for lambda.  Formed
    from ``ik`` (i k_a i k_b = -k_a k_b), which the complex solves build
    anyway, so no (d, d) multiplier is kept."""
    spec = grid.full
    return grid.ifft(np.einsum("a...,b...,...->ab...", spec.ik, spec.ik,
                               spec.inv_lap * grid.fft(f)))


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
    kmax = float(np.max(grid.full.k_abs))
    j = 0
    while 2.0**j < kmax:
        j += 1
    return j + 1


def _band_multiplier(grid: Grid, j: int, kind: str) -> np.ndarray:
    if kind not in ("P", "S", "S_le"):
        raise ValueError(f"unknown projection kind {kind!r}")
    if kind != "P" and j < 0:
        raise ValueError(f"band index must be >= 0 for kind {kind!r}, got {j}")
    kabs = grid.full.k_abs
    low = smooth_bump(kabs / 2.0**j)  # S_{<=j}
    if kind == "S_le" or (kind == "S" and j == 0):
        return low
    return low - smooth_bump(kabs / 2.0 ** (j - 1))


def lp_project(grid: Grid, f: np.ndarray, j: int, kind: str = "S") -> np.ndarray:
    """Littlewood-Paley projection.

    ``kind`` selects P_j (dyadic annulus, any integer j), S_j (S_0
    collects all bands j <= 0) or S_le (the cumulative S_{<=j}).
    """
    return grid.ifft(_band_multiplier(grid, j, kind) * grid.fft(f))


def lp_bands(grid: Grid, f: np.ndarray):
    """S_0 f, ..., S_J f (J = ``num_bands``), one at a time, from one
    transform of f; each band equals ``lp_project(grid, f, j, "S")``."""
    fh = grid.fft(f)
    for j in range(num_bands(grid) + 1):
        yield grid.ifft(_band_multiplier(grid, j, "S") * fh)


def band_hs_norms(grid: Grid, f: np.ndarray, orders) -> np.ndarray:
    """||m_j f||_{H^s} for each (s, kind) of ``orders`` and j = 0..J
    (J = ``num_bands``), m_j the multiplier of ``lp_project`` of that
    kind: one row per order, every entry read off one transform of f
    with the weight (1 + |k|^2)^s m_j^2.  For (s, "S"), entry j equals
    ``hs_norm`` of ``lp_bands``' j-th."""
    fh = grid.fft(f)
    rows = []
    for s, kind in orders:
        weight = (1.0 + grid.full.k2) ** s
        rows.append([_weighted_l2(grid, fh, weight * _band_multiplier(grid, j, kind) ** 2)
                     for j in range(num_bands(grid) + 1)])
    return np.array(rows)


def sobolev_multiplier(grid: Grid, f: np.ndarray, s: float, kind: str = "bessel"):
    """Apply <D>^s (kind='bessel') or |D|^s (kind='riesz').

    For |D|^s the zero frequency is always mapped to zero; with s < 0
    this discards the mean, which is the same torus-kernel convention
    as ``inverse_laplacian``.
    """
    k2 = grid.full.k2
    if kind == "bessel":
        mult = (1.0 + k2) ** (s / 2.0)
    elif kind == "riesz":
        mult = np.zeros_like(k2)
        nz = k2 > 0
        mult[nz] = k2[nz] ** (s / 2.0)
    else:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    return grid.ifft(mult * grid.fft(f))


def free_flow(grid: Grid, f: np.ndarray, t: float) -> np.ndarray:
    """Exact flat propagator exp(i t Delta)."""
    return grid.ifft(np.exp(-1j * grid.full.k2 * t) * grid.fft(f))


def translate(grid: Grid, f: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """f(. + shift) evaluated spectrally (exact for band-limited f)."""
    phase = np.exp(1j * np.einsum("a...,a->...", grid.full.k, shift))
    return grid.ifft(phase * grid.fft(f))


def drop_nyquist(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Zero the unpaired Nyquist planes (|k_axis| = n/2).

    Odd-order spectral derivatives of real fields annihilate the
    Nyquist cosine on the grid, so an immersion built from real
    coordinate fields cannot carry data in those planes; comparisons
    against them are performed on Nyquist-free fields.
    """
    fh = grid.fft(f)
    fh[..., np.any(grid.full.nyquist, axis=0)] = 0.0
    return grid.ifft(fh)


def trig_interp(grid, f, points, chunk=4096):
    """Evaluate the trigonometric interpolant of f at arbitrary points.

    ``points`` has shape (d, m); leading tensor axes of f broadcast.
    Separable evaluation over the ``Grid.full`` modes (Nyquist
    included): one phase table exp(i x_a k) per axis, then one
    contraction per axis, so a chunk of p points costs d*n*p
    exponentials and O(N*p) multiply-adds, not N*p exponentials.
    """
    f = np.asarray(f)
    fh = grid.fft(f) / grid.n**grid.d
    k = grid.full.line
    m = points.shape[1]
    out = np.empty(f.shape[: f.ndim - grid.d] + (m,), dtype=complex)
    for start in range(0, m, chunk):
        pts = points[:, start : start + chunk]
        acc = fh.reshape(-1, grid.n) @ np.exp(1j * np.outer(k, pts[-1]))  # last axis
        acc = acc.reshape(fh.shape[:-1] + (pts.shape[1],))
        for a in range(grid.d - 2, -1, -1):
            acc = np.einsum("...kp,kp->...p", acc, np.exp(1j * np.outer(k, pts[a])))
        out[..., start : start + chunk] = acc
    return out


def field_mean(grid: Grid, f: np.ndarray):
    return np.mean(f, axis=grid.spatial_axes)


def mean_zero(grid: Grid, f: np.ndarray) -> np.ndarray:
    """f with its torus mean (the zero mode) removed."""
    return f - np.mean(f, axis=grid.spatial_axes, keepdims=True)


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


def _weighted_l2(grid: Grid, fh: np.ndarray, w: np.ndarray) -> float:
    """The L^2 norm of the field with spectrum sqrt(w) fh."""
    total = np.sum(w * (fh * np.conj(fh)).real)
    # Parseval: sum |fh|^2 * cell_volume / n^d  ==  integral |f|^2 dx
    return float(np.sqrt(total * grid.cell_volume / grid.n**grid.d))


def hs_norm(grid: Grid, f: np.ndarray, s: float) -> float:
    """Flat Sobolev norm ||<D>^s f||_{L^2}, computed Fourier-side."""
    return _weighted_l2(grid, grid.fft(f), (1.0 + grid.full.k2) ** s)

