"""Exponent arithmetic and the analysis bookkeeping norms.

The regularity/integrability exponent table per dimension, W^{s,p} and
space-time (Strichartz-type) norms, dispersive pair admissibility
checks in exact rational arithmetic, frequency envelopes, the
regularized-data family, and the interpolation J-functional norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from smcf import spectral as sp
from smcf.spectral import Grid

__all__ = [
    "ExponentTable",
    "exponents",
    "wsp_norm",
    "strichartz_components",
    "strichartz_accumulate",
    "PairReport",
    "pair_check",
    "FrequencyEnvelope",
    "frequency_envelope",
    "regularize",
    "RegularizationReport",
    "regularization_report",
    "interp_norm",
]

#: margin above the strict lower bound used for s_d when d >= 5
S_MARGIN = 0.1


@dataclass(frozen=True)
class ExponentTable:
    """Per-dimension exponents for the global regularity theory.

    ``s_d`` is the Sobolev regularity index, ``r_d`` the spatial
    integrability 2d(d-1)/(d-2)^2 (exact rational), ``sigma_d`` is
    s_d - 2, and ``endpoint`` the admissible pair (2, 2d/(d-2)).
    ``threshold`` is the strict lower bound on s_d ((d+1)/2 +
    1/(2(d-1)) for d >= 5, 3 for d = 4); ``theorem_regime`` is False
    for d in {2, 3} where the values are simulation defaults only.
    """

    d: int
    s_d: float
    r_d: Fraction
    sigma_d: float
    threshold: float
    endpoint: tuple
    theorem_regime: bool


def exponents(d: int) -> ExponentTable:
    if d <= 1:
        raise ValueError(f"no exponent table for dimension {d}")
    if d == 2:
        return ExponentTable(2, 2.0, Fraction(4), 0.0, 2.0, (2, math.inf), False)
    if d == 3:
        return ExponentTable(3, 2.5, Fraction(12), 0.5, 2.5, (2, Fraction(6)), False)
    r_d = Fraction(2 * d * (d - 1), (d - 2) ** 2)
    endpoint = (2, Fraction(2 * d, d - 2))
    if d == 4:
        return ExponentTable(4, 3.0, r_d, 1.0, 3.0, endpoint, True)
    threshold = (d + 1) / 2 + 1 / (2 * (d - 1))  # equals d^2 / (2(d-1))
    s_d = threshold + S_MARGIN
    return ExponentTable(d, s_d, r_d, s_d - 2.0, threshold, endpoint, True)


def wsp_norm(grid: Grid, f: np.ndarray, s: float, p: float) -> float:
    """W^{s,p} norm; exact at p=2, Littlewood-Paley square-sum proxy otherwise."""
    if p < 2:
        raise ValueError(f"integrability p={p} below 2 is not supported")
    if s < 0:
        raise ValueError("negative smoothness is not a runtime norm")
    if p == 2:
        return sp.hs_norm(grid, f, s)
    total = 0.0
    for j in range(sp.num_bands(grid) + 1):
        band = sp.lp_project(grid, f, j, "S")
        total += (2.0 ** (j * s) * sp.lp_norm(grid, band, p)) ** 2
    return float(np.sqrt(total))


def strichartz_components(table: ExponentTable) -> list:
    """(s, p) of the spatial W^{s,p} norms in the space-time dispersive
    norm: W^{sigma_d, r_d}, plus W^{1,4} in dimension 4."""
    components = [(table.sigma_d, float(table.r_d))]
    if table.d == 4:
        components.append((1.0, 4.0))
    return components


def strichartz_accumulate(grid: Grid, samples, table: ExponentTable) -> float:
    """Space-time dispersive norm from time samples of a field.

    ``samples`` is an increasing sequence of (t, field).  Each
    component of ``strichartz_components`` is an L^2-in-time norm of a
    spatial W^{s,p} norm, evaluated by trapezoid quadrature of the
    squared spatial norms, and the components are summed.
    """
    if len(samples) < 2:
        raise ValueError("need at least two time samples")
    times = np.array([t for t, _ in samples], dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("sample times must be strictly increasing")
    total = 0.0
    for s, p in strichartz_components(table):
        vals = np.array([wsp_norm(grid, f, s, p) ** 2 for _, f in samples])
        total += float(np.sqrt(np.trapezoid(vals, times)))
    return total


def _rat(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if math.isinf(x):
        return math.inf
    return Fraction(x).limit_denominator(10**9)


def _inv(x) -> Fraction:
    return Fraction(0) if x == math.inf else 1 / _rat(x)


@dataclass(frozen=True)
class PairReport:
    admissible: bool
    admissible_dual: bool
    acceptable: bool
    acceptable_dual: bool
    scaling: bool
    inhomogeneous_case: str  # none | non_sharp | sharp | endpoint


def _is_admissible(q, r, d) -> bool:
    qi, ri = _inv(q), _inv(r)
    if qi > Fraction(1, 2) or ri > Fraction(1, 2):
        return False
    if (q, r, d) == (2, math.inf, 2):
        return False
    return 2 * qi + d * ri == Fraction(d, 2)


def _is_acceptable(q, r, d) -> bool:
    if q == math.inf and _rat(r) == 2:
        return True
    if q == math.inf:
        return False
    qi, ri = _inv(q), _inv(r)
    if _rat(q) < 1 or ri > Fraction(1, 2):
        return False
    return qi < Fraction(d, 2) * (1 - 2 * ri)


def pair_check(q, r, q_dual, r_dual, d: int) -> PairReport:
    """Check dispersive-estimate conditions on a pair of exponent pairs.

    Evaluates (in exact rational arithmetic) the scale-invariance
    identity 2/q + d/r = d/2 for each pair, the acceptability
    condition 1/q < (d/2)(1 - 2/r) (with the (inf, 2) carve-out), the
    joint scaling identity 1/q + 1/q' = (d/2)(1 - 1/r - 1/r'), and
    classifies the inhomogeneous estimate case (non-sharp, sharp, or
    endpoint) per its defining inequalities.
    """
    adm = _is_admissible(q, r, d)
    adm_dual = _is_admissible(q_dual, r_dual, d)
    acc = _is_acceptable(q, r, d)
    acc_dual = _is_acceptable(q_dual, r_dual, d)
    qi, ri = _inv(q), _inv(r)
    qti, rti = _inv(q_dual), _inv(r_dual)
    scaling = qi + qti == Fraction(d, 2) * (1 - ri - rti)

    case = "none"
    if acc and acc_dual and scaling:
        qsum = qi + qti
        lo, hi = Fraction(d - 2, d) * ri, Fraction(d, d - 2) * ri if d > 2 else None
        half = Fraction(1, 2)
        if qsum < 1 and d > 2 and lo <= rti <= hi and ri <= half and rti <= half:
            case = "non_sharp"
        elif qsum == 1 and d > 2 and ri <= qi and rti <= qti:
            if lo < rti < hi:
                case = "sharp"
            elif rti != 0 and (ri == Fraction(d, d - 2) * rti or ri == Fraction(d - 2, d) * rti):
                case = "endpoint"
    return PairReport(adm, adm_dual, acc, acc_dual, scaling, case)


@dataclass(frozen=True)
class FrequencyEnvelope:
    """Minimal slowly-varying majorant of the per-band Sobolev norms.

    c_j = max_k 2^{-delta |j-k|} ||S_k psi_0||_{H^{s_d}}, so that
    c is 2^{delta}-slowly varying and dominates the band norms.
    """

    delta: float
    c: np.ndarray
    band_norms: np.ndarray

    def total(self) -> float:
        return float(np.sqrt(np.sum(self.c**2)))


def frequency_envelope(grid: Grid, psi0: np.ndarray, table: ExponentTable,
                       delta: float = 0.01) -> FrequencyEnvelope:
    if delta <= 0:
        raise ValueError("envelope slack must be positive")
    nj = sp.num_bands(grid) + 1
    band_norms = np.array(
        [sp.hs_norm(grid, sp.lp_project(grid, psi0, j, "S"), table.s_d) for j in range(nj)]
    )
    j = np.arange(nj)
    weights = 2.0 ** (-delta * np.abs(j[:, None] - j[None, :]))
    c = np.max(weights * band_norms[None, :], axis=1)
    return FrequencyEnvelope(delta=delta, c=c, band_norms=band_norms)


def regularize(grid: Grid, psi0: np.ndarray, k: int) -> np.ndarray:
    """The k-th regularization: the low-frequency truncation S_{<=k} psi_0."""
    if k < 0:
        raise ValueError("regularization index must be nonnegative")
    return sp.lp_project(grid, psi0, k, "S_le")


@dataclass(frozen=True)
class RegularizationReport:
    """Recorded constants for the regularized-data family.

    c_high bounds ||S_{<=k} psi_0||_{H^{s_d+sigma}} / (2^{sigma k} c_k);
    c_diff bounds the consecutive differences in H^{-1} against
    2^{-(s_d+1)k} c_k.
    """

    sigma: float
    c_high: float
    c_diff: float
    high_ratios: np.ndarray
    diff_ratios: np.ndarray


def regularization_report(grid: Grid, psi0: np.ndarray, table: ExponentTable,
                          delta: float = 0.01, sigma: float = 1.0) -> RegularizationReport:
    env = frequency_envelope(grid, psi0, table, delta)
    nj = len(env.c)
    high, diff = [], []
    for k in range(nj):
        ck = env.c[k]
        if ck <= 0:
            high.append(0.0)
            diff.append(0.0)
            continue
        low = regularize(grid, psi0, k)
        high.append(sp.hs_norm(grid, low, table.s_d + sigma) / (2.0 ** (sigma * k) * ck))
        if k + 1 < nj:
            step = regularize(grid, psi0, k + 1) - low
            diff.append(
                sp.hs_norm(grid, step, -1.0) / (2.0 ** (-(table.s_d + 1) * k) * ck)
            )
        else:
            diff.append(0.0)
    high = np.array(high)
    diff = np.array(diff)
    return RegularizationReport(
        sigma=sigma,
        c_high=float(high.max(initial=0.0)),
        c_diff=float(diff.max(initial=0.0)),
        high_ratios=high,
        diff_ratios=diff,
    )


def interp_norm(grid: Grid, parts, s: float, N: float) -> float:
    """Squared J-functional of a decomposition u = sum_j u_j.

    Returns sum_j 2^{2j(s+1)} ||u_j||^2_{H^{-1}} + 2^{2j(s-N)} ||u_j||^2_{H^N};
    the infimum over decompositions is equivalent to ||u||^2_{H^s}.
    """
    if not N > s >= 0:
        raise ValueError("need N > s >= 0")
    total = 0.0
    for j, u in enumerate(parts):
        total += 2.0 ** (2 * j * (s + 1)) * sp.hs_norm(grid, u, -1.0) ** 2
        total += 2.0 ** (2 * j * (s - N)) * sp.hs_norm(grid, u, N) ** 2
    return float(total)
