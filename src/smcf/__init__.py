"""Spectral simulator for the skew mean curvature flow in the
harmonic/Coulomb gauge.

Submodules:
  spectral        periodic grids and every Fourier transform: derivatives,
                  the Nyquist and zero-mode rules, Littlewood-Paley bands,
                  Sobolev norms, off-grid interpolation, the flat flow
  geometry        metric fields, curvature, covariant derivatives,
                  constraint residuals, harmonic coordinates
  gauge_elliptic  the fixed-time elliptic gauge system
  evolution       time stepping for the gauged Schrodinger flow
  immersion       the gauge-free surface integrator and the
                  two-formulation comparison
  norms           exponent arithmetic, dispersive norms, envelopes
  cli             the ``smcf`` command line
"""

from smcf.evolution import EvolutionConfig, evolve, step
from smcf.gauge_elliptic import EllipticConfig, GaugeState, solve_elliptic_system
from smcf.geometry import MetricField
from smcf.immersion import ImmersionState, oracle_compare, smcf_step
from smcf.norms import exponents, pair_check
from smcf.spectral import Grid

__all__ = [
    "Grid",
    "MetricField",
    "EllipticConfig",
    "GaugeState",
    "solve_elliptic_system",
    "EvolutionConfig",
    "evolve",
    "step",
    "ImmersionState",
    "smcf_step",
    "oracle_compare",
    "exponents",
    "pair_check",
]
__version__ = "0.1.0"
