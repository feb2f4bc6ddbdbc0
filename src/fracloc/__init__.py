"""fracloc: locating small conductivity inclusions in a subdiffusion model.

The package simulates a time-fractional (Caputo, order alpha in (0,1))
diffusion problem with piecewise-constant conductivity on the unit disk,
and reconstructs the positions of small inclusions from boundary
measurements by direct, optimization-free algorithms built on weighted
boundary integrals of the data against translated fundamental-solution
kernels.

Module map
----------
fracmath      time grid, L1 Caputo derivative, Riemann-Liouville integral
greenfn       reduced fundamental-solution profiles: float64 quadrature,
              fitted asymptotic series, their gradient kernels, and the
              one copy of the gradient factor's time half and normal
              derivative that the flux, the probes and the scan take
mesh          graded triangulations of the unit disk resolving inclusions,
              with each triangle's P1 gradient coefficients
forward       P1-in-space / L1-in-time subdiffusion solver, noisy boundary diffs
measure       boundary/interior measurement functionals, polarization tensor
locate_one    single-inclusion reconstruction from two probe segments
locate_multi  multi-inclusion reconstruction (data matrix, SVD projection,
              indicator-function scan)
textfile      output files written and hashed in one pass
cli           command-line entry points
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    FraclocError,
    QuadratureError,
    ReconstructionError,
    SolverError,
)

__all__ = [
    "ConfigError",
    "FraclocError",
    "QuadratureError",
    "ReconstructionError",
    "SolverError",
    "__version__",
]
