"""Tomography of rotational density-matrix blocks from angular distributions.

A linear or symmetric-top rotor prepared in a fixed (k, m) channel shows its
full density-matrix block rho(J1, J2) in the time evolution of the polar
angular distribution Pr(x = cos theta, t).  This package provides the angular
machinery (normalized associated Legendre functions, Wigner d rows,
Clebsch-Gordan coefficients, one product-decomposition tensor per block), a
forward simulator for Pr(x, t), and the inverse engine that recovers the
block by Fourier-probing the distribution's beat frequencies at every
Legendre order and fitting the moments by least squares -- plus a
file-format layer and a CLI workbench on top.
"""

from .angular import (
    QuadratureGrid,
    assoc_legendre_norm,
    clebsch_gordan,
    coefficient_table,
    eigenfunction_rows,
    gauss_legendre_grid,
    wigner_d,
)
from .fileio import (
    ExperimentConfig,
    FileFormatError,
    NoiseConfig,
    load_block,
    load_config,
    load_grid,
    save_block,
    save_grid,
)
from .rotor import (
    DensityBlock,
    MeasurementGrid,
    RotorKind,
    RotorSpec,
    add_shot_noise,
    energy,
    make_test_state,
    rotor_kind,
    simulate_pr,
)
from .tomography import (
    MomentValue,
    PatternFunction,
    ReconstructionResult,
    SamplingError,
    SamplingPlan,
    moment_integral,
    pattern_function,
    probe_frequency,
    reconstruct_block,
)

__all__ = [
    "QuadratureGrid",
    "assoc_legendre_norm",
    "clebsch_gordan",
    "coefficient_table",
    "eigenfunction_rows",
    "gauss_legendre_grid",
    "wigner_d",
    "ExperimentConfig",
    "FileFormatError",
    "NoiseConfig",
    "load_block",
    "load_config",
    "load_grid",
    "save_block",
    "save_grid",
    "DensityBlock",
    "MeasurementGrid",
    "RotorKind",
    "RotorSpec",
    "add_shot_noise",
    "energy",
    "make_test_state",
    "rotor_kind",
    "simulate_pr",
    "MomentValue",
    "PatternFunction",
    "ReconstructionResult",
    "SamplingError",
    "SamplingPlan",
    "moment_integral",
    "pattern_function",
    "probe_frequency",
    "reconstruct_block",
]

__version__ = "0.1.0"
