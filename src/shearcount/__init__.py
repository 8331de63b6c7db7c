"""Exact lattice-point counting in circles for sheared unimodular lattices.

For z = x + iy in the upper half plane the lattice with basis
(sqrt(y), x/sqrt(y)) and (0, 1/sqrt(y)) has covolume 1; this package counts
its vectors inside an open disk of radius T exactly, decomposes the count
into a chord-length main term, a sawtooth oscillation, and a boundary
correction, and measures the mean and mean square of the count remainder
over one full shear period x in [0, 1).
"""

from .errors import InvalidParameter, RangeExceeded, ShearCountError
from .formula import (
    DecompositionResult,
    chord_identity_residual,
    chord_length_sum,
    chord_sum_error,
    chord_sum_error_bound,
    circle_area_tail,
    count_decomposition,
    count_formula,
    inscribed_polygon_area,
    oscillatory_sum,
    remainder,
    sawtooth,
    sawtooth_integral,
)
from .fourier import (
    FourierSpectrum,
    auto_truncation,
    cosine_spectrum,
    mean_square_certificate,
    oscillatory_partial_sum,
    parseval_mean_square,
    read_spectrum_csv,
    write_spectrum_csv,
)
from .lattice import (
    MAX_SCALED_RADIUS,
    CountResult,
    ShearPoint,
    count_enumerate,
    count_rowslice,
    lattice_vector,
)
from .stats import (
    BreakpointSweep,
    LowerBoundWitness,
    MeanSquareReport,
    SweepConfig,
    breakpoints,
    lower_bound_witness,
    mean_remainder_closed,
    mean_square_breakpoints,
    mean_square_pairwise,
    mean_square_parseval,
    mean_square_upper_bound,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)
from .verify import VerifyCheck, run_verification

__version__ = "0.1.0"

__all__ = [
    "BreakpointSweep",
    "CountResult",
    "DecompositionResult",
    "FourierSpectrum",
    "InvalidParameter",
    "LowerBoundWitness",
    "MAX_SCALED_RADIUS",
    "MeanSquareReport",
    "RangeExceeded",
    "ShearCountError",
    "ShearPoint",
    "SweepConfig",
    "VerifyCheck",
    "auto_truncation",
    "breakpoints",
    "chord_identity_residual",
    "chord_length_sum",
    "chord_sum_error",
    "chord_sum_error_bound",
    "circle_area_tail",
    "cosine_spectrum",
    "count_decomposition",
    "count_enumerate",
    "count_formula",
    "count_rowslice",
    "inscribed_polygon_area",
    "lattice_vector",
    "lower_bound_witness",
    "mean_remainder_closed",
    "mean_square_breakpoints",
    "mean_square_certificate",
    "mean_square_pairwise",
    "mean_square_parseval",
    "mean_square_upper_bound",
    "oscillatory_partial_sum",
    "oscillatory_sum",
    "parseval_mean_square",
    "read_spectrum_csv",
    "read_sweep_csv",
    "remainder",
    "run_verification",
    "sawtooth",
    "sawtooth_integral",
    "sweep",
    "write_spectrum_csv",
    "write_sweep_csv",
]
