"""Every public (y, T) or T-only entry point refuses a non-positive or
non-finite height or radius with InvalidParameter, whatever layer it lives in;
a radius-only entry point refuses a radius past 1e6 with RangeExceeded, and
the Fourier entry points refuse unbounded work with RangeExceeded."""
import math
import subprocess
import sys

import pytest

from shearcount import (
    InvalidParameter,
    RangeExceeded,
    ShearPoint,
    SweepConfig,
    auto_truncation,
    breakpoints,
    chord_identity_residual,
    chord_length_sum,
    chord_sum_error,
    chord_sum_error_bound,
    circle_area_tail,
    cosine_spectrum,
    count_decomposition,
    count_enumerate,
    count_formula,
    count_rowslice,
    inscribed_polygon_area,
    lower_bound_witness,
    mean_remainder_closed,
    mean_square_breakpoints,
    mean_square_certificate,
    mean_square_pairwise,
    mean_square_parseval,
    mean_square_upper_bound,
    oscillatory_partial_sum,
    oscillatory_sum,
    parseval_mean_square,
    sawtooth_integral,
    sweep,
)

BAD = [0.0, -1.0, math.inf, math.nan]

# Entry points taking (y, T); lower_bound_witness takes (y, k) with T = k*sqrt(y).
HEIGHT_AND_RADIUS = {
    "breakpoints": breakpoints,
    "mean_square_pairwise": mean_square_pairwise,
    "mean_square_breakpoints": mean_square_breakpoints,
    "mean_square_parseval": mean_square_parseval,
    "mean_remainder_closed": mean_remainder_closed,
    "mean_square_upper_bound": mean_square_upper_bound,
    "cosine_spectrum": lambda y, T: cosine_spectrum(y, T, 8, 4),
    "parseval_mean_square": lambda y, T: parseval_mean_square(y, T, 8, 4),
    "mean_square_certificate": lambda y, T: mean_square_certificate(y, T, 4),
    "auto_truncation": auto_truncation,
    "lower_bound_witness": lower_bound_witness,
    "sweep": lambda y, T: sweep(SweepConfig(y_values=(y,), radius_min=T, radius_max=T, samples=1), threads=1),
}

# Entry points taking a ShearPoint, which checks y itself: only T varies.
SHEAR_POINT = {
    "count_enumerate": count_enumerate,
    "count_rowslice": count_rowslice,
    "count_formula": count_formula,
    "count_decomposition": count_decomposition,
    "oscillatory_sum": oscillatory_sum,
    "oscillatory_partial_sum": lambda z, T: oscillatory_partial_sum(z, T, 4),
}

# Entry points taking a radius alone.
RADIUS_ONLY = {
    "chord_length_sum": chord_length_sum,
    "chord_sum_error": chord_sum_error,
    "chord_sum_error_bound": chord_sum_error_bound,
    "chord_identity_residual": chord_identity_residual,
    "circle_area_tail": lambda T: circle_area_tail(T, 1.0),
    "inscribed_polygon_area": inscribed_polygon_area,
    "sawtooth_integral": lambda T: sawtooth_integral(T, 1),
}


# Integer parameters, one entry point each; infinities and nan are not integers.
INTEGER = {
    "cosine_spectrum.k_max": lambda v: cosine_spectrum(1.0, 5.0, v, 8),
    "cosine_spectrum.n_max": lambda v: cosine_spectrum(1.0, 5.0, 8, v),
    "parseval_mean_square.k_max": lambda v: parseval_mean_square(1.0, 5.0, v, 8),
    "parseval_mean_square.n_max": lambda v: parseval_mean_square(1.0, 5.0, 8, v),
    "mean_square_certificate.cutoff": lambda v: mean_square_certificate(1.0, 5.0, v),
    "oscillatory_partial_sum.n_max": lambda v: oscillatory_partial_sum(ShearPoint(0.3, 1.0), 5.0, v),
    "sawtooth_integral.M": lambda v: sawtooth_integral(5.0, v),
    "lower_bound_witness.k": lambda v: lower_bound_witness(1.0, v),
    "inscribed_polygon_area.radius": inscribed_polygon_area,
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", sorted(HEIGHT_AND_RADIUS))
def test_bad_height_is_invalid(name, bad):
    with pytest.raises(InvalidParameter):
        HEIGHT_AND_RADIUS[name](bad, 3.0)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", sorted(HEIGHT_AND_RADIUS))
def test_bad_radius_is_invalid(name, bad):
    with pytest.raises(InvalidParameter):
        HEIGHT_AND_RADIUS[name](1.0, bad)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", sorted(SHEAR_POINT))
def test_bad_radius_at_a_shear_point_is_invalid(name, bad):
    with pytest.raises(InvalidParameter):
        SHEAR_POINT[name](ShearPoint(0.3, 1.0), bad)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", sorted(RADIUS_ONLY))
def test_bad_radius_alone_is_invalid(name, bad):
    with pytest.raises(InvalidParameter):
        RADIUS_ONLY[name](bad)


@pytest.mark.parametrize("name", sorted(RADIUS_ONLY))
def test_radius_beyond_the_contract_is_refused(name):
    # T = 1e12 is past the supported scaled radius 1e6: refused before any work
    with pytest.raises(RangeExceeded):
        RADIUS_ONLY[name](1e12)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(INTEGER))
def test_non_finite_integer_parameter_is_invalid(name, bad):
    with pytest.raises(InvalidParameter):
        INTEGER[name](bad)


def test_good_parameters_pass_every_entry_point():
    for fn in HEIGHT_AND_RADIUS.values():
        fn(1.0, 3.0)
    for fn in SHEAR_POINT.values():
        fn(ShearPoint(0.3, 1.0), 3.0)
    for fn in RADIUS_ONLY.values():
        fn(3.0)
    for fn in INTEGER.values():
        fn(3)


# Calls far past the Fourier work budget: 4e12 (m, n) pairs, or a 745 GiB row-sum array.
UNBOUNDED = [
    "parseval_mean_square(1.0, 5.0, 8, 10**12)",
    "oscillatory_partial_sum(sc.ShearPoint(0.3, 1.0), 5.0, 10**12)",
    "mean_square_certificate(1.0, 5.0, 10**11)",
]


@pytest.mark.parametrize("call", UNBOUNDED)
def test_unbounded_fourier_work_is_refused(call):
    # a subprocess with a timeout, so that a call that runs without bound fails the test
    script = (f"import shearcount as sc\ntry:\n    sc.{call}\nexcept sc.RangeExceeded:\n    raise SystemExit(0)\n"
              "raise SystemExit('no RangeExceeded')")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
