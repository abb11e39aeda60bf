"""Numerical laboratory for Jacobi matrices with power-asymptotic parameters.

Classifies parameter families as limit circle / limit point, predicts the
convergence exponent and density bounds of the spectrum, and verifies the
predictions at desk scale through truncated spectra, recurrence
asymptotics and entire-function growth estimation.
"""

__version__ = "0.1.0"

from ._kernels import BACKEND
from .classify import (
    Classification,
    CriterionConclusion,
    CriterionVerdict,
    Regime,
    berezanskii_test,
    carleman_test,
    classify,
    classify_distinct_roots,
    classify_double_root,
    wouk_test,
)
from .growth import (
    MaxModulusFit,
    NevanlinnaPartial,
    convergence_exponent_from_zeros,
    leading_coefficient_logs,
    log_majorant_product,
    nevanlinna_evaluate,
    order_type_from_coefficients,
    order_type_from_max_modulus,
    scan_b_zeros,
    scan_b_zeros_each,
    upper_density,
)
from .hamburger import (
    DeltaExponents,
    HamburgerData,
    delta_exponents,
    exceptional_order_bound,
    exponent_upper_bounds,
    lengths_angles,
)
from .params import (
    CarlemanVerdict,
    ExpansionOrder,
    JacobiSequence,
    PowerAsymptotics,
    RemainderKind,
    RemainderModel,
    carleman_sum,
    descriptor_from_json,
    descriptor_to_json,
    materialize,
    sequence_from_csv,
    sequence_to_csv,
    wouk_margin,
)
from .recurrence import (
    ExponentFit,
    PolySolution,
    RecurrenceOverflowError,
    SummabilityTrend,
    norm_exponent,
    solve_at_zero,
    square_summability_probe,
    transformed_recurrence,
    wronskian_residual,
)
from .spectrum import (
    TruncatedSpectrum,
    charpoly_eigenvalues,
    charpoly_eigenvalues_each,
    eigenvalues_in,
    eigenvalues_in_each,
    full_spectra,
    full_spectrum,
    stabilized_counting,
    sturm_count,
)
