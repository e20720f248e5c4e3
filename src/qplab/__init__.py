"""Desk-scale computational toolkit for pencils of diagonal quadrics.

Exposes exact (rational / biquadratic) arithmetic, points and cotangent data
of the quadric intersection X, the fibration map and its geometric twin via
degenerate restricted pencils, kernel bases of the pencil row map on P^1,
skew-symmetric invariants, and seed-driven verification batteries with a CLI
front end.
"""

from .binary_forms import (
    BinaryForm,
    InterpolationError,
    interpolate_binary_form,
)
from .fibration import (
    DegenerateCovectorError,
    FibrationValue,
    IdentificationMap,
    f_H,
    fit_identification,
    phi_components,
    phi_X,
    phi_Y,
    verify_identification,
    verify_lagrangian,
)
from .linalg import (
    det_exact,
    in_span,
    matvec,
    nullspace_exact,
    rank_exact,
    same_span,
    solve_exact,
)
from .p1bundle import (
    KernelBasis,
    SplittingError,
    SplittingType,
    n_tilde_splitting,
    trivial_factor_matches_tangent,
    v_perp_kernel,
    vandermonde_normalizer,
)
from .pencil import (
    HyperellipticData,
    PencilError,
    PencilOfQuadrics,
    SignGroupElement,
    canonical_pencil,
)
from .scalars import (
    Biquad,
    BiquadContext,
    ModeMismatchError,
    NonInvertibleError,
    as_fraction,
    is_exact,
    scalar_mode,
    to_complex,
)
from .skew import (
    DecompositionError,
    HitchinVector,
    SkewMap,
    SkewnessError,
    char_coeffs,
    hitchin_vector,
    nilpotency_and_rank,
    pfaffian,
    rank2_orthogonal_decomposition,
)
from .variety import (
    CotangentRep,
    GaugeError,
    MembershipError,
    PointOnX,
    SampleBudgetError,
    TangentFrame,
    canonical_gauge,
    derived_rng,
    quotient_even,
    quotient_full,
    sample_covector,
    sample_pair,
    sample_point,
    tangent_frame,
)
from .verify import (
    run_diagram_check,
    run_even_check,
    run_falsifiability_check,
    run_invariance_check,
    run_lagrangian_check,
    run_quotient_check,
    run_skew_battery,
    run_splitting_check,
    run_vandermonde_check,
    verify_all,
)

__version__ = "0.1.0"
