"""Average Frobenius-trace experiments for quadratic-twist surfaces.

Computes fibral traces, the two Nagao-style partial-sum rank estimators,
genus-2 L-polynomial data, Sato-Tate moment statistics against their Haar
oracles, and exact trace-identity certificates for Jacobian factorizations.
"""

from .curves import (
    BadPrimeError,
    CurveSpec,
    LPolynomial2,
    TraceRecord,
    curve_from_poly,
    curve_trace,
    hyperelliptic_trace,
    l_polynomial_genus2,
    normalized_angle,
    sweep_traces,
    trace_oracle_exhaustive,
)
from .finite_field import is_prime, legendre, poly_eval_mod, primes_in, residue_table
from .polynomials import IntPolynomial, ParseError, parse_polynomial, poly_to_str
from .stats import (
    MomentReport,
    STGroupRecord,
    STMeasure1D,
    empirical_moments,
    haar_second_moment,
    haar_second_moment_usp4,
    identify_st_class,
    ks_distance,
    load_st_table,
    moment_class,
    predict_rank,
    st_measure,
)
from .twist import (
    MobiusTransform,
    NagaoSeries,
    PetersonError,
    TwistSurfaceSpec,
    average_trace,
    char_sum,
    fiber_trace,
    nagao_series,
    peterson_D,
    twist_surface,
    verify_factorization,
)

__version__ = "0.1.0"
