"""Exact spacing statistics and large-sieve constants for fractions
with power denominator."""

from .errors import PowfracError, RangeError, ResourceError
from .fraccore import (EnumerationSpec, PowerFraction, enumerate_tuples, euler_phi,
                       format_rational, parse_rational, tuple_count)
from .paircount import (CoverageProfile, DyadicBlockQuery, PairQuery, count_pairs_block,
                        count_pairs_bruteforce, count_pairs_interval, coverage_profile,
                        exceptional_measure, sharpness_study, window_count)
from .expsum import (GenericPhase, KusminReport, MeanValueSpec, PhaseSpec,
                     direct_monomial_sum, direct_phase_sum, kusmin_landau_check,
                     mean_value_integral, monomial_phase, phase_pair_count,
                     power_law_phase, power_phase, stationary_phase_generic, vdc_transform_sum)
from .sieve import (BoundReport, SieveProblem, classical_bounds,
                    dense_gram_eigenvalue, dual_quadratic_form, l1_sieve_sum,
                    sieve_gram_eigenvalue)

__version__ = "0.1.0"

__all__ = [
    "PowfracError", "RangeError", "ResourceError",
    "EnumerationSpec", "PowerFraction", "enumerate_tuples", "euler_phi",
    "format_rational", "parse_rational", "tuple_count",
    "CoverageProfile", "DyadicBlockQuery", "PairQuery", "count_pairs_block",
    "count_pairs_bruteforce", "count_pairs_interval", "coverage_profile",
    "exceptional_measure", "sharpness_study", "window_count",
    "GenericPhase", "KusminReport", "MeanValueSpec", "PhaseSpec",
    "direct_monomial_sum", "direct_phase_sum", "kusmin_landau_check",
    "mean_value_integral", "monomial_phase", "phase_pair_count", "power_law_phase",
    "power_phase", "stationary_phase_generic", "vdc_transform_sum",
    "BoundReport", "SieveProblem", "classical_bounds", "dense_gram_eigenvalue",
    "dual_quadratic_form", "l1_sieve_sum", "sieve_gram_eigenvalue",
    "__version__",
]
