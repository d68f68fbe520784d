"""Discrepancy toolkit for d-dimensional linear-form sequences.

The point set is {k_1 a_1 + ... + k_d a_d mod 1 : 1 <= k_i <= N} with the
a_i stored as 128-bit fixed-point fractions, so counting, sorting, and
residue geometry are exact.  On top of that sit the direct discrepancy
evaluators, the frequency-side component sums with their index-set
decomposition, small-divisor diagnostics, and growth experiments.
"""

from .discrepancy import (SIDE_LEFT, SIDE_RIGHT, AveragedResult,
                          DiscrepancyResult, averaged_discrepancy_direct,
                          discrepancy_at, max_discrepancy)
from .diophantine import (BoxCountRecord, BucketVec, CFExpansion, LineCensus,
                          LineRecord, SpectrumRecord, box_count_recheck,
                          box_counts, bucket_in_geometry, continued_fraction,
                          line_census,
                          min_distance_scan, neighbor_step, product_scan,
                          small_divisor_product, spectrum_check,
                          spectrum_scan, validate_bucket)
from .errors import BudgetError
from .experiments import (CrossReport, CrossRow, GrowthConfig, GrowthRecord,
                          PhiSpec, cross_validate, growth_csv,
                          growth_normalizer, growth_trend, is_degenerate,
                          phi_eval, run_growth_experiment)
from .fourier import (ComponentReport, FourierParams, all_masks,
                      component_sum, delta_n, f_term, fejer,
                      fourier_tail_bound, g_factor, index_set_membership,
                      lambda_form, recombine, series_coefficient)
from .lattice import (DEFAULT_POINT_BUDGET, PointSet, count_in_interval,
                      dump_sorted, generate_points, load_dump)
from .unitfrac import (AlphaVec, SignedResidue, UnitFrac, alpha_from_specs,
                       alpha_from_values, dist_nearest, frac_from_real,
                       frac_from_token, frac_mul_int, nearest_residue,
                       random_alpha)

__version__ = "0.1.0"

__all__ = [
    "AlphaVec", "AveragedResult", "BoxCountRecord", "BucketVec",
    "BudgetError", "CFExpansion", "ComponentReport", "CrossReport",
    "CrossRow", "DEFAULT_POINT_BUDGET", "DiscrepancyResult", "FourierParams",
    "GrowthConfig", "GrowthRecord", "LineCensus", "LineRecord",
    "PhiSpec", "PointSet",
    "SIDE_LEFT", "SIDE_RIGHT", "SignedResidue", "SpectrumRecord", "UnitFrac",
    "all_masks", "alpha_from_specs", "alpha_from_values",
    "averaged_discrepancy_direct", "box_count_recheck", "box_counts",
    "bucket_in_geometry", "component_sum", "continued_fraction",
    "count_in_interval",
    "cross_validate", "delta_n", "discrepancy_at", "dist_nearest",
    "dump_sorted", "f_term", "fejer", "fourier_tail_bound", "frac_from_real",
    "frac_from_token", "frac_mul_int", "g_factor", "generate_points",
    "growth_csv", "growth_normalizer", "growth_trend", "index_set_membership",
    "is_degenerate", "lambda_form", "line_census", "load_dump",
    "max_discrepancy", "min_distance_scan", "nearest_residue",
    "neighbor_step",
    "phi_eval", "product_scan", "random_alpha", "recombine",
    "run_growth_experiment", "series_coefficient", "small_divisor_product",
    "spectrum_check", "spectrum_scan", "validate_bucket",
]
