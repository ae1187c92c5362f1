"""Numerical toolkit for Whitney decompositions, quasi-hyperbolic geometry,
bmo-scale norms and boundary-reflection extension operators on planar domains."""

__version__ = "0.1.0"

from .bmo import (GridFunction, NormReport, adjacent_average_gap,
                  bmo_homogeneous_norm, bmo_lambda_norm, cube_average,
                  dipole_field, dyadic_abc_norm, field_graph, log_growth_ratio,
                  qh_distance_field, sample_grid_function,
                  whitney_cellwise_field)
from .cigar import (ClassificationReport, classify, curve_constants,
                    epsilon_from_ab, epsilon_upper_bound, estimate_epsilon_delta)
from .domains import (Domain, cusp, disk, half_plane, intro_lipschitz, l_shape,
                      parse_domain_arg, parse_domain_file, polygon, slit_disk,
                      square)
from .dyadic import DyadicCube, Window
from .extension import (ExtensionPlan, ExtensionResult,
                        counterexample_experiment, extend, make_suite,
                        max_extension_scale, operator_norm_experiment,
                        plan_extension)
from .qhyper import (MetricGraph, Polyline, build_metric_graph, eta_lambda,
                     j_distance, qh_distance, qh_distance_to_interior,
                     qh_length)
from .whitney import (WhitneyDecomposition, build_whitney, find_big_cube_near,
                      find_interior_point, matching_cube, whitney_chain)

__all__ = [
    "GridFunction", "NormReport", "adjacent_average_gap", "bmo_homogeneous_norm",
    "bmo_lambda_norm", "cube_average", "dipole_field",
    "dyadic_abc_norm", "field_graph", "log_growth_ratio", "qh_distance_field",
    "sample_grid_function", "whitney_cellwise_field", "ClassificationReport",
    "classify", "curve_constants", "epsilon_from_ab",
    "epsilon_upper_bound", "estimate_epsilon_delta",
    "Domain", "cusp", "disk", "half_plane", "intro_lipschitz", "l_shape",
    "parse_domain_arg", "parse_domain_file", "polygon", "slit_disk", "square",
    "DyadicCube", "Window",
    "ExtensionPlan", "ExtensionResult", "counterexample_experiment", "extend",
    "make_suite", "max_extension_scale", "operator_norm_experiment",
    "plan_extension", "MetricGraph",
    "Polyline", "build_metric_graph", "eta_lambda", "j_distance",
    "qh_distance", "qh_distance_to_interior", "qh_length",
    "WhitneyDecomposition", "build_whitney", "find_big_cube_near",
    "find_interior_point", "matching_cube", "whitney_chain",
]
