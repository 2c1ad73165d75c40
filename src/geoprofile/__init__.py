"""Distance profiles of geodesics on curved discs: analysis, finiteness
checking, and constructive metric synthesis."""

from .special_functions import (phi, psi, sin_k, cot_k, phi_inverse,
                                DomainError)
from .profiles import DistanceProfile, read_profile_csv, write_profile_csv
from .whitney import (SampledFunction, divided_difference, holder_seminorm,
                      whitney_extend, extension_bounds, HypothesisViolation)
from .ode_core import (RadialCurvature, RadialSolution, solve_jacobi,
                       solve_riccati, riccati_stability_check, OdeBlowupError)
from .geodesy import (MetricGrid, PolarPoint, GeodesicPath,
                      geodesic_integrate, distance, distance_profile,
                      save_metric_json, load_metric_json)
from .profile_analysis import (kappa, curve_angle, f0_curve, analyze,
                               AnalysisSummary, twelve_point_configurations,
                               finiteness_check)
from .synthesis import (decompose_annuli, extend_fk, glue_f, assemble_metric,
                        synthesize, verify_synthesis, verify_grid,
                        SynthesisResult, SynthesisError)
from .calibration import CheckerConstants, default_constants, load_constants
from .report import CheckerRecord, CheckerReport

__version__ = "0.1.0"

__all__ = [
    "phi", "psi", "sin_k", "cot_k", "phi_inverse", "DomainError",
    "DistanceProfile", "read_profile_csv", "write_profile_csv",
    "SampledFunction", "divided_difference", "holder_seminorm",
    "whitney_extend", "extension_bounds", "HypothesisViolation",
    "RadialCurvature", "RadialSolution", "solve_jacobi", "solve_riccati",
    "riccati_stability_check", "OdeBlowupError",
    "MetricGrid", "PolarPoint", "GeodesicPath", "geodesic_integrate",
    "distance", "distance_profile", "save_metric_json", "load_metric_json",
    "kappa", "curve_angle", "f0_curve", "analyze", "AnalysisSummary",
    "twelve_point_configurations", "finiteness_check",
    "decompose_annuli", "extend_fk", "glue_f", "assemble_metric",
    "synthesize", "verify_synthesis", "verify_grid", "SynthesisResult",
    "SynthesisError",
    "CheckerConstants", "default_constants", "load_constants",
    "CheckerRecord", "CheckerReport",
]
