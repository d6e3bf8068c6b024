"""Numerical laboratory for a degenerate divergence-form parabolic problem
on a truncated half-space strip: graded tensor meshes, exact singular-weight
assembly, theta-scheme marching, weighted norms, manufactured-solution
studies, and ratio checkers for the a-priori estimates.
"""

from .assembly import (AssemblyError, LoadAssembler, SparseOperator,
                       assemble_stiffness, assemble_weighted_mass, data_grams,
                       interior_pattern, model_stiffness, stiffness_levels,
                       weighted_pair_integrals, xd_weighted_pairs)
from .coefficients import (CoefficientField, OscillationReport,
                           check_structure_condition, generate_family,
                           identity_coefficients, oscillation,
                           oscillation_scan, sample_on_mesh)
from .fields import (DiscreteField, node_grid, random_w1p_field,
                     sample_nodes, smooth_random_closure)
from .harness import (CHECK_IDS, CHECKS, CSV_HEADER, DegenerateLocalSolution,
                      EstimateReport, ProblemSpec, boundary_lipschitz,
                      caccioppoli_ratio, corollary2_check, duality_check,
                      energy_ratio, hardy_report,
                      locally_homogeneous_solution, main_estimate_sweep,
                      trace_report, w_estimate_ratio)
from .mesh import (CellSet, Cylinder, TensorMesh, build_mesh,
                   cells_in_cylinder, prime_cells_in_cylinder)
from .mms import (ManufacturedCase, StudyTable, convergence_study,
                  default_case)
from .norms import (NormSpec, RatioReport, analytic_norm,
                    cell_center_gradients, error_norm, hardy_check,
                    levels_norm, second_difference_fields,
                    second_difference_magnitude, slice_norms, weighted_norm)
from .solver import (Marcher, SolverError, SpaceTimeSolution,
                     TimeStepperConfig, adjoint_march, adjoint_march_system,
                     linear_solve, march, march_system)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
