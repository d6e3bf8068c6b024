"""Numerical laboratory for a degenerate divergence-form parabolic problem
on a truncated half-space strip: graded tensor meshes, exact singular-weight
assembly, theta-scheme marching, weighted norms, manufactured-solution
studies, and ratio checkers for the a-priori estimates.
"""

from .assembly import (AssemblyError, LoadAssembler, LoadVector,
                       SparseOperator, assemble_load, assemble_stiffness,
                       assemble_weighted_mass, data_grams, model_stiffness,
                       weighted_pair_integrals, xd_weighted_pairs)
from .coefficients import (CoefficientField, OscillationReport,
                           check_structure_condition, generate_family,
                           identity_coefficients, oscillation,
                           oscillation_scan, partial_averages,
                           sample_on_mesh)
from .fields import (DiscreteField, node_grid, random_w1p_field,
                     sample_nodes, smooth_random_closure)
from .harness import (CHECK_IDS, CSV_HEADER, DegenerateLocalSolution,
                      EstimateReport, ProblemSpec, boundary_lipschitz,
                      caccioppoli_ratio, corollary2_check, duality_check,
                      energy_ratio, hardy_report, interior_pointwise,
                      locally_homogeneous_solution, main_estimate_sweep,
                      run_parallel, trace_report, w_estimate_ratio)
from .mesh import (CellSet, Cylinder, TensorMesh, build_mesh,
                   cells_in_cylinder, prime_cells_in_cylinder)
from .mms import (ClosureError, ManufacturedCase, StudyTable,
                  convergence_study, default_case, nodal_residual)
from .norms import (NormSpec, RatioReport, SlopeReport, analytic_norm,
                    cell_center_gradients, error_norm, hardy_check,
                    levels_norm, second_difference_fields,
                    second_difference_magnitude, slice_norms,
                    trace_decay_check, weighted_norm)
from .solver import (SolverError, SpaceTimeSolution, TimeStepperConfig,
                     adjoint_march, adjoint_march_system, linear_solve,
                     march, march_system, steady_solve)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
