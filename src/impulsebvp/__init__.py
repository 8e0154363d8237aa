"""Solver and hypothesis auditor for second-order impulsive coupled
boundary-value problems on the half-line.

The problem class: u'' = f(t, u, v, u', v'), v'' = h(t, u, v, u', v') on
[0, inf) with u(0), v(0) and the derivative limits at +inf prescribed, and
jumps in value and derivative at unbounded schedules of impulse times.
The package reformulates it through the kernel G(t,s) = -min(t,s) as a
fixed-point equation, iterates the operator on a truncated working domain
with explicit tail accounting, verifies candidate solutions by residuals,
and audits the existence theorem's hypotheses numerically.
"""

from .audit import (CaratheodoryBounds, HypothesisReport, check_ball_invariance,
                    check_domination, check_impulse_bounds, compute_rho2,
                    compute_rho2_entries, run_audit, sample_ball_pair)
from .fnspace import (Mesh, PiecewiseC1Function, SolutionPair, apply_jump,
                      build_mesh, constant_fn, difference_norm, fn_lincomb,
                      norm_X, norm_deriv_sup, norm_weighted_sup, pair_lincomb)
from .kernel import boundary_weight_sup, green, kernel_weight_sup
from .manufactured import manufactured_problem
from .model import (BoundaryData, ImpulseMap, ImpulseSchedule,
                    ImpulsiveCoupledBVP, RhsFunction, ValidationReport,
                    staged, validate_problem)
from .operator import (EvaluationError, OperatorPlan, QuadratureConfig,
                       TruncationReport, apply_T, impulse_sums, problem_meshes,
                       semiinfinite_integral)
from .pendulum import (PendulumParams, build_pendulum_problem,
                       pendulum_bound_Phi, pendulum_bound_Psi)
from .problemfile import load_problem, load_problem_file
from .solver import (ResidualReport, SolveDiagnostics, SolverConfig,
                     initial_pair, solve, verify_residuals)

__version__ = "0.4.0"

__all__ = [
    "BoundaryData", "CaratheodoryBounds", "EvaluationError",
    "HypothesisReport", "ImpulseMap", "ImpulseSchedule",
    "ImpulsiveCoupledBVP", "Mesh", "OperatorPlan", "PendulumParams",
    "PiecewiseC1Function", "QuadratureConfig", "ResidualReport",
    "RhsFunction", "SolutionPair",
    "SolveDiagnostics", "SolverConfig", "TruncationReport",
    "ValidationReport", "apply_T", "apply_jump",
    "boundary_weight_sup", "build_mesh", "build_pendulum_problem",
    "check_ball_invariance", "check_domination", "check_impulse_bounds",
    "compute_rho2", "compute_rho2_entries", "constant_fn", "difference_norm",
    "fn_lincomb", "green", "impulse_sums", "initial_pair",
    "kernel_weight_sup", "load_problem", "load_problem_file",
    "manufactured_problem", "norm_X", "norm_deriv_sup", "norm_weighted_sup",
    "pair_lincomb", "pendulum_bound_Phi", "pendulum_bound_Psi",
    "problem_meshes", "run_audit", "sample_ball_pair",
    "semiinfinite_integral", "solve", "staged", "validate_problem",
    "verify_residuals",
]
