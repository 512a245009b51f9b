"""Numerical laboratory for graphical mean curvature flow out of cones.

The package solves the self-similar expanding profile over a mean convex
cone, evolves graphical perturbations of it with an implicit solver, and
certifies the comparison geometry (static and flowing barriers, glued
subsolutions, heat-kernel majorants) that pins the flow between computable
rails.  ``acceptance.run_acceptance`` executes the full battery of shipped
claims; the ``coneflow`` console script fronts everything.
"""

from .analysis import (DecayFit, clearing_out_experiment, clearing_out_scaling,
                       decay_fit, graph_area_bound_check)
from .barriers import (StaticBarrier, Subsolution, evolution_equation_residuals,
                       half_space_experiment, lemma_barrier_flow,
                       psi_identity_residual, static_barrier_w, wk_difference_fit)
from .cones import ConeProfile
from .errors import (CertificationError, DomainError, GridError, NewtonError,
                     ParameterError, ShootingError, StepFailureError)
from .expander import (ExpanderProfile, evaluate_U, expander_time_derivative,
                       solve_expander_profile)
from .experiments import (SCENARIOS, Scenario, run_family_uniform,
                          run_main_theorem, subsolution_dominance_experiment)
from .flow import FlowRun, SolverConfig, comparison_check, detect_t_delta, evolve
from .geometry import GridFunction, GridSpec, mean_curvature

__version__ = "0.1.0"

__all__ = [
    "CertificationError", "ConeProfile", "DecayFit", "DomainError",
    "ExpanderProfile", "FlowRun", "GridError", "GridFunction", "GridSpec",
    "NewtonError", "ParameterError", "SCENARIOS", "Scenario", "ShootingError",
    "SolverConfig", "StaticBarrier", "StepFailureError", "Subsolution",
    "clearing_out_experiment", "clearing_out_scaling", "comparison_check",
    "decay_fit", "detect_t_delta", "evaluate_U", "evolution_equation_residuals",
    "evolve", "expander_time_derivative", "graph_area_bound_check",
    "half_space_experiment", "lemma_barrier_flow", "mean_curvature",
    "psi_identity_residual", "run_family_uniform", "run_main_theorem",
    "solve_expander_profile", "static_barrier_w",
    "subsolution_dominance_experiment", "wk_difference_fit",
]
