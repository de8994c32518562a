"""Gradient sampling for nonsmooth objectives evaluated through noisy oracles.

The solver tolerates bounded deterministic errors in both function values
and generalized gradients: it samples gradients in a shrinking ball, takes
the minimum-norm element of their convex hull as the search direction, and
runs a backtracking line search whose acceptance test carries additive
slack for the value noise. See the README for the CLI harness.
"""

from .minnorm import GradientBundle, solve_min_norm
from .oracle import NoiseBounds, OracleHandle, exact_oracle, wrap_with_uniform_noise
from .problems import load_problem
from .sampler import sample_ball
from .solver import SolverParams, run, validate_params
from .stationarity import estimate_goldstein

__version__ = "0.1.0"

__all__ = [
    "GradientBundle",
    "NoiseBounds",
    "OracleHandle",
    "SolverParams",
    "estimate_goldstein",
    "exact_oracle",
    "load_problem",
    "run",
    "sample_ball",
    "solve_min_norm",
    "validate_params",
    "wrap_with_uniform_noise",
]
