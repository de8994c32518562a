"""Post-hoc stationarity measurement using exact gradients.

The measure is the distance from zero to the convex hull of gradients
collected in a ball around a point. For a smooth function and a small ball
it reduces to the gradient norm; near a kink of a nonsmooth function it
drops toward zero as the hull starts straddling the origin. It needs truth
access, so it is a diagnostic for benchmark problems, not something the
solver itself can use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .minnorm import GradientBundle, solve_min_norm
from .oracle import OracleHandle, eval_rows
from .sampler import sample_ball


@dataclass(frozen=True)
class StationarityEstimate:
    value: float
    witness: np.ndarray
    eps: float
    sample_count: int


def estimate_goldstein(oracle: OracleHandle, x, eps: float, num_samples: int,
                       master_seed: int = 0, stream_id: int = 0,
                       tol: float = 1e-10) -> StationarityEstimate:
    """Min-norm element of the hull of exact gradients sampled in a ball.

    Gradients are taken at x itself plus num_samples points drawn uniformly
    in the radius-eps ball around x. The returned value is the norm of the
    aggregated gradient and the witness is the aggregate itself.
    """
    if oracle.truth_access is None:
        raise ValueError("stationarity estimation needs truth access")
    n = oracle.dims
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},)")
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    if num_samples < n + 1:
        raise ValueError(f"num_samples must be at least dims + 1 = {n + 1}")

    points = np.vstack([x, sample_ball(x, eps, num_samples, master_seed, stream_id)])
    columns = np.ascontiguousarray(eval_rows(oracle.truth_access.g, points).T)
    sol = solve_min_norm(GradientBundle(columns=columns, center=x, radius=eps), tol)
    return StationarityEstimate(value=float(np.linalg.norm(sol.aggregate)),
                                witness=sol.aggregate, eps=float(eps),
                                sample_count=num_samples)
