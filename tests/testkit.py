"""Slow, simple reference implementations used to cross-check the fast code.

Everything here favors obviousness over speed. It lives with the tests and
is no part of the installed package.
"""

from __future__ import annotations

import filecmp
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class GridOracleResult:
    best_weights: np.ndarray
    best_norm: float
    resolution: float


@lru_cache(maxsize=8)
def _weight_grid(count: int, steps: int) -> np.ndarray:
    """All simplex weight vectors of length count on a grid of 1/steps."""
    ticks = np.linspace(0.0, 1.0, steps + 1)
    if count == 2:
        return np.column_stack([ticks, 1.0 - ticks])
    if count == 3:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        a, b = a.ravel(), b.ravel()
        keep = a + b <= 1.0 + 1e-12
        a, b = a[keep], b[keep]
        return np.column_stack([a, b, 1.0 - a - b])
    raise ValueError("only 2 or 3 columns are supported")


def simplex_grid_min_norm(columns: np.ndarray, resolution: float = 1e-3) -> GridOracleResult:
    """Brute-force min of ||columns @ w|| over simplex weights w on a grid.

    Supports 2 or 3 columns. The grid value is within Lipschitz-of-the-norm
    times the grid spacing of the true minimum, so callers should compare
    with a tolerance proportional to the column magnitudes times resolution.
    """
    columns = np.asarray(columns, dtype=float)
    if columns.ndim != 2:
        raise ValueError("columns must be a 2d array")
    if not (0.0 < resolution <= 1.0):
        raise ValueError("resolution must lie in (0, 1]")
    count = columns.shape[1]
    steps = max(1, round(1.0 / resolution))
    weights = _weight_grid(count, steps)
    norms = np.linalg.norm(weights @ columns.T, axis=1)
    best = int(np.argmin(norms))
    return GridOracleResult(best_weights=weights[best].copy(),
                            best_norm=float(norms[best]),
                            resolution=float(resolution))


def finite_diff_grad(f, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient. Only trustworthy away from kinks."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = h
        out[i] = (f(x + bump) - f(x - bump)) / (2.0 * h)
    return out


def ks_statistic(samples, cdf) -> float:
    """Kolmogorov-Smirnov sup distance between samples and a reference cdf."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("need at least one sample")
    F = np.asarray([cdf(v) for v in xs], dtype=float)
    ranks = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(ranks / n - F))
    d_minus = float(np.max(F - (ranks - 1.0) / n))
    return max(d_plus, d_minus)


def ks_critical_1pct(n: int) -> float:
    """Asymptotic 1% critical value for the one-sample KS statistic."""
    return 1.628 / math.sqrt(n)


def binomial_tail(n: int, k: int, p: float) -> float:
    """Probability of k or more successes among n independent trials at rate p.

    Exact summation; meant for sizing thresholds like "at least 8 of 10
    seeds" so the flake probability of a test is known.
    """
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    return float(sum(math.comb(n, j) * p ** j * (1.0 - p) ** (n - j)
                     for j in range(k, n + 1)))


def files_identical(path_a, path_b) -> bool:
    return filecmp.cmp(str(path_a), str(path_b), shallow=False)
