"""Nearest point in the convex hull of a finite gradient set.

Each iteration collects gradients at and around the current iterate and
aggregates them into the convex combination of minimum Euclidean norm. The
negated aggregate is the search direction, and its norm drives the
stationarity test and the sampling-radius update.

The solver is Wolfe's min-norm-point algorithm: keep a small "corral" of
columns, jump to the norm minimizer of the corral's affine hull, and
alternately add the most violating column (major cycle) or walk back to the
hull boundary and drop a vertex whose weight would turn negative (minor
cycle). Termination is certified, not assumed: the returned point g satisfies
min_i g.c_i >= |g|^2 - tol * (1 + |g|^2) over all columns c_i, subject to a
floor of a few machine epsilons times the largest squared column norm, which
is the resolution the certificate can be evaluated to at all. The floor
matters when the hull of large gradients contains the origin: the optimum is
then exactly zero, and no float64 combination of 1e3-scale columns can cancel
below roughly 1e-13.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10

# Corral weight below this counts as a vanished vertex.
_ZERO_WEIGHT = 1e-12


class MinNormNonConvergence(RuntimeError):
    """The optimality certificate was not reached within the iteration cap.

    Signals a numerical pathology in the gradient bundle; callers are
    expected to abort the surrounding run rather than continue with an
    uncertified direction.
    """


@dataclass(frozen=True)
class GradientBundle:
    """Gradient columns collected at and around one iterate.

    columns: (n, c) array with one gradient per column; by convention
        column 0 is the gradient at the center itself.
    center: iterate the bundle belongs to, shape (n,).
    radius: sampling radius the off-center columns were drawn from.
    """

    columns: np.ndarray
    center: np.ndarray
    radius: float

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        center = np.asarray(self.center, dtype=float)
        if cols.ndim != 2 or cols.shape[1] < 2:
            raise ValueError("bundle needs a 2d (n, c) column matrix with c >= 2")
        if center.shape != (cols.shape[0],):
            raise ValueError("center dimension does not match the columns")
        if not np.all(np.isfinite(cols)):
            raise ValueError("bundle columns must be finite")
        if not np.all(np.isfinite(center)):
            raise ValueError("bundle center must be finite")
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("bundle radius must be positive")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "center", center)


@dataclass(frozen=True)
class QPSolution:
    """Aggregation result.

    weights: simplex weights over every column, zeros off the final corral.
    aggregate: the min-norm convex combination the certificate was checked
        on; agrees with columns @ weights up to roundoff. The search
        direction is its negation.
    """

    weights: np.ndarray
    aggregate: np.ndarray


def _affine_solve(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-norm point of the affine hull of S's columns, with coefficients.

    The constraint sum(v) = 1 is eliminated by anchoring on the first
    column: with D = S[:, 1:] - S[:, :1] the problem is the plain least
    squares min |S[:, 0] + D mu|, solved by lstsq, and the point is read
    off the residual. Working on column differences matters. Forming the
    KKT normal equations squares the column magnitudes, and on bundles of
    near-duplicate large gradients (both branches of a kink, say) that
    cancellation costs enough digits that the optimality certificate can
    become unreachable. Differences keep only the part that varies, and
    lstsq handles affinely dependent corrals without a special case.
    """
    r = S.shape[1]
    base = S[:, 0]
    if r == 1:
        return np.ones(1), base.copy()
    D = S[:, 1:] - base[:, np.newaxis]
    mu = np.linalg.lstsq(D, -base, rcond=None)[0]
    point = base + D @ mu
    v = np.empty(r)
    v[0] = 1.0 - mu.sum()
    v[1:] = mu
    return v, point


def _min_norm_weights(P: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    n, c = P.shape
    cap = 50 * c
    sq = np.einsum("ij,ij->j", P, P)
    # Below this slack the certificate is fp noise, not information.
    floor = 4.0 * np.finfo(float).eps * float(np.max(sq))
    corral = [int(np.argmin(sq))]
    w = np.ones(1)
    x = P[:, corral[0]].copy()
    for _ in range(cap):
        xx = float(x @ x)
        scores = x @ P
        j = int(np.argmin(scores))
        if scores[j] >= xx - max(tol * (1.0 + xx), floor):
            break
        if j in corral:
            # The most violating column is already in the corral, so no
            # further progress is possible; with the certificate still
            # failing this is a numerical dead end.
            raise MinNormNonConvergence(
                "min-norm aggregation stalled before reaching its certificate"
            )
        corral.append(j)
        w = np.append(w, 0.0)
        while True:
            S = P[:, corral]
            v, point = _affine_solve(S)
            if np.all(v > _ZERO_WEIGHT):
                x = point
                w = v
                break
            shrinking = v <= _ZERO_WEIGHT
            denom = w - v
            safe = shrinking & (denom > 0.0)
            if safe.any():
                theta = min(1.0, float(np.min(w[safe] / denom[safe])))
                w = (1.0 - theta) * w + theta * v
                w[w < _ZERO_WEIGHT] = 0.0
            # A shrinking vertex with no usable ratio already carries zero
            # weight; either way, drop the lowest-index vanished vertex.
            vanished = np.flatnonzero((w <= _ZERO_WEIGHT) & shrinking)
            if vanished.size == 0:
                vanished = np.flatnonzero(w <= _ZERO_WEIGHT)
            if vanished.size == 0:
                raise MinNormNonConvergence(
                    "min-norm aggregation hit a degenerate corral"
                )
            drop = int(vanished[0])
            del corral[drop]
            w = np.delete(w, drop)
            w = np.clip(w, 0.0, None)
            w /= w.sum()
    else:
        raise MinNormNonConvergence(
            f"min-norm aggregation missed its certificate within {cap} cycles"
        )
    weights = np.zeros(c)
    weights[corral] = w
    return weights, x


def solve_min_norm(bundle: GradientBundle, tol: float = DEFAULT_TOL) -> QPSolution:
    """Aggregate a gradient bundle into its min-norm convex combination.

    tol controls the relative optimality certificate
    min_i g.c_i >= |g|^2 - tol * (1 + |g|^2), floored at a few machine
    epsilons times the largest squared column norm (see the module notes).
    Raises MinNormNonConvergence when the certificate cannot be met within
    50 * c cycles.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    weights, aggregate = _min_norm_weights(bundle.columns, tol)
    return QPSolution(weights=weights, aggregate=aggregate)
