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
min_i g.c_i >= |g|^2 - DEFAULT_TOL * (1 + |g|^2) over all columns c_i, subject
to a floor of a few machine epsilons times the largest squared column norm,
which is the resolution the certificate can be evaluated to at all. The floor
matters when the hull of large gradients contains the origin: the optimum is
then exactly zero, and no float64 combination of 1e3-scale columns can cancel
below roughly 1e-13. If the aggregation stalls there anyway (the most
violating column is already in the corral) and the corral's affine hull is
all of R^n, the exact optimum is zero and it is returned as such.

The corral holds a handful of columns, so its weights are kept as a list of
Python floats: per-cycle NumPy calls on arrays that small cost more than
their arithmetic. Only the affine solve and the column scores use NumPy.
Every weight update does the float operations of the array form in the
same order, and sums follow NumPy's own order (sequential below 8 terms,
pairwise from 8), so both forms give the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10

# Corral weight below this counts as a vanished vertex.
_ZERO_WEIGHT = 1e-12
_EPS = float(np.finfo(float).eps)


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


def _total(values: list) -> float:
    """The sum numpy's add.reduce gives: in order below 8 terms, pairwise from 8."""
    if len(values) >= 8:
        return float(np.add.reduce(values))
    total = 0.0
    for value in values:
        total += value
    return total


def _affine_solve(P: np.ndarray, corral: list) -> tuple[list, np.ndarray]:
    """Min-norm point of the affine hull of the corral's columns, with coefficients.

    The constraint sum(v) = 1 is eliminated by anchoring on the first
    column: with S the corral's columns and D = S[:, 1:] - S[:, :1] the
    problem is the plain least squares min |S[:, 0] + D mu|, solved by
    lstsq, and the point is read off the residual. Working on column differences matters. Forming the
    KKT normal equations squares the column magnitudes, and on bundles of
    near-duplicate large gradients (both branches of a kink, say) that
    cancellation costs enough digits that the optimality certificate can
    become unreachable. Differences keep only the part that varies, and
    lstsq handles affinely dependent corrals without a special case.
    """
    base = P[:, corral[0]]
    if len(corral) == 1:
        return [1.0], base.copy()
    D = P[:, corral[1:]] - base[:, np.newaxis]
    try:
        mu = np.linalg.lstsq(D, -base, rcond=None)[0]
    except np.linalg.LinAlgError as exc:  # e.g. an SVD that does not converge
        raise MinNormNonConvergence(f"min-norm affine solve failed: {exc}") from exc
    point = base + D @ mu
    coefs = mu.tolist()
    return [1.0 - _total(coefs)] + coefs, point


def _min_norm_weights(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n, c = P.shape
    cap = 50 * c
    sq = np.einsum("ij,ij->j", P, P)
    # Below this slack the certificate is fp noise, not information.
    floor = 4.0 * _EPS * float(sq.max())
    if floor == np.inf:
        # An infinite floor would certify any point; overflowing differences
        # would also reach lstsq, whose LAPACK call prints to stdout.
        raise MinNormNonConvergence(
            "min-norm aggregation failed: squared column norms overflow"
        )
    corral = [int(sq.argmin())]
    w = [1.0]
    x = P[:, corral[0]].copy()
    for _ in range(cap):
        xx = float(x @ x)
        scores = x @ P
        j = int(scores.argmin())
        if scores[j] >= xx - max(DEFAULT_TOL * (1.0 + xx), floor):
            break
        if j in corral:
            # The most violating column is already in the corral, so no
            # further progress is possible. If the corral's affine hull is
            # all of R^n, its min-norm point is exactly zero and x only
            # missed the certificate by roundoff; otherwise this is a
            # numerical dead end.
            S = P[:, corral]
            if len(corral) > n and np.linalg.matrix_rank(S[:, 1:] - S[:, :1]) == n:
                x = np.zeros(n)
                break
            raise MinNormNonConvergence(
                "min-norm aggregation stalled before reaching its certificate"
            )
        corral.append(j)
        w.append(0.0)
        while True:
            v, point = _affine_solve(P, corral)
            if all(vi > _ZERO_WEIGHT for vi in v):
                x = point
                w = v
                break
            # Minor cycle: walk from w toward v until the first shrinking
            # weight reaches zero.
            ratios = [wi / (wi - vi) for wi, vi in zip(w, v)
                      if vi <= _ZERO_WEIGHT and wi - vi > 0.0]
            if ratios:
                theta = min(1.0, min(ratios))
                w = [(1.0 - theta) * wi + theta * vi for wi, vi in zip(w, v)]
                w = [0.0 if wi < _ZERO_WEIGHT else wi for wi in w]
            # A shrinking vertex with no usable ratio already carries zero
            # weight; either way, drop the lowest-index vanished vertex.
            vanished = [i for i, (wi, vi) in enumerate(zip(w, v))
                        if wi <= _ZERO_WEIGHT and vi <= _ZERO_WEIGHT]
            if not vanished:
                vanished = [i for i, wi in enumerate(w) if wi <= _ZERO_WEIGHT]
            if not vanished:
                raise MinNormNonConvergence(
                    "min-norm aggregation hit a degenerate corral"
                )
            del corral[vanished[0]]
            del w[vanished[0]]
            total = _total(w)
            w = [wi / total for wi in w]
    else:
        raise MinNormNonConvergence(
            f"min-norm aggregation missed its certificate within {cap} cycles"
        )
    weights = np.zeros(c)
    weights[corral] = w
    return weights, x


def solve_min_norm(bundle: GradientBundle) -> QPSolution:
    """Aggregate a gradient bundle into its min-norm convex combination.

    The result meets the relative optimality certificate
    min_i g.c_i >= |g|^2 - DEFAULT_TOL * (1 + |g|^2), floored at a few
    machine epsilons times the largest squared column norm (see the module
    notes). Raises MinNormNonConvergence when the certificate cannot be met
    within 50 * c cycles, a squared column norm overflows, or an affine
    solve fails.
    """
    weights, aggregate = _min_norm_weights(bundle.columns)
    return QPSolution(weights=weights, aggregate=aggregate)
