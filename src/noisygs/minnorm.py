"""Nearest point in the convex hull of a finite gradient set.

Each iteration collects gradients at and around the current iterate and
aggregates them into the convex combination of minimum Euclidean norm. The
negated aggregate is the search direction, and its norm drives the
stationarity test and the sampling-radius update.

The solver is Wolfe's min-norm-point algorithm. A small "corral" of columns
carries convex weights w; each major cycle adds the most violating column.
The norm minimizer of the corral's affine hull, with affine weights v, is
accepted when every v_i > 0. Otherwise a minor cycle walks w toward v by
theta = min w_i / (w_i - v_i) over the v_i <= 0 (a term is 0 when w_i <= 0),
drops the vertex attaining it (lowest index on ties) and solves again.
Termination is certified, not assumed: the returned point g satisfies
min_i g.c_i >= |g|^2 - DEFAULT_TOL * (1 + |g|^2) over all columns c_i,
with the slack floored at _FLOOR_FACTOR * eps * max|c|^2 (eps the machine
epsilon). The floor is the resolution the certificate can be evaluated to
at all. g sums several columns, so its components carry absolute error of
order eps * max|c|, and g.c_i and |g|^2 carry error of order
eps * max|c|^2. A tighter slack asks the loop for digits the arithmetic
does not have: when the hull of large gradients holds or nearly holds the
origin it stalls (the most violating column is already in the corral) or
cycles until the cap, and the run ends in QPFailure.

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

_EPS = float(np.finfo(float).eps)

# Multiple of eps * max|c|^2 below which the certificate's slack is roundoff.
_FLOOR_FACTOR = 8.0


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
    c = P.shape[1]
    cap = 50 * c
    sq = np.einsum("ij,ij->j", P, P)
    floor = _FLOOR_FACTOR * _EPS * float(sq.max())
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
            # No progress is possible, and appending j twice would drop weight.
            raise MinNormNonConvergence(
                "min-norm aggregation stalled before reaching its certificate"
            )
        corral.append(j)
        w.append(0.0)
        while True:
            v, point = _affine_solve(P, corral)
            if all(vi > 0.0 for vi in v):
                x = point
                w = v
                break
            # Minor cycle (see the module notes).
            steps = [(wi / (wi - vi) if wi > 0.0 else 0.0, i)
                     for i, (wi, vi) in enumerate(zip(w, v)) if vi <= 0.0]
            if not steps:  # only a NaN weight fails both tests
                raise MinNormNonConvergence("min-norm affine solve gave a NaN weight")
            theta, i = min(steps)
            w = [(1.0 - theta) * wi + theta * vi for wi, vi in zip(w, v)]
            del corral[i], w[i]
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
    min_i g.c_i >= |g|^2 - DEFAULT_TOL * (1 + |g|^2), floored at the
    roundoff of g.c_i (see the module notes). Raises MinNormNonConvergence
    when the certificate cannot be met within 50 * c cycles, the most
    violating column is already in the corral (a stall), a squared column
    norm overflows, or an affine solve fails.
    """
    weights, aggregate = _min_norm_weights(bundle.columns)
    return QPSolution(weights=weights, aggregate=aggregate)
