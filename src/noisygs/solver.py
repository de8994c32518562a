"""Gradient sampling loop for nonsmooth objectives with noisy oracles.

Each iteration draws a batch of points in a shrinking ball around the
iterate, collects noisy gradients there, and aggregates them into the
min-norm convex combination. A small aggregate means the iterate is
near-stationary at the current sampling radius, so the radius shrinks.
Otherwise the negated aggregate is the search direction for a backtracking
line search whose acceptance test carries additive slack for the value
noise. With bounded oracle errors the aggregate norm is eventually driven
below a floor determined by the noise levels; it cannot be pushed to zero.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .linesearch import backtrack
from .minnorm import GradientBundle, MinNormNonConvergence, solve_min_norm
from .oracle import NoiseBounds, OracleHandle
from .sampler import sample_ball


TRAJECTORY_MAX_DIMS = 3  # history keeps x, and the CLI writes trajectory.csv, up to here


class RunStatus(Enum):
    STATIONARY = "Stationary"
    BUDGET_EXHAUSTED = "BudgetExhausted"
    OBJECTIVE_DIVERGING = "ObjectiveDiverging"
    QP_FAILURE = "QPFailure"


@dataclass(frozen=True)
class SolverParams:
    """Knobs of the sampling loop.

    Defaults follow the practical configuration: tiny sufficient-decrease
    coefficient, halving backtracks, radius shrink factor 0.1, bundle size
    max(n + 1, 10), initial radius 10, and a step floor of 1e-20 instead of
    the radius-scaled cutoff (supply `lipschitz` to switch the cutoff over;
    `certify` also needs it for a finite terminal level).

    m: gradients drawn per iteration beyond the center; None resolves to
        max(n + 1, 10).
    eps_ls: line search slack; None resolves to max(2.1 * eps_f, 1e-12).
    eps_min: radius level that ends the run as near-stationary.
    alpha_min: the fixed step floor, a class constant rather than a field.
    f_low: value floor below which the objective counts as diverging.
    strict_requires: refuse to run when the admissibility conditions fail
        instead of recording them as warnings.
    """

    bounds: NoiseBounds = NoiseBounds()
    m: Optional[int] = None
    theta: float = 0.1
    gamma: float = 0.5
    eta: float = 1e-10
    nu: float = 1.0
    eps1: float = 10.0
    eps_ls: Optional[float] = None
    lipschitz: Optional[float] = None
    eps_min: float = 1e-6
    budget: int = 10_000
    f_low: float = -1e12
    master_seed: int = 0
    strict_requires: bool = False
    alpha_min: ClassVar[float] = 1e-20

    def __post_init__(self):
        # Mechanical sanity only; the theory-side admissibility conditions
        # are validate_params' business and are allowed to fail softly.
        if self.m is not None and self.m < 1:
            raise ValueError("m must be at least 1")
        if not (np.isfinite(self.eps1) and self.eps1 > 0.0):
            raise ValueError("eps1 must be positive and finite")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        for name, value in (("eps_ls", resolve_eps_ls(self.eps_ls, self.bounds.eps_f)),
                            ("lipschitz", self.lipschitz)):
            if value is not None and not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite")
        if not (np.isfinite(self.eps_min) and self.eps_min >= 0.0):
            raise ValueError("eps_min must be nonnegative and finite")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")


def resolve_m(m: Optional[int], dims: int) -> int:
    return int(m) if m is not None else max(dims + 1, 10)


def resolve_eps_ls(eps_ls: Optional[float], eps_f: float) -> float:
    if eps_ls is not None:
        return float(eps_ls)
    return max(2.1 * eps_f, 1e-12)


def validate_params(params: SolverParams, dims: int) -> list[str]:
    """Check the admissibility conditions of the convergence analysis.

    Returns human-readable violations and never raises; the caller decides
    whether they are fatal. An absent Lipschitz constant is itself reported,
    since two of the conditions cannot be checked without it.
    """
    out: list[str] = []
    m = resolve_m(params.m, dims)
    eps_f = params.bounds.eps_f
    eps_g = params.bounds.eps_g
    eps_ls = resolve_eps_ls(params.eps_ls, eps_f)
    if m < dims + 1:
        out.append(f"m = {m} is below dims + 1 = {dims + 1}")
    if not (0.0 < params.theta <= 1.0):
        out.append(f"theta = {params.theta} lies outside (0, 1]")
    if not (0.0 < params.eta < 0.5):
        out.append(f"eta = {params.eta} lies outside (0, 1/2)")
    if not (params.nu > 0.0):
        out.append(f"nu = {params.nu} must be positive")
    if not (eps_ls > 2.0 * eps_f):
        out.append(f"eps_ls = {eps_ls} must exceed twice eps_f = {eps_f}")
    if params.lipschitz is None:
        out.append(
            "no lipschitz constant supplied; the radius-scaled cutoff and the "
            "eps1 admissibility interval cannot be checked"
        )
    else:
        L = params.lipschitz
        if not (L > 2.0 * eps_g):
            out.append(f"lipschitz = {L} must exceed twice eps_g = {eps_g}")
        if params.eta > 0.0 and params.nu > 0.0:
            lo = terminal_bound_eps(params, eps_ls, L)
            hi = 3.0 * (L + eps_g)
            if not (lo < params.eps1 < hi):
                out.append(f"eps1 = {params.eps1} lies outside the admissible interval ({lo}, {hi})")
    return out


@dataclass(frozen=True)
class IterateRecord:
    """One row of run history.

    f_tilde is the noisy value at the iterate at the start of iteration k;
    f_true the exact value when truth is available. norm_g_tilde is the norm
    of the aggregated gradient, not of the raw gradient at the iterate.
    radius_reduced marks iterations that shrank the sampling radius instead
    of line searching. x is stored only when dims <= TRAJECTORY_MAX_DIMS.
    """

    k: int
    eps_k: float
    norm_g_tilde: float
    alpha: float
    backtracks: int
    f_tilde: float
    f_true: Optional[float]
    radius_reduced: bool
    x: Optional[np.ndarray] = None


@dataclass(frozen=True)
class IterationEvent:
    """Read-only per-iteration snapshot handed to an observer callback.

    record is the IterateRecord run appends to the history, x a copy of the
    iterate at any dimension, and g_center the raw noisy gradient at the
    iterate, before aggregation. Observers must not call the run's noisy
    oracle (stateful oracles would advance); truth evaluators are safe.
    """

    record: IterateRecord
    x: np.ndarray
    g_center: np.ndarray


@dataclass(frozen=True)
class Certificate:
    """Terminal-bound check of a finished run.

    level: radius level below which the terminal aggregate-norm bound
        applies; inf when params.lipschitz is not stated.
    bound: the aggregate-norm bound (nu / theta) * level.
    witness: first k of a radius-reduced row with eps_k <= level and
        norm_g_tilde <= (nu / theta) * eps_k, or None.
    vacuous: level >= eps1. Every row has eps_k <= eps1, so the level
        condition then rules nothing out.
    """

    level: float
    bound: float
    witness: Optional[int]
    vacuous: bool


@dataclass(frozen=True)
class RunResult:
    status: RunStatus
    final_x: np.ndarray
    history: tuple[IterateRecord, ...]
    certificate: Certificate
    f_evals: int
    g_evals: int
    warnings: tuple[str, ...] = field(default_factory=tuple)


def terminal_bound_eps(params: SolverParams, eps_ls: float, lipschitz: float) -> float:
    """Radius level below which the terminal aggregate-norm bound applies."""
    eps_g = params.bounds.eps_g
    cube = 6.0 * eps_ls * (lipschitz + eps_g) / (params.eta * params.gamma * params.nu ** 2)
    return max(cube ** (1.0 / 3.0), _noise_floor(eps_g))


def _noise_floor(eps_g: float) -> float:
    """The 5 eps_g floor: an aggregate norm below it is taken to be noise."""
    return 5.0 * eps_g


def radius_reduced(norm_g: float, eps_k: float, nu: float, eps_g: float) -> bool:
    """Whether an iteration with aggregate norm norm_g at radius eps_k shrinks
    the radius instead of line searching."""
    return norm_g <= max(nu * eps_k, _noise_floor(eps_g))


def step_cutoff(params: SolverParams, eps_k: float) -> float:
    """Shortest step the line search tries at sampling radius eps_k.

    The radius-scaled gamma * eps_k / (3 (lipschitz + eps_g)) when a Lipschitz
    bound is known, else the fixed floor alpha_min.
    """
    if params.lipschitz is None:
        return params.alpha_min
    return params.gamma * eps_k / (3.0 * (params.lipschitz + params.bounds.eps_g))


def certify(history: Sequence[IterateRecord], params: SolverParams,
            eps_ls: float) -> Certificate:
    """Check a run's history against the terminal bound.

    The level needs params.lipschitz, a bound for the region the run
    sampled; without it the level is inf and the certificate vacuous.
    """
    if params.lipschitz is None or not (params.eta > 0.0 and params.nu > 0.0):
        level = math.inf
    else:
        level = terminal_bound_eps(params, eps_ls, params.lipschitz)
    scale = params.nu / params.theta if params.theta > 0.0 else math.inf
    witness = next((rec.k for rec in history
                    if rec.radius_reduced
                    and rec.eps_k <= level
                    and rec.norm_g_tilde <= scale * rec.eps_k), None)
    return Certificate(level=float(level), bound=float(scale * level), witness=witness,
                       vacuous=level >= params.eps1)


def run(oracle: OracleHandle, x0, params: SolverParams = SolverParams(),
        observer: Optional[Callable[[IterationEvent], None]] = None) -> RunResult:
    """Minimize through the noisy oracle, starting at x0.

    The run ends when the sampling radius is shrunk to eps_min or below
    (Stationary), the iteration budget runs out (BudgetExhausted), the noisy
    value falls below f_low (ObjectiveDiverging), or the aggregation fails
    its certificate (QPFailure). Identical oracle seeds, parameters, and
    start point reproduce the result bit for bit.
    """
    n = oracle.dims
    x = np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")

    recorded = list(validate_params(params, n))
    if params.strict_requires and recorded:
        raise ValueError("admissibility violations: " + "; ".join(recorded))
    if recorded:
        _warnings.warn("admissibility violations: " + "; ".join(recorded),
                       RuntimeWarning, stacklevel=2)
    if not oracle.deterministic:
        msg = ("oracle is not deterministic per point; the bounded-error "
               "analysis does not cover this run")
        recorded.append(msg)
        _warnings.warn(msg, RuntimeWarning, stacklevel=2)

    m = resolve_m(params.m, n)
    eps_f = params.bounds.eps_f
    eps_g = params.bounds.eps_g
    eps_ls = resolve_eps_ls(params.eps_ls, eps_f)
    truth_f = oracle.truth_access.f if oracle.truth_access is not None else None
    small = n <= TRAJECTORY_MAX_DIMS

    f_x = float(oracle.eval_f(x))
    if math.isnan(f_x):
        # f(x0) caps every accepted value (backtrack's f1_cap).
        raise ValueError("f1_cap must not be NaN")
    f1_cap = f_x
    f_evals = 1
    g_evals = 0
    eps = float(params.eps1)
    history: list[IterateRecord] = []
    status = RunStatus.BUDGET_EXHAUSTED
    stack = np.empty((m + 1, n))  # the iterate, then its m sampled points

    for k in range(1, params.budget + 1):
        if f_x < params.f_low:
            status = RunStatus.OBJECTIVE_DIVERGING
            break
        stack[0] = x
        stack[1:] = sample_ball(x, eps, m, params.master_seed, k)
        columns = np.empty((n, m + 1))
        columns[:] = oracle.eval_g_many(stack).T
        g_evals += m + 1
        try:
            sol = solve_min_norm(GradientBundle(columns=columns, center=x, radius=eps))
        except MinNormNonConvergence:
            status = RunStatus.QP_FAILURE
            break
        agg = sol.aggregate
        gnorm = math.sqrt(float(agg @ agg))
        reduced = radius_reduced(gnorm, eps, params.nu, eps_g)
        if reduced:
            alpha = 0.0
            backtracks = 0
            eps_next = params.theta * eps
            x_next, f_next = x, f_x
        else:
            direction = -agg
            outcome = backtrack(oracle, x, direction, f_x, params.gamma, params.eta,
                                eps_ls, f1_cap, step_cutoff(params, eps))
            alpha = outcome.alpha
            backtracks = outcome.trial_count
            f_evals += outcome.trial_count
            eps_next = eps
            if alpha > 0.0:
                x_next = x + alpha * direction
                f_next = float(outcome.accepted_f)
            else:
                x_next, f_next = x, f_x
        record = IterateRecord(
            k=k, eps_k=eps, norm_g_tilde=gnorm, alpha=alpha, backtracks=backtracks,
            f_tilde=f_x, f_true=float(truth_f(x)) if truth_f is not None else None,
            radius_reduced=reduced, x=x.copy() if small else None,
        )
        history.append(record)
        if observer is not None:
            observer(IterationEvent(record=record, x=x.copy(), g_center=columns[:, 0].copy()))
        x, f_x, eps = x_next, f_next, eps_next
        if reduced and eps <= params.eps_min:
            status = RunStatus.STATIONARY
            break

    return RunResult(status=status, final_x=x, history=tuple(history),
                     certificate=certify(history, params, eps_ls),
                     f_evals=f_evals, g_evals=g_evals, warnings=tuple(recorded))
