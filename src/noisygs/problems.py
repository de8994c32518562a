"""Benchmark objectives with exact first-order information attached.

Each constructor returns an exact OracleHandle (truth included) plus a
ProblemSpec holding the canonical start and, where one is known, a global
Lipschitz constant. The registry maps command-line names onto these
constructors and knows how to attach noise to each problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .oracle import (
    NoiseBounds,
    OracleHandle,
    TruthAccess,
    exact_oracle,
    perturb_value,
    wrap_with_uniform_noise,
)


@dataclass(frozen=True)
class ProblemSpec:
    """Static facts about a benchmark problem."""

    default_start: np.ndarray
    lipschitz_hint: Optional[float] = None


def rosenbrock_ns() -> tuple[OracleHandle, ProblemSpec]:
    """Nonsmooth Rosenbrock variant f(x, y) = (1-x)^2 + 100 |y - 2x^2 + 1|.

    The valley |y - 2x^2 + 1| = 0 is a kink; the minimizer (1, 1) with value
    0 sits on it. The subgradient selection resolves the kink to the +1
    branch of the absolute value.
    """

    def f(v):
        x, y = float(v[0]), float(v[1])
        return (1.0 - x) ** 2 + 100.0 * abs(y - 2.0 * x * x + 1.0)

    def _branch(x, s):
        return np.array([-2.0 * (1.0 - x) - 400.0 * s * x, 100.0 * s])

    def g(v):
        x, y = float(v[0]), float(v[1])
        t = y - 2.0 * x * x + 1.0
        return _branch(x, 1.0 if t >= 0.0 else -1.0)

    def g_many(points):
        # g at each row of a (k, 2) stack, with g's float operations in g's order.
        x, y = points[:, 0], points[:, 1]
        s = np.where(y - 2.0 * x * x + 1.0 >= 0.0, 1.0, -1.0)
        return np.column_stack([-2.0 * (1.0 - x) - 400.0 * s * x, 100.0 * s])

    g.many = g_many

    return exact_oracle(2, f, g), ProblemSpec(default_start=np.array([-1.2, 1.0]))


def abs_composite(phi: Callable[[float], float], dphi: Callable[[float], float],
                  noise_bound: float = 0.02, noise_seed: int = 0) -> OracleHandle:
    """One-dimensional objective |phi(x)| whose oracle owns a noisy view of phi.

    The reported value is f(x) plus uniform noise within noise_bound. The
    reported gradient branches on a NOISY phi value (its own keyed field,
    same bound): -phi'(x) if the noisy phi is negative, 0 if it is exactly
    zero, phi'(x) if positive. Near a zero of phi the noisy sign can flip,
    so the gradient field can point away from every true subgradient; no
    gradient error bound below 2 sup|phi'| covers that. This is the standard
    cautionary example for bounded-gradient-error assumptions.
    """
    if not (noise_bound >= 0.0 and np.isfinite(noise_bound)):
        raise ValueError("noise_bound must be finite and nonnegative")

    def f_true(v):
        return abs(float(phi(float(v[0]))))

    def g_true(v):
        x = float(v[0])
        s = 1.0 if phi(x) >= 0.0 else -1.0
        return np.array([s * float(dphi(x))])

    def phi_noisy(v):
        return perturb_value(float(phi(float(v[0]))), noise_seed, v, noise_bound, b"phi")

    def f_noisy(v):
        return perturb_value(f_true(v), noise_seed, v, noise_bound, b"f")

    def g_noisy(v):
        p = phi_noisy(v)
        d = float(dphi(float(v[0])))
        if p < 0.0:
            return np.array([-d])
        if p == 0.0:
            return np.array([0.0])
        return np.array([d])

    return OracleHandle(dims=1, eval_f=f_noisy, eval_g=g_noisy,
                        truth_access=TruthAccess(f=f_true, g=g_true))


def max_of_linear(A, b) -> tuple[OracleHandle, ProblemSpec]:
    """Polyhedral objective f(x) = max_i (a_i . x + b_i).

    The subgradient selection returns the row of the first maximizing index.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1:
        raise ValueError("A must be a nonempty (p, n) matrix")
    if b.shape != (A.shape[0],):
        raise ValueError("b length must match the number of rows of A")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("pieces must be finite")
    n = A.shape[1]

    def f(x):
        return float(np.max(A @ x + b))

    def g(x):
        vals = A @ x + b
        return A[int(np.argmax(vals))].copy()

    spec = ProblemSpec(
        default_start=np.zeros(n),
        lipschitz_hint=float(np.max(np.linalg.norm(A, axis=1))),
    )
    return exact_oracle(n, f, g), spec


@dataclass(frozen=True)
class Problem:
    """A registry entry: exact oracle, facts, and a noise constructor."""

    oracle: OracleHandle
    spec: ProblemSpec
    make_noisy: Callable[[NoiseBounds, int], OracleHandle]


def _wrapped(oracle: OracleHandle, spec: ProblemSpec) -> Problem:
    """A problem whose noisy oracle is the uniform noise wrapper around its
    exact one; the wrapper is looked up each time a noisy oracle is made."""
    return Problem(oracle=oracle, spec=spec,
                   make_noisy=lambda bounds, noise_seed: wrap_with_uniform_noise(
                       oracle, bounds, noise_seed))


def _identity(x: float) -> float:
    return x


def _one(x: float) -> float:
    return 1.0


def load_problem(name: str) -> Problem:
    """Resolve a problem name.

    Known names: "rosenbrock", "abs_composite", and "max_linear:<file>"
    where the file holds one piece per text row, the n coefficients of a_i
    followed by b_i, whitespace separated.

    For abs_composite the noise lives inside the problem itself (the noisy
    phi sign drives the gradient), so its noise constructor reuses eps_f as
    the phi and value noise bound and ignores eps_g.
    """
    if name == "rosenbrock":
        return _wrapped(*rosenbrock_ns())
    if name == "abs_composite":
        oracle = abs_composite(_identity, _one, noise_bound=0.0)
        spec = ProblemSpec(
            default_start=np.array([1.0]),
            lipschitz_hint=1.0,
        )
        return Problem(
            oracle=oracle,
            spec=spec,
            make_noisy=lambda bounds, noise_seed: abs_composite(
                _identity, _one, noise_bound=bounds.eps_f, noise_seed=noise_seed),
        )
    if name.startswith("max_linear:"):
        path = name.split(":", 1)[1]
        if not path:
            raise ValueError("max_linear needs a file path, e.g. max_linear:pieces.txt")
        data = np.loadtxt(path, ndmin=2)
        if data.shape[1] < 2:
            raise ValueError("each row must hold at least one coefficient and an offset")
        return _wrapped(*max_of_linear(data[:, :-1], data[:, -1]))
    raise ValueError(
        f"unknown problem {name!r}; expected rosenbrock, abs_composite, or max_linear:<file>"
    )
