"""First-order oracles with bounded, reproducible noise.

The solver only ever sees an OracleHandle: a function value field and a
gradient field that may each be wrong by a declared absolute amount. The
noise here is deterministic in the query point. Asking for the same x twice
returns the same corrupted values, which is the regime the convergence
analysis assumes (a fixed corrupted function, not a stochastic one).

Determinism comes from keying a pseudo-random function on the bytes of x:
no state is carried between calls, so evaluation order is irrelevant.

The bounds hold exactly in floating point. Adding noise can round a value
past its bound, so perturb_value holds a value to its interval with
clamp_scalar, and clamp_ball holds each gradient (and each of the sampler's
points) to its closed ball.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class NoiseBounds:
    """Absolute error bounds granted to a noisy oracle.

    eps_f bounds |f_noisy(x) - f(x)|, eps_g bounds the Euclidean distance
    from the reported gradient to some true subgradient at x. Both hold
    exactly, with no floating-point slack.
    """

    eps_f: float = 0.0
    eps_g: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.eps_f) and self.eps_f >= 0.0):
            raise ValueError("eps_f must be finite and nonnegative")
        if not (np.isfinite(self.eps_g) and self.eps_g >= 0.0):
            raise ValueError("eps_g must be finite and nonnegative")


@dataclass(frozen=True)
class TruthAccess:
    """Exact evaluators, used for verification and reporting only.

    f returns the exact value, g one valid subgradient. The solver never
    steps on either.
    """

    f: Callable[[Array], float]
    g: Callable[[Array], Array]


@dataclass(frozen=True)
class OracleHandle:
    """What the solver consumes: dimension plus two evaluation fields.

    deterministic promises that repeated queries at the same point return
    identical values. Oracles that break that promise (mini-batch style
    resampling) must say so; the solver then runs outside its supported
    contract and warns. meta is a mutable scratch area for oracle
    diagnostics such as sample counters; nothing in the solver reads it.
    """

    dims: int
    eval_f: Callable[[Array], float]
    eval_g: Callable[[Array], Array]
    truth_access: Optional[TruthAccess] = None
    deterministic: bool = True
    meta: dict = field(default_factory=dict)

    def eval_g_many(self, points) -> Array:
        """Gradients at each row of points, as a (k, dims) array."""
        return eval_rows(self.eval_g, points)


def eval_rows(fn: Callable[[Array], Array], points) -> Array:
    """fn at each row of a (k, n) stack of points, as a (k, n) array.

    fn's `many` attribute, when it has one, evaluates the whole stack and gives
    each row the bytes fn gives that row alone; otherwise fn runs once per row.
    """
    points = np.asarray(points, dtype=float)
    many = getattr(fn, "many", None)
    if many is not None:
        return np.asarray(many(points), dtype=float)
    out = np.empty(points.shape)
    for i, point in enumerate(points):
        out[i] = fn(point)
    return out


def exact_oracle(dims: int, f: Callable[[Array], float], g: Callable[[Array], Array]) -> OracleHandle:
    """Package exact callables as a noise-free oracle with truth attached."""
    return OracleHandle(dims=int(dims), eval_f=f, eval_g=g,
                        truth_access=TruthAccess(f=f, g=g))


def _canonical_bytes(x) -> bytes:
    # -0.0 + 0.0 is +0.0, so the two zeros key identical noise.
    return (np.asarray(x, dtype=np.float64) + 0.0).astype("<f8", copy=False).tobytes()


def _key_suffix(seed: int, tag: bytes) -> bytes:
    # A key is the canonical bytes of the point followed by this suffix.
    return b"|" + tag + b"|" + str(int(seed)).encode()


def _digest(message: bytes, size: int) -> bytes:
    # blake2b up to its 64-byte limit; beyond it shake_256, which has none.
    if size <= 64:
        return hashlib.blake2b(message, digest_size=size).digest()
    return hashlib.shake_256(message).digest(size)


def keyed_seed(seed: int, x, tag: bytes = b"") -> int:
    """Derive a point-keyed integer seed. Stable across processes."""
    return int.from_bytes(_digest(_canonical_bytes(x) + _key_suffix(seed, tag), 8), "little")


_TWO_POW_M53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi


def _unit(word: int) -> float:
    """The top 53 bits of a 64-bit word as k * 2**-53 in [0, 1), as numpy's random() does."""
    return (word >> 11) * _TWO_POW_M53


def _word_to_uniform(word: int, half_width: float) -> float:
    """Map a 64-bit word to [-half_width, half_width).

    2u - 1 is exact for u = k * 2**-53, so word 0 gives -half_width exactly
    and no word reaches +half_width after rounding.
    """
    return half_width * (2.0 * _unit(word) - 1.0)


def keyed_uniform(seed: int, x, half_width: float, tag: bytes = b"f") -> float:
    """Deterministic draw from [-half_width, half_width), keyed by (seed, x)."""
    if half_width == 0.0:
        return 0.0
    return _word_to_uniform(keyed_seed(seed, x, tag), half_width)


def keyed_ball(seed: int, x, radius: float, dim: int, tag: bytes = b"g") -> Array:
    """Deterministic draw from the closed ball of given radius, keyed by (seed, x).

    The direction is a normalised standard Gaussian, the radius radius * U**(1/dim).
    x is one point or a (k, m) stack; a stack gives a (k, dim) array whose
    rows are the draws each row would give alone.
    """
    points = np.asarray(x, dtype=float)
    rows = points.reshape(1, -1) if points.ndim < 2 else points
    k = len(rows)
    if radius == 0.0:
        draws = np.zeros((k, dim))
    else:
        # The stack becomes canonical bytes once; each row's slice plus the
        # key suffix is the message that row alone would hash.
        width = 8 * rows.shape[1]
        count = _ball_word_count(dim)
        unpack = struct.Struct(f"<{count}Q").unpack
        data = _canonical_bytes(rows)
        suffix = _key_suffix(seed, tag)
        digests = (_digest(data[i * width:(i + 1) * width] + suffix, 8 * count) for i in range(k))
        draws = np.array([_ball_from_words(unpack(d), radius, dim) for d in digests],
                         dtype=float).reshape(k, dim)
    return draws[0] if points.ndim < 2 else draws


def _ball_word_count(dim: int) -> int:
    # ceil(dim / 2) Box-Muller word pairs plus one radial word.
    return 2 * ((dim + 1) // 2) + 1


def _ball_from_words(words, radius: float, dim: int) -> list:
    """Turn _ball_word_count(dim) digest words into a point of the radius-ball."""
    gauss = []
    for i in range(0, len(words) - 1, 2):
        # Box-Muller, with the first uniform shifted to (0, 1] so log stays finite.
        r = math.sqrt(-2.0 * math.log(_unit(words[i]) + _TWO_POW_M53))
        t = _TWO_PI * _unit(words[i + 1])
        gauss += (r * math.cos(t), r * math.sin(t))
    del gauss[dim:]
    nrm = math.hypot(*gauss)
    if nrm == 0.0:
        return [0.0] * dim
    scale = radius * _unit(words[-1]) ** (1.0 / dim) / nrm
    return [g * scale for g in gauss]


def clamp_scalar(value: float, anchor: float, half_width: float) -> float:
    """Force |value - anchor| <= half_width exactly in floating point.

    Adding noise to a large anchor can round one ulp past the bound; the
    declared bound is a hard contract, so shave the spill off.
    """
    while abs(value - anchor) > half_width:
        value = float(np.nextafter(value, anchor))
    return value


def clamp_ball(value: Array, anchor: Array, radius: float) -> Array:
    """Force ||row - anchor||_2 <= radius exactly in floating point, row by row.

    value is one point or a (k, n) stack; anchor broadcasts against it.
    Rounding can leave a row just outside the closed ball, so each such row
    is pulled toward its anchor, at most 4 times, to (1 - 1e-13) of the
    radius. A row still outside (one ulp of the anchor can exceed the radius)
    becomes its anchor. value itself comes back when no row lies outside.
    """
    rows = np.atleast_2d(value)
    out = rows
    for pull in range(5):
        delta = out - anchor
        dist = _row_norms(delta, radius)
        bad = dist > radius
        if not bad.any():
            break
        if out is rows:
            out = rows.copy()
        anchors = np.broadcast_to(anchor, out.shape)[bad]
        if pull == 4:
            out[bad] = anchors
        else:
            out[bad] = anchors + delta[bad] * ((radius / dist[bad]) * (1.0 - 1e-13))[:, None]
    return value if out is rows else out.reshape(np.shape(value))


def _row_norms(delta: Array, radius: float) -> Array:
    """The Euclidean norm of each row of delta, whose rows lie near the radius.

    Offsets near a radius outside (1e-140, 1e140) square to below 1e-280 or
    above 1e280, where the sum of squares underflows or overflows. There the
    rows are scaled by a power of two that brings the radius to [0.5, 1).
    That scaling is exact: a norm that neither underflows nor overflows
    unscaled has the same bytes scaled.
    """
    if 1e-140 < radius < 1e140:
        return np.linalg.norm(delta, axis=-1)
    exponent = math.frexp(radius)[1]
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.norm(np.ldexp(delta, -exponent), axis=-1), exponent)


def perturb_value(value: float, seed: int, x, half_width: float, tag: bytes) -> float:
    """value plus keyed uniform noise on [-half_width, half_width], held to the bound."""
    return clamp_scalar(value + keyed_uniform(seed, x, half_width, tag), value, half_width)


def wrap_with_uniform_noise(exact: OracleHandle, bounds: NoiseBounds, noise_seed: int) -> OracleHandle:
    """Corrupt an exact oracle with independent uniform noise fields.

    Function noise is uniform on [-eps_f, eps_f]; gradient noise is uniform
    on the closed eps_g ball (Gaussian direction, radius eps_g * U**(1/n)).
    Both are keyed by (noise_seed, x), so the corrupted oracle is a fixed
    deterministic function. Degenerate bounds hand back the exact oracle.
    """
    if exact.truth_access is None:
        raise ValueError("wrapping requires an oracle with exact evaluators attached")
    truth = exact.truth_access
    n = exact.dims
    eps_f = float(bounds.eps_f)
    eps_g = float(bounds.eps_g)
    if eps_f == 0.0 and eps_g == 0.0:
        return exact

    if eps_f == 0.0:
        noisy_f = truth.f
    else:
        def noisy_f(x, _f=truth.f):
            return perturb_value(float(_f(x)), noise_seed, x, eps_f, b"f")

    if eps_g == 0.0:
        noisy_g = truth.g
    else:
        def many(points: Array) -> Array:
            # keyed_ball and clamp_ball treat every row of a stack as they
            # treat the same row alone, so a stack gets the bytes of k calls.
            grads = eval_rows(truth.g, points)
            noise = keyed_ball(noise_seed, points, eps_g, n, b"g")
            return clamp_ball(grads + noise, grads, eps_g)

        def noisy_g(x):
            return many(np.asarray(x, dtype=float).reshape(1, n))[0]

        noisy_g.many = many

    return OracleHandle(dims=n, eval_f=noisy_f, eval_g=noisy_g, truth_access=truth,
                        deterministic=True)
