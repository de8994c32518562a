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
        """Gradients at each row of points, as a (k, dims) array.

        An eval_g that can evaluate a whole stack at once carries that
        implementation as its `many` attribute. The batch travels with the
        callable, so a handle rebuilt around another eval_g calls that
        eval_g once per row instead.
        """
        points = np.asarray(points, dtype=float)
        many = getattr(self.eval_g, "many", None)
        if many is not None:
            return many(points)
        out = np.empty((len(points), self.dims))
        for i, point in enumerate(points):
            out[i] = self.eval_g(point)
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


def _key_digest(seed: int, tag: bytes, x, size: int) -> bytes:
    return hashlib.blake2b(_canonical_bytes(x) + _key_suffix(seed, tag), digest_size=size).digest()


def _keyed_rng(seed: int, tag: bytes, x) -> np.random.Generator:
    words = np.frombuffer(_key_digest(seed, tag, x, 32), dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words.tolist())))


def keyed_seed(seed: int, x, tag: bytes = b"") -> int:
    """Derive a point-keyed integer seed. Stable across processes."""
    return int.from_bytes(_key_digest(seed, tag, x, 8), "little")


_TWO_POW_M53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi
# Up to this dimension keyed_ball runs Box-Muller on one blake2b digest (at
# most 64 bytes: ceil(dim / 2) word pairs plus one radial word). Above it a
# Generator keyed by the digest is cheaper than a Python loop.
_DIGEST_BALL_MAX_DIM = 6


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
    """
    if radius == 0.0:
        return np.zeros(dim)
    if dim > _DIGEST_BALL_MAX_DIM:
        rng = _keyed_rng(seed, tag, x)
        direction = rng.standard_normal(dim)
        nrm = float(np.linalg.norm(direction))
        if nrm == 0.0:
            return np.zeros(dim)
        return direction * (radius * rng.random() ** (1.0 / dim) / nrm)
    count = _ball_word_count(dim)
    words = struct.unpack(f"<{count}Q", _key_digest(seed, tag, x, 8 * count))
    return np.array(_ball_from_words(words, radius, dim))


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


def _keyed_ball_rows(seed: int, points: Array, radius: float, tag: bytes) -> Array:
    """keyed_ball at every row of a (k, dim) stack, dim <= _DIGEST_BALL_MAX_DIM.

    The stack becomes canonical bytes once; each row's slice plus the key
    suffix is the same message keyed_ball hashes for that row.
    """
    k, dim = points.shape
    count = _ball_word_count(dim)
    unpack = struct.Struct(f"<{count}Q").unpack
    data = _canonical_bytes(points)
    suffix = _key_suffix(seed, tag)
    width = 8 * dim
    rows = [_ball_from_words(unpack(hashlib.blake2b(data[i:i + width] + suffix,
                                                    digest_size=8 * count).digest()),
                             radius, dim)
            for i in range(0, k * width, width)]
    return np.array(rows, dtype=float).reshape(k, dim)


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
        dist = np.linalg.norm(delta, axis=-1)
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
        def noisy_g(x, _g=truth.g):
            gx = np.asarray(_g(x), dtype=float)
            return clamp_ball(gx + keyed_ball(noise_seed, x, eps_g, n, b"g"), gx, eps_g)

        if n <= _DIGEST_BALL_MAX_DIM:
            noisy_g.many = _noisy_g_many(truth.g, eps_g, noise_seed)

    return OracleHandle(dims=n, eval_f=noisy_f, eval_g=noisy_g, truth_access=truth,
                        deterministic=True)


def _noisy_g_many(truth_g: Callable[[Array], Array], eps_g: float, noise_seed: int):
    """The noisy eval_g over a (k, n) stack, bit-identical to k single calls.

    clamp_ball treats every row of the stack as it treats the same row alone.
    """
    truth_many = getattr(truth_g, "many", None)

    def many(points: Array) -> Array:
        if truth_many is not None:
            exact = np.asarray(truth_many(points), dtype=float)
        else:
            exact = np.empty(points.shape)
            for i, point in enumerate(points):
                exact[i] = truth_g(point)
        return clamp_ball(exact + _keyed_ball_rows(noise_seed, points, eps_g, b"g"), exact, eps_g)

    return many
