"""Uniform sampling in Euclidean balls, organized as per-iteration substreams.

The solver draws a fresh batch of points around each iterate. Reproducibility
has to survive changes to the iteration budget, so every iteration gets its
own substream keyed by (master_seed, stream_id) instead of consuming one
shared generator.
"""

from __future__ import annotations

import numpy as np

from .oracle import clamp_ball


def sample_ball(center, radius: float, count: int, master_seed: int, stream_id: int) -> np.ndarray:
    """Draw `count` points uniformly from the closed ball B(center, radius).

    Returns a (count, n) array, one point per row, drawn on the substream
    keyed by (master_seed, stream_id). The same (center, radius, count,
    master_seed, stream_id) always reproduces the same points bit for bit.

    Direction is a normalized Gaussian vector, the radial factor is
    radius * U**(1/n). Membership in the closed ball is a hard guarantee,
    not an approximate one: oracle.clamp_ball pulls back any point that
    rounding left outside, and a point it cannot pull back becomes the
    center.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    if stream_id < 0:
        raise ValueError("stream_id must be nonnegative")
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(stream_id),))
    rng = np.random.Generator(np.random.PCG64(seq))
    center = np.asarray(center, dtype=float)
    if center.ndim != 1:
        raise ValueError("center must be a vector")
    if not np.all(np.isfinite(center)):
        raise ValueError("center must be finite")
    if not (np.isfinite(radius) and radius >= 0.0):
        raise ValueError("radius must be finite and nonnegative")
    if count < 1:
        raise ValueError("count must be at least 1")
    n = center.size
    directions = rng.standard_normal((count, n))
    norms = np.linalg.norm(directions, axis=1)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(count) ** (1.0 / n)
    return clamp_ball(center + directions * (radii / norms)[:, None], center, radius)
