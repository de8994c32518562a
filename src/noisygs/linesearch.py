"""Backtracking line search with a noise-compensated acceptance test.

A point is accepted when it beats the current value by the usual sufficient
decrease margin, loosened by an additive slack eps_ls that absorbs the
function noise (the slack must exceed twice the value-error bound or noise
alone can veto every step). Accepted points must also stay below the value
of the run's first iterate, which keeps the iterates in the initial sublevel
set even though noise can make individual acceptances non-monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class LineSearchOutcome:
    """alpha = 0 means no step was accepted before the cutoff.

    trial_count is the number of oracle value evaluations spent; accepted_f
    is the noisy value at the accepted point, None when alpha = 0.
    """

    alpha: float
    trial_count: int
    accepted_f: Optional[float]


def backtrack(oracle, x, direction, f_at_x: float, gamma: float, eta: float,
              eps_ls: float, f1_cap: float, min_step: float) -> LineSearchOutcome:
    """Try steps gamma^0, gamma^1, ... along direction until one is accepted.

    f_at_x must be the oracle value at x; it anchors the decrease test. The
    search gives up once gamma^j < min_step. Acceptance requires

        f(x + a d) < f_at_x - eta * a * |d|^2 + eps_ls   and
        f(x + a d) <= f1_cap.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    dd = float(d @ d)
    if dd == 0.0:
        raise ValueError("direction must be nonzero")
    if not (0.0 < gamma < 1.0 and min_step > 0.0):
        raise ValueError("backtracking needs 0 < gamma < 1 and min_step > 0")
    trials = 0
    j = 0
    while True:
        step = gamma ** j
        if step < min_step:
            return LineSearchOutcome(alpha=0.0, trial_count=trials, accepted_f=None)
        trial_f = float(oracle.eval_f(x + step * d))
        trials += 1
        if trial_f < f_at_x - eta * step * dd + eps_ls and trial_f <= f1_cap:
            return LineSearchOutcome(alpha=step, trial_count=trials, accepted_f=trial_f)
        j += 1
