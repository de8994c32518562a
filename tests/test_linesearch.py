"""Backtracking with relaxed sufficient decrease and two give-up rules."""

import numpy as np
import pytest

from noisygs.linesearch import LineSearchOutcome, backtrack
from noisygs.oracle import exact_oracle
from noisygs.solver import SolverParams, step_cutoff


def linear_descent_oracle():
    return exact_oracle(1, lambda x: float(x[0]), lambda x: np.ones(1))


def rising_oracle():
    return exact_oracle(1, lambda x: float(x[0] ** 2), lambda x: 2.0 * np.asarray(x))


def search(oracle, x, d, f_x, gamma=0.5, eta=1e-10, eps_ls=1e-12, f1_cap=np.inf,
           min_step=1e-20):
    return backtrack(oracle, x, d, f_x, gamma, eta, eps_ls, f1_cap, min_step)


def lipschitz_cutoff(eps_k):
    """The radius-scaled cutoff for L = 1, eps_g = 0: gamma * eps_k / 3."""
    return step_cutoff(SolverParams(lipschitz=1.0), eps_k)


def test_descent_direction_accepts_the_full_step():
    oracle = linear_descent_oracle()
    out = search(oracle, [0.0], [-1.0], 0.0)
    assert out.alpha == 1.0
    assert out.trial_count == 1
    assert out.accepted_f == -1.0


def test_partial_backtrack_on_a_curved_objective():
    # f(x) = x^2 from x = 1 along d = -2 (the negated gradient): the full
    # step reflects to -1 and ties, the halved step lands on the minimum.
    oracle = rising_oracle()
    out = search(oracle, [1.0], [-2.0], 1.0)
    assert out.alpha == 0.5
    assert out.trial_count == 2
    assert out.accepted_f == 0.0


def test_hopeless_search_exhausts_the_floor():
    """gamma^j stays >= 1e-20 for j <= 66, so exactly 67 steps get tried.

    A merely increasing objective is not enough here: close to the iterate
    the trial value rounds to f_at_x, which the eps_ls slack accepts. Use
    an oracle sitting eps_ls above everywhere instead.
    """
    wall = exact_oracle(1, lambda x: 10.0, lambda x: np.zeros(1))
    out = search(wall, [1.0], [1.0], 1.0, eta=0.4)
    assert out.alpha == 0.0
    assert out.trial_count == 67
    assert out.accepted_f is None


def test_slack_accepts_a_tiny_step_even_uphill():
    # Backtracking down a continuous objective must terminate with an
    # accepted step: once gamma^j is small enough the trial value sits
    # within eps_ls of f_at_x and passes the relaxed test.
    oracle = rising_oracle()
    out = search(oracle, [1.0], [1.0], 1.0, eta=0.4)
    assert out.alpha == 0.5 ** 42
    assert out.trial_count == 43
    assert out.accepted_f <= 1.0 + 1e-12


def test_radius_scaled_cutoff_stops_early():
    # Threshold gamma * eps_k / (3 (L + eps_g)) = 1/6: steps 1, 1/2, 1/4 are
    # tried and 1/8 falls under the line.
    oracle = rising_oracle()
    assert lipschitz_cutoff(1.0) == 0.5 / 3.0
    out = search(oracle, [1.0], [1.0], 1.0, eta=0.4, min_step=lipschitz_cutoff(1.0))
    assert out.alpha == 0.0
    assert out.trial_count == 3


def test_radius_scaled_cutoff_tracks_the_radius():
    # The give-up threshold is proportional to eps_k, so a smaller radius
    # lets the search backtrack deeper before quitting.
    oracle = rising_oracle()
    wide = search(oracle, [1.0], [1.0], 1.0, eta=0.4, min_step=lipschitz_cutoff(1.0))
    narrow = search(oracle, [1.0], [1.0], 1.0, eta=0.4, min_step=lipschitz_cutoff(1e-3))
    assert wide.trial_count == 3
    assert narrow.trial_count == 13
    assert narrow.alpha == wide.alpha == 0.0


def test_accepted_step_satisfies_the_relaxed_decrease():
    oracle = rising_oracle()
    x = np.array([3.0])
    d = np.array([-6.0])
    f_x = oracle.eval_f(x)
    out = search(oracle, x, d, f_x, eta=0.3, eps_ls=1e-6)
    assert out.alpha > 0.0
    trial = oracle.eval_f(x + out.alpha * d)
    assert trial == out.accepted_f
    assert trial < f_x - 0.3 * out.alpha * float(d @ d) + 1e-6


def test_rejected_prefixes_really_fail_the_test():
    """Every step larger than the accepted one must violate the decrease."""
    oracle = rising_oracle()
    x = np.array([3.0])
    d = np.array([-6.0])
    f_x = oracle.eval_f(x)
    out = search(oracle, x, d, f_x, eta=0.3, eps_ls=1e-6)
    j = int(round(np.log(out.alpha) / np.log(0.5)))
    assert 0.5 ** j == out.alpha
    for worse in range(j):
        step = 0.5 ** worse
        trial = oracle.eval_f(x + step * d)
        assert not (trial < f_x - 0.3 * step * float(d @ d) + 1e-6)


def test_slack_admits_a_rising_step():
    # f climbs from 0.01 to 0.36, well inside the eps_ls = 1 allowance.
    oracle = rising_oracle()
    out = search(oracle, [0.1], [0.5], 0.01, eta=1e-10, eps_ls=1.0)
    assert out.alpha == 1.0
    assert out.trial_count == 1
    assert out.accepted_f == pytest.approx(0.36)


def test_sublevel_cap_rejects_otherwise_acceptable_steps():
    # The same step as above fails once f1_cap forbids values over 0.2.
    oracle = rising_oracle()
    out = search(oracle, [0.1], [0.5], 0.01, eta=1e-10, eps_ls=1.0, f1_cap=0.2)
    assert out.alpha == 0.5
    assert out.accepted_f == pytest.approx(0.35 ** 2)


def test_zero_direction_rejected():
    with pytest.raises(ValueError):
        search(linear_descent_oracle(), [0.0], [0.0], 0.0)


def test_nonpositive_radius_rejected():
    # A zero radius makes the radius-scaled cutoff zero, and a search with
    # no positive cutoff could backtrack forever.
    assert lipschitz_cutoff(0.0) == 0.0
    with pytest.raises(ValueError):
        search(linear_descent_oracle(), [0.0], [1.0], 0.0, min_step=lipschitz_cutoff(0.0))


class TestParamValidation:
    """backtrack's own guard: the loop ends only for gamma in (0, 1) and a
    positive cutoff. The other constants are checked by SolverParams."""

    def test_gamma_range(self):
        for gamma in (0.0, 1.0, 1.5, np.nan):
            with pytest.raises(ValueError):
                search(linear_descent_oracle(), [0.0], [-1.0], 0.0, gamma=gamma)

    def test_cutoff_validation(self):
        assert step_cutoff(SolverParams(), 1.0) == 1e-20
        assert step_cutoff(SolverParams(alpha_min=1e-3, lipschitz=2.0), 1.0) == 0.5 / 6.0
        for min_step in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                search(linear_descent_oracle(), [0.0], [-1.0], 0.0, min_step=min_step)

    def test_eps_ls_positive_finite(self):
        # The slack backtrack receives is checked where it is set, in SolverParams.
        for eps_ls in (0.0, np.inf):
            with pytest.raises(ValueError, match="eps_ls must be positive"):
                SolverParams(eps_ls=eps_ls)

    def test_outcome_is_plain_data(self):
        out = LineSearchOutcome(alpha=0.5, trial_count=2, accepted_f=1.0)
        assert (out.alpha, out.trial_count, out.accepted_f) == (0.5, 2, 1.0)
