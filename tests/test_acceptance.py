"""Shipping gate: one test per release criterion, one printed line each.

Every test ends by printing ``PASS criterion N: ...`` or ``FAIL criterion
N: ...`` directly to the terminal (capture is bypassed) so the gate can be
read off any pytest log. Tolerances, budgets, and seed counts here are
pinned. A red test in this module means the package does not ship; fix the
library, never the numbers.
"""

import csv
import statistics
import time

import numpy as np
import pytest

from noisygs import cli
from noisygs.mldemo import (BatchOracleConfig, accuracy, bce_loss_oracle,
                            init_weights, synth_dataset)
from noisygs.minnorm import GradientBundle, solve_min_norm
from noisygs.oracle import NoiseBounds, exact_oracle
from noisygs.problems import abs_composite, load_problem, max_of_linear
from noisygs.sampler import sample_ball
from noisygs.solver import SolverParams, run
from noisygs.stationarity import estimate_goldstein
from testkit import (files_identical, ks_critical_1pct, ks_statistic,
                             simplex_grid_min_norm)

pytestmark = [
    pytest.mark.filterwarnings("ignore:admissibility violations"),
    pytest.mark.filterwarnings("ignore:oracle is not deterministic"),
]


def report(capsys, ok: bool, line: str) -> None:
    with capsys.disabled():
        print(("PASS " if ok else "FAIL ") + line, flush=True)
    assert ok, line


def ball_columns(rng: np.random.Generator, n: int, c: int) -> np.ndarray:
    """Columns drawn uniformly from the closed unit ball, by rejection."""
    cols = np.empty((n, c))
    for j in range(c):
        while True:
            v = rng.uniform(-1.0, 1.0, size=n)
            if v @ v <= 1.0:
                cols[:, j] = v
                break
    return cols


def test_criterion_01_min_norm_agrees_with_the_grid_oracle(capsys):
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        c = int(rng.integers(2, 4))
        cols = ball_columns(rng, n, c)
        sol = solve_min_norm(GradientBundle(cols, np.zeros(n), 1.0))
        got = float(np.linalg.norm(sol.aggregate))
        grid = simplex_grid_min_norm(cols).best_norm
        worst = max(worst, abs(got - grid) / (1.0 + got))
    elapsed = time.perf_counter() - started
    ok = worst <= 3e-3 and elapsed < 5.0
    report(capsys, ok,
           f"criterion 1: 200 random bundles match the grid search within "
           f"3e-3 (worst scaled gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_every_solution_carries_the_optimality_certificate(capsys):
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    worst = -np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        c = int(rng.integers(2, 9))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        cols = scale * rng.normal(size=(n, c))
        sol = solve_min_norm(GradientBundle(cols, np.zeros(n), 1.0))
        g = sol.aggregate
        sq = float(g @ g)
        violation = (sq - float(np.min(cols.T @ g))) / (1.0 + sq)
        worst = max(worst, violation)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 10.0
    report(capsys, ok,
           f"criterion 2: certificate min g'c >= |g|^2 - 1e-8(1+|g|^2) on "
           f"1000 bundles (worst scaled violation {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_ball_sampler_has_the_right_radial_law(capsys):
    center = np.array([0.5, -2.0])
    radius = 2.5
    draws = sample_ball(center, radius, 10_000, master_seed=7, stream_id=0)
    r = np.linalg.norm(draws - center, axis=1) / radius
    contained = float(np.mean(r <= 1.0))
    stat = ks_statistic(r, lambda t: t ** 2)
    crit = ks_critical_1pct(10_000)
    ok = contained == 1.0 and stat < crit
    report(capsys, ok,
           f"criterion 3: 10^4 planar draws, containment {contained:.0%}, "
           f"radial KS {stat:.5f} < {crit:.5f}")


def test_criterion_04_noiseless_descent_on_the_nonsmooth_rosenbrock(capsys):
    problem = load_problem("rosenbrock")
    truth = problem.oracle.truth_access
    started = time.perf_counter()
    finals = []
    guarded = True
    for seed in range(10):
        oracle = problem.make_noisy(NoiseBounds(), seed)
        result = run(oracle, problem.spec.default_start,
                     SolverParams(eps_ls=1e-12, budget=5000, master_seed=seed))
        finals.append(float(truth.f(result.final_x)))
        cap = result.history[0].f_tilde
        guarded = guarded and all(rec.f_tilde <= cap for rec in result.history)
    elapsed = time.perf_counter() - started
    med = statistics.median(finals)
    ok = med <= 1e-3 and guarded and elapsed < 30.0
    report(capsys, ok,
           f"criterion 4: noiseless solves reach median true f {med:.2e} "
           f"<= 1e-3 with the sublevel guard intact ({elapsed:.1f}s)")


LEVELS = (0.1, 0.01, 0.001, 0.0001)


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """One four-level, ten-seed noise sweep shared by criteria 5 and 6."""
    out = tmp_path_factory.mktemp("sweep")
    cfg = out / "sweep.yaml"
    cfg.write_text(f"repeats: 10\nout: {out}\n")
    assert cli.main(["sweep", str(cfg)]) == 0
    return out


def read_sweep(sweep_dir):
    with open(sweep_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "eps_f"
    return rows[1:]


def test_criterion_05_final_error_orders_by_noise_level(sweep_dir, capsys):
    finals = {level: {} for level in LEVELS}
    for row in read_sweep(sweep_dir):
        finals[float(row[0])][int(row[1])] = float(row[2])
    medians = [statistics.median(finals[level].values()) for level in LEVELS]
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    wins = sum(finals[LEVELS[-1]][s] < finals[LEVELS[0]][s] for s in range(10))
    ok = decreasing and wins >= 8
    shown = " > ".join(f"{m:.3g}" for m in medians)
    report(capsys, ok,
           f"criterion 5: sweep medians decrease with the noise level "
           f"({shown}), lowest level beats highest in {wins}/10 paired seeds")


def test_criterion_06_stationary_sweep_runs_witness_the_terminal_bound(
        sweep_dir, capsys):
    checked = 0
    witnessed = 0
    for row in read_sweep(sweep_dir):
        if row[5] != "Stationary":
            continue
        cell = sweep_dir / "runs" / f"eps_f_{row[0]}_seed_{row[1]}"
        code = cli.main(["verify", str(cell)])
        out = capsys.readouterr().out
        checked += 1
        if code == 0 and "terminal bound met at k=" in out:
            witnessed += 1
    ok = checked >= 1 and witnessed == checked
    report(capsys, ok,
           f"criterion 6: verify confirms the terminal radius bound in "
           f"{witnessed}/{checked} stationary sweep runs")


def test_criterion_07_value_noise_can_flip_the_reported_sign(capsys):
    started = time.perf_counter()
    x = np.array([0.01])
    flipped = None
    for seed in range(1000):
        oracle = abs_composite(lambda t: t, lambda t: 1.0,
                               noise_bound=0.02, noise_seed=seed)
        if float(oracle.eval_g(x)[0]) == -1.0:
            flipped = seed
            break
    truth = abs_composite(lambda t: t, lambda t: 1.0, noise_bound=0.02,
                          noise_seed=0).truth_access
    true_grad = float(truth.g(x)[0])
    elapsed = time.perf_counter() - started
    ok = flipped is not None and true_grad == 1.0 and elapsed < 1.0
    report(capsys, ok,
           f"criterion 7: inside the noise band a seeded field reports "
           f"gradient -1 against true +1 (seed {flipped}, {elapsed:.2f}s)")


def test_criterion_08_goldstein_estimates_match_closed_forms(capsys):
    kink, _ = max_of_linear([[1.0], [-1.0]], [0.0, 0.0])
    at_kink = estimate_goldstein(kink, np.array([0.0]), eps=0.1,
                                 num_samples=1000, master_seed=3)
    smooth = exact_oracle(2, lambda x: 3.0 * x[0] + 4.0 * x[1],
                          lambda x: np.array([3.0, 4.0]))
    at_smooth = estimate_goldstein(smooth, np.zeros(2), eps=0.01,
                                   num_samples=64, master_seed=3)
    ok = at_kink.value <= 1e-6 and abs(at_smooth.value - 5.0) <= 1e-6
    report(capsys, ok,
           f"criterion 8: goldstein estimate {at_kink.value:.1e} <= 1e-6 at "
           f"the kink and |{at_smooth.value:.8f} - 5| <= 1e-6 on the smooth "
           f"objective")


def test_criterion_09_training_accuracy_orders_by_line_search_slack(capsys):
    data = synth_dataset(1024, 13, 4.0, seed=5)
    started = time.perf_counter()
    acc = {1.0: [], 1e-3: []}
    for seed in range(10):
        for eps_ls in acc:
            oracle = bce_loss_oracle(
                data, BatchOracleConfig(mode="fixed", batch_size=128,
                                        resample_seed=seed), hidden=10)
            result = run(oracle, init_weights(13, 10, seed),
                         SolverParams(eps_ls=eps_ls, budget=2000, m=10,
                                      master_seed=seed))
            acc[eps_ls].append(accuracy(data, result.final_x))
    elapsed = time.perf_counter() - started
    hits = sum(a >= 0.95 for a in acc[1.0])
    med_wide = statistics.median(acc[1.0])
    med_tiny = statistics.median(acc[1e-3])
    ok = hits >= 8 and med_tiny < med_wide and elapsed < 120.0
    report(capsys, ok,
           f"criterion 9: slack 1.0 trains to >=0.95 accuracy in {hits}/10 "
           f"seeds and beats slack 1e-3 on the median ({med_wide:.4f} vs "
           f"{med_tiny:.4f}, {elapsed:.0f}s)")


def test_criterion_10_rerunning_the_cli_reproduces_every_byte(tmp_path, capsys):
    args = ["run", "--eps-f", "1e-2", "--seed", "11", "--noise-seed", "4",
            "--budget", "150"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    ok = files_identical(a / "history.csv", b / "history.csv")
    report(capsys, ok,
           "criterion 10: two identical cli runs write byte-identical "
           "history files")
