"""Output checks computed apart from noisygs.

Nothing here imports the package under test. Files are read with the
small parsers below and every value is recomputed from its own formula:
the nonsmooth Rosenbrock function and its gradient, the max-|pair|
objective, the MLP forward pass, the solver's bookkeeping rules and the
min-norm certificate. Each check returns a list of Failure records; an
empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

HISTORY_COLUMNS = ["k", "eps_k", "norm_g_tilde", "alpha", "backtracks", "f_tilde", "f_true"]
SWEEP_COLUMNS = ["eps_f", "seed", "final_f_true", "iters", "total_f_evals", "status"]
SUMMARY_COLUMNS = ["eps_ls", "final_accuracy", "final_f_true", "iters", "status",
                   "samples_total"]

# Relative agreement asked of two evaluations of one formula written in a
# different arithmetic order.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Failure:
    """One failed property: which check, where (an operation index or None
    for a property of the whole round) and what was seen."""

    check: str
    op: Optional[int]
    message: str


@dataclass(frozen=True)
class Row:
    k: int
    eps_k: float
    norm_g: float
    alpha: float
    backtracks: int
    f_tilde: float
    f_true: Optional[float]


@dataclass(frozen=True)
class SolverSettings:
    """The constants the bookkeeping rules need, as the run resolved them."""

    eps_f: float
    eps_g: float
    m: int
    theta: float = 0.1
    gamma: float = 0.5
    nu: float = 1.0
    alpha_min: float = 1e-20


# ---------------------------------------------------------------- parsing

def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Split an LF-terminated comma table into its header and rows."""
    text = Path(path).read_text(encoding="utf-8")
    if not text.endswith("\n") or "\r" in text:
        raise ValueError(f"{path}: not an LF-terminated table")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_history(path) -> list[Row]:
    header, rows = read_table(path)
    if header != HISTORY_COLUMNS:
        raise ValueError(f"{path}: header {header}")
    return [Row(int(r[0]), float(r[1]), float(r[2]), float(r[3]), int(r[4]), float(r[5]),
                float(r[6]) if r[6] else None) for r in rows]


def read_trajectory(path) -> np.ndarray:
    header, rows = read_table(path)
    if header[0] != "k":
        raise ValueError(f"{path}: header {header}")
    return np.array([[float(v) for v in r[1:]] for r in rows])


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def rows_from_records(history) -> list[Row]:
    """Rows from the IterateRecord objects a run call returned."""
    return [Row(r.k, r.eps_k, r.norm_g_tilde, r.alpha, r.backtracks, r.f_tilde, r.f_true)
            for r in history]


def stdout_field(text: str, key: str) -> Optional[str]:
    """Value of the first 'key: value' line of a command's output."""
    prefix = key + ": "
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


# ---------------------------------------------------------------- formulas

def rosenbrock(x: float, y: float) -> float:
    return (1.0 - x) ** 2 + 100.0 * abs(y - 2.0 * x * x + 1.0)


def rosenbrock_grad(x: float, y: float) -> np.ndarray:
    s = 1.0 if y - 2.0 * x * x + 1.0 >= 0.0 else -1.0
    return np.array([2.0 * (x - 1.0) - 400.0 * s * x, 100.0 * s])


def mlp_logits(w, X: np.ndarray, hidden: int) -> np.ndarray:
    """Forward pass of the flat weight layout W1 (hidden x p), b1, w2, b2."""
    p = X.shape[1]
    w = np.asarray(w, dtype=float)
    W1 = w[:hidden * p].reshape(hidden, p)
    b1 = w[hidden * p:hidden * (p + 1)]
    w2 = w[hidden * (p + 1):hidden * (p + 2)]
    hid = X @ W1.T + b1
    return np.where(hid > 0.0, hid, 0.0) @ w2 + w[-1]


def mlp_accuracy(w, X, labels, hidden: int) -> float:
    return float(np.mean((mlp_logits(w, X, hidden) >= 0.0) == (labels == 1.0)))


def mlp_bce(w, X, labels, hidden: int) -> float:
    z = mlp_logits(w, X, hidden)
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return float(np.mean(softplus - labels * z))


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(b))


# ---------------------------------------------------------------- checks

def check_history(rows: Sequence[Row], s: SolverSettings, *, op: Optional[int],
                  f_evals: int, g_evals: int, exact: Optional[Sequence[float]] = None,
                  iterates: Optional[np.ndarray] = None, final_x=None) -> list[Failure]:
    """Solver bookkeeping rules, recomputed row by row.

    exact: the exact objective at each row's iterate of a noise-bounded
    oracle; when given, f_true must agree with it and f_tilde must lie
    within eps_f of it. iterates: the iterates of a problem with n <= 3,
    used to check that each accepted step moved alpha * norm_g_tilde.
    """
    out: list[Failure] = []

    def fail(check, msg):
        out.append(Failure(check, op, msg))

    if [r.k for r in rows] != list(range(1, len(rows) + 1)):
        fail("history.k", "rows are not numbered 1..N")
    if not rows:
        return out
    cap = rows[0].f_tilde
    for r in rows:
        if r.f_tilde > cap:
            fail("sublevel_guard", f"k={r.k}: f_tilde {r.f_tilde!r} above first row {cap!r}")
            break
    if f_evals != 1 + sum(r.backtracks for r in rows):
        fail("eval_counts", f"f_evals {f_evals} != 1 + sum(backtracks)")
    if g_evals != (s.m + 1) * len(rows):
        fail("eval_counts", f"g_evals {g_evals} != (m+1) * {len(rows)} rows")
    cutoff_trials = 0
    while s.gamma ** cutoff_trials >= s.alpha_min:
        cutoff_trials += 1
    for r, nxt in zip(rows, list(rows[1:]) + [None]):
        reduced = r.norm_g <= max(s.nu * r.eps_k, 5.0 * s.eps_g)
        if reduced:
            if r.alpha != 0.0 or r.backtracks != 0:
                fail("radius_rule", f"k={r.k}: reduced row carries a step")
            if nxt is not None and nxt.eps_k != s.theta * r.eps_k:
                fail("radius_rule", f"k={r.k}: eps_k {nxt.eps_k!r} != theta * {r.eps_k!r}")
        else:
            if nxt is not None and nxt.eps_k != r.eps_k:
                fail("radius_rule", f"k={r.k}: eps_k changed without passing the test")
            if r.alpha > 0.0 and r.alpha != s.gamma ** (r.backtracks - 1):
                fail("step_rule", f"k={r.k}: alpha {r.alpha!r} != gamma^(backtracks-1)")
            if r.alpha == 0.0 and r.backtracks != cutoff_trials:
                fail("step_rule", f"k={r.k}: rejected search spent {r.backtracks} trials")
        if r.alpha == 0.0 and nxt is not None and nxt.f_tilde != r.f_tilde:
            fail("step_rule", f"k={r.k}: value moved without a step")
    if exact is not None:
        for r, fx in zip(rows, exact):
            if r.f_true is None or not close(r.f_true, fx):
                fail("exact_value", f"k={r.k}: f_true {r.f_true!r} != recomputed {fx!r}")
                break
            if abs(r.f_tilde - fx) > s.eps_f + 1e-12 * (1.0 + abs(fx)):
                fail("noise_bound", f"k={r.k}: |f_tilde - f| > eps_f = {s.eps_f!r}")
                break
    if iterates is not None:
        pts = np.vstack([iterates, np.asarray(final_x, dtype=float)[None, :]])
        for r, a, b in zip(rows, pts[:-1], pts[1:]):
            moved = float(np.linalg.norm(b - a))
            want = r.alpha * r.norm_g
            slack = 1e-9 * want + 8.0 * np.finfo(float).eps * (1.0 + float(np.abs(a).max()))
            if abs(moved - want) > slack:
                fail("step_length", f"k={r.k}: moved {moved!r}, alpha*|g| = {want!r}")
                break
    return out


def check_qp(columns: np.ndarray, weights: np.ndarray, aggregate: np.ndarray,
             tol: float) -> list[str]:
    """A min-norm result judged on its own terms: simplex weights, aggregate
    equal to columns @ weights, and the certificate up to its floor."""
    bad = []
    c = columns.shape[1]
    if weights.shape != (c,) or np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-9:
        bad.append("weights leave the simplex")
    scale = float(np.max(np.abs(columns)))
    if np.max(np.abs(columns @ weights - aggregate), initial=0.0) > 1e-9 * (1.0 + scale):
        bad.append("aggregate != columns @ weights")
    gg = float(aggregate @ aggregate)
    floor = 4.0 * np.finfo(float).eps * float(np.max(np.einsum("ij,ij->j", columns, columns)))
    if float(np.min(aggregate @ columns)) < gg - max(tol * (1.0 + gg), floor):
        bad.append("certificate min g.c_i >= |g|^2 - tol(1+|g|^2) fails")
    return bad


def check_sweep_rows(sweep_rows: Sequence[list[str]], cells: dict, *, op: int,
                     levels: Sequence[float], seeds: Sequence[int]) -> list[Failure]:
    """Each sweep.csv row against its run directory, and the paper-level
    ordering: the median final f_true falls with the noise level.

    cells maps (eps_f, seed) to {"meta": run.json, "rows": history rows}.
    """
    out: list[Failure] = []
    finals: dict[float, list[float]] = {float(level): [] for level in levels}
    seen = set()
    for row in sweep_rows:
        key = (float(row[0]), int(row[1]))
        seen.add(key)
        cell = cells.get(key)
        if cell is None or row[5].startswith("error"):
            out.append(Failure("sweep_row", op, f"row {row} has no run directory"))
            continue
        meta = cell["meta"]
        f_final = rosenbrock(*meta["final_x"])
        if not row[2] or not close(float(row[2]), f_final):
            out.append(Failure("sweep_row", op, f"{key}: final_f_true {row[2]} != {f_final!r}"))
        if int(row[3]) != len(cell["rows"]) or int(row[4]) != meta["f_evals"] \
                or row[5] != meta["status"]:
            out.append(Failure("sweep_row", op, f"{key}: iters/f_evals/status disagree"))
        finals[key[0]].append(f_final)
    want = {(float(level), int(seed)) for level in levels for seed in seeds}
    if seen != want or len(sweep_rows) != len(want):
        out.append(Failure("sweep_row", op, "sweep.csv does not hold one row per cell"))
    ordered = sorted(finals, reverse=True)
    medians = [statistics.median(finals[level]) if finals[level] else math.nan
               for level in ordered]
    if not all(a > b for a, b in zip(medians, medians[1:])):
        out.append(Failure("paper.noise_order", None,
                           f"median final f_true by falling eps_f is {medians}"))
    return out


def check_goldstein(text: str, final_x, *, op: int) -> list[Failure]:
    """verify --goldstein: 0 <= estimate <= |grad f(final_x)|."""
    field = stdout_field(text, "goldstein estimate")
    if field is None:
        return [Failure("goldstein", op, "no goldstein estimate printed")]
    value = float(field.split()[0])
    bound = float(np.linalg.norm(rosenbrock_grad(*final_x)))
    if not (0.0 <= value <= bound * (1.0 + REL_TOL) + 1e-12):
        return [Failure("goldstein", op, f"estimate {value!r} outside [0, {bound!r}]")]
    return []


def check_verify_text(text: str, meta: dict, rows: int, *, op: int) -> list[Failure]:
    if stdout_field(text, "status") != meta["status"] or \
            stdout_field(text, "iterations") != str(rows):
        return [Failure("verify_output", op, "status or iteration count disagrees")]
    return []


def check_training(summary_path, arms: dict, X, labels, hidden: int,
                   *, op: int) -> list[Failure]:
    """train_summary.csv against the final weights captured from each run
    call: accuracy and full-data loss recomputed by the forward pass above.

    arms maps eps_ls to (final weights, iteration count, status string).
    """
    out: list[Failure] = []
    header, rows = read_table(summary_path)
    if header != SUMMARY_COLUMNS or len(rows) != len(arms):
        return [Failure("train_summary", op, "summary has the wrong shape")]
    for row in rows:
        eps_ls = float(row[0])
        if eps_ls not in arms:
            out.append(Failure("train_summary", op, f"unexpected arm {row[0]}"))
            continue
        w, iters, status = arms[eps_ls]
        acc = mlp_accuracy(w, X, labels, hidden)
        loss = mlp_bce(w, X, labels, hidden)
        if float(row[1]) != acc:
            out.append(Failure("mlp_forward", op, f"eps_ls={row[0]}: accuracy {row[1]} != {acc!r}"))
        if not close(float(row[2]), loss):
            out.append(Failure("mlp_forward", op, f"eps_ls={row[0]}: f_true {row[2]} != {loss!r}"))
        if int(row[3]) != iters or row[4] != status:
            out.append(Failure("train_summary", op, f"eps_ls={row[0]}: iters/status disagree"))
    return out


def check_train_metrics(path, rows: Sequence[Row], *, op: int) -> list[Failure]:
    """A per-arm metrics CSV holds one row per iteration whose f_true is the
    value the run call recorded, written without loss."""
    header, table = read_table(path)
    col = header.index("f_true") if "f_true" in header else None
    if col is None or len(table) != len(rows):
        return [Failure("train_metrics", op, f"{Path(path).name}: wrong shape")]
    for line, r in zip(table, rows):
        if float(line[col]) != r.f_true:
            return [Failure("train_metrics", op, f"{Path(path).name}: k={r.k} f_true differs")]
    return []


def check_training_order(accuracies: dict[float, list[float]]) -> list[Failure]:
    """Paper-level: the wide-slack arm beats the tiny-slack arm on median accuracy."""
    wide = statistics.median(accuracies[max(accuracies)])
    tiny = statistics.median(accuracies[min(accuracies)])
    if not wide > tiny:
        return [Failure("paper.slack_order", None,
                        f"median accuracy {wide!r} (wide) vs {tiny!r} (tiny)")]
    return []
