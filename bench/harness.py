"""In-process execution of noisygs commands, with capture and tracing.

Harness runs `noisygs.cli.main` for one command line at a time, times it,
keeps its standard output, and records what every `run` call inside it
returned (the checks compare it with the files written, and need train's
final weights, which no output file holds).

Tracer records spans and counters around the package's public functions
while a traced round runs. It patches each name where the caller looks it
up (`noisygs.solver.solve_min_norm`, not `noisygs.minnorm.solve_min_norm`)
and wraps an exact oracle before `wrap_with_uniform_noise` captures its
callables. A span's self time is its duration minus its child spans. The
tracer's own checks run inside "bench" spans, which are subtracted from
their parents like any child and reported nowhere.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

import noisygs.cli
import noisygs.mldemo
import noisygs.oracle
import noisygs.problems
import noisygs.solver
from checks import check_qp


@dataclass
class RunCapture:
    params: object
    result: object


@dataclass
class OpRecord:
    argv: list
    code: Optional[int]
    stdout: str
    seconds: float
    iterations: int
    reductions: int
    captures: list = field(default_factory=list)
    error: Optional[str] = None
    violations: list = field(default_factory=list)


@contextlib.contextmanager
def patched(patches):
    """Set (object, attribute, value) triples, restoring them on exit."""
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
    try:
        for obj, name, value in patches:
            setattr(obj, name, value)
        yield
    finally:
        for obj, name, value in reversed(saved):
            setattr(obj, name, value)


class Tracer:
    """Span and counter store for traced rounds."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counts = defaultdict(int)
        self.violations: list[str] = []
        self._stack = [0.0]

    def timed(self, name, fn, inspect=None):
        """Wrap fn in a span; inspect(result, *args) runs afterwards as bench time."""
        stats, bench, stack = self.stats[name], self.stats["bench"], self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
            if inspect is not None:
                t1 = perf_counter()
                inspect(result, *args, **kwargs)
                spent = perf_counter() - t1
                stack[-1] += spent
                bench[1] += spent
            return result

        return wrapper

    # -- inspections, run as bench time

    def _qp(self, sol, bundle, tol=1e-10):
        cols = bundle.columns
        self.counts["minnorm.columns"] += cols.shape[1]
        self.counts["minnorm.corral"] += int(np.count_nonzero(sol.weights > 0.0))
        for problem in check_qp(cols, sol.weights, sol.aggregate, tol):
            self.violations.append(f"solve_min_norm: {problem}")

    def _ls(self, outcome, *args):
        self.counts["linesearch.trials"] += outcome.trial_count
        self.counts["linesearch.accepted"] += outcome.alpha > 0.0

    def _rows(self, result, w, X, *args):
        self.counts["mldemo.rows"] += X.shape[0]

    def _bytes(self, result, path, text):
        self.counts["cli.bytes"] += len(text.encode("utf-8"))

    def _clamp(self, fn):
        def wrapper(value, anchor, bound):
            out = fn(value, anchor, bound)
            if out is not value and not np.array_equal(out, value):
                self.counts["oracle.clamp_hits"] += 1
            return out
        return wrapper

    def _noise_wrapper(self, fn):
        def wrap(exact, bounds, noise_seed):
            truth = exact.truth_access
            timed_truth = dataclasses.replace(
                truth, f=self.timed("problems.exact", truth.f),
                g=self.timed("problems.exact", truth.g))
            noisy = fn(dataclasses.replace(exact, truth_access=timed_truth), bounds, noise_seed)
            return dataclasses.replace(noisy, truth_access=truth)
        return wrap

    def patches(self):
        sv, orc, cli, ml = noisygs.solver, noisygs.oracle, noisygs.cli, noisygs.mldemo
        return [
            (sv, "sample_ball", self.timed("sampler", sv.sample_ball)),
            (sv, "solve_min_norm", self.timed("minnorm", sv.solve_min_norm, self._qp)),
            (sv, "backtrack", self.timed("linesearch", sv.backtrack, self._ls)),
            (orc, "keyed_uniform", self.timed("oracle.keyed", orc.keyed_uniform)),
            (orc, "keyed_ball", self.timed("oracle.keyed", orc.keyed_ball)),
            (orc, "clamp_scalar", self._clamp(orc.clamp_scalar)),
            (orc, "clamp_ball", self._clamp(orc.clamp_ball)),
            (noisygs.problems, "wrap_with_uniform_noise",
             self._noise_wrapper(noisygs.problems.wrap_with_uniform_noise)),
            (ml, "loss_and_grad", self.timed("mldemo.loss_and_grad", ml.loss_and_grad, self._rows)),
            (ml, "_forward_loss", self.timed("mldemo.forward", ml._forward_loss, self._rows)),
            (cli, "estimate_goldstein", self.timed("stationarity.goldstein", cli.estimate_goldstein)),
            (cli, "_write_text_atomic", self.timed("cli.write", cli._write_text_atomic, self._bytes)),
        ]

    def run(self, real_run, oracle, x0, params, observer):
        """One solver.run call with its oracle, truth and observer in spans,
        then the traced counts asserted against the program's counters."""
        n = [0, 0]
        tf = self.timed("oracle.f", oracle.eval_f)
        tg = self.timed("oracle.g", oracle.eval_g)

        def eval_f(x):
            n[0] += 1
            return tf(x)

        def eval_g(x):
            n[1] += 1
            return tg(x)

        truth = oracle.truth_access
        if truth is not None:
            truth = dataclasses.replace(truth, f=self.timed("solver.truth", truth.f))
        traced = dataclasses.replace(oracle, eval_f=eval_f, eval_g=eval_g, truth_access=truth)
        if observer is not None:
            observer = self.timed("cli.observer", observer)
        qp0, ls0 = self.stats["minnorm"][0], self.stats["linesearch"][0]
        result = self.timed("solver.run", real_run)(traced, x0, params, observer)
        t0 = perf_counter()
        rows = len(result.history)
        searched = sum(not rec.radius_reduced for rec in result.history)
        for what, traced_count, program in (
                ("f evaluations", n[0], result.f_evals),
                ("g evaluations", n[1], result.g_evals),
                ("solve_min_norm calls", self.stats["minnorm"][0] - qp0, rows),
                ("backtrack calls", self.stats["linesearch"][0] - ls0, searched)):
            if traced_count != program:
                self.violations.append(f"traced {what} {traced_count} != {program}")
        self._stack[-1] += perf_counter() - t0
        return result


class Harness:
    """Executes one command line at a time with the run call captured."""

    def __init__(self):
        self.tracer: Optional[Tracer] = None
        self._captures: list = []
        self._real_run = noisygs.cli.run

    def _run(self, oracle, x0, params, observer=None):
        if self.tracer is None:
            result = self._real_run(oracle, x0, params, observer)
        else:
            result = self.tracer.run(self._real_run, oracle, x0, params, observer)
        self._captures.append(RunCapture(params, result))
        return result

    def installed(self):
        return patched([(noisygs.cli, "run", self._run)])

    def execute(self, argv: list, tracer: Optional[Tracer] = None) -> OpRecord:
        self._captures = []
        self.tracer = tracer
        seen = len(tracer.violations) if tracer is not None else 0
        buf = io.StringIO()
        error = None
        code: Optional[int] = None
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(patched(tracer.patches()))
                op = tracer.timed("cli", noisygs.cli.main)
            else:
                op = noisygs.cli.main
            stack.enter_context(contextlib.redirect_stdout(buf))
            t0 = perf_counter()
            try:
                code = op(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an operation that raises is a failed operation
                error = traceback.format_exc()
            seconds = perf_counter() - t0
        self.tracer = None
        results = [c.result for c in self._captures]
        return OpRecord(
            argv=argv, code=code, stdout=buf.getvalue(), seconds=seconds,
            iterations=sum(len(r.history) for r in results),
            reductions=sum(rec.radius_reduced for r in results for rec in r.history),
            captures=self._captures, error=error,
            violations=tracer.violations[seen:] if tracer is not None else [])


def layer_metrics(tracer: Tracer, records: list, rounds: int) -> dict:
    """Per-layer figures of the traced rounds, as name -> (value, unit)."""
    st, ct = tracer.stats, tracer.counts
    ops = max(len(records), 1)
    iters = max(sum(r.iterations for r in records), 1)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    verify = [r.seconds for r in records if r.argv[0] == "verify"]
    outside = sum(r.seconds for r in records) - st["solver.run"][1] \
        - st["stationarity.goldstein"][1]
    ls_trials = ct["linesearch.trials"]
    ml_calls = st["mldemo.loss_and_grad"][0] + st["mldemo.forward"][0]
    return {
        "cli.self_s": (outside / ops, "s"),
        "cli.verify_s": (per(sum(verify), len(verify)), "s"),
        "cli.bytes_written": (ct["cli.bytes"] / ops, "bytes"),
        "cli.observer_us_per_iter": (per(st["cli.observer"][1], iters, 1e6), "us"),
        "solver.self_us_per_iter": (per(st["solver.run"][2], iters, 1e6), "us"),
        "solver.iterations": (sum(r.iterations for r in records) / rounds, "count"),
        "solver.radius_reductions": (sum(r.reductions for r in records) / rounds, "count"),
        "solver.truth_us_per_iter": (per(st["solver.truth"][1], iters, 1e6), "us"),
        "sampler.us_per_call": (per(st["sampler"][1], st["sampler"][0], 1e6), "us"),
        "oracle.f_us_per_eval": (per(st["oracle.f"][1], st["oracle.f"][0], 1e6), "us"),
        "oracle.g_us_per_eval": (per(st["oracle.g"][1], st["oracle.g"][0], 1e6), "us"),
        "oracle.f_evals_per_iter": (st["oracle.f"][0] / iters, "count"),
        "oracle.g_evals_per_iter": (st["oracle.g"][0] / iters, "count"),
        "oracle.keyed_draws_per_iter": (st["oracle.keyed"][0] / iters, "count"),
        "oracle.keyed_us_per_draw": (per(st["oracle.keyed"][1], st["oracle.keyed"][0], 1e6), "us"),
        "oracle.clamp_hits": (ct["oracle.clamp_hits"] / rounds, "count"),
        "minnorm.us_per_call": (per(st["minnorm"][1], st["minnorm"][0], 1e6), "us"),
        "minnorm.columns_mean": (per(ct["minnorm.columns"], st["minnorm"][0]), "count"),
        "minnorm.corral_mean": (per(ct["minnorm.corral"], st["minnorm"][0]), "count"),
        "linesearch.trials_per_call": (per(ls_trials, st["linesearch"][0]), "count"),
        "linesearch.accept_ratio": (per(ct["linesearch.accepted"], ls_trials), "ratio"),
        "linesearch.self_us_per_trial": (per(st["linesearch"][2], ls_trials, 1e6), "us"),
        "problems.exact_us_per_eval":
            (per(st["problems.exact"][1], st["problems.exact"][0], 1e6), "us"),
        "mldemo.loss_and_grad_us":
            (per(st["mldemo.loss_and_grad"][1], st["mldemo.loss_and_grad"][0], 1e6), "us"),
        "mldemo.rows_per_call": (per(ct["mldemo.rows"], ml_calls), "count"),
        "stationarity.goldstein_s":
            (per(st["stationarity.goldstein"][1], st["stationarity.goldstein"][0]), "s"),
    }
