"""Show that every output check can fail.

    python3 bench/selftest.py

Run from the repository root. It runs round 0 of each workload once
(about half a minute), confirms that all checks pass on the real outputs,
then feeds each check one corrupted output and confirms that the check
reports it. The corruption is undone before the next one. Exits 1 if the
real outputs fail or any corruption goes unreported.
"""

import contextlib
import dataclasses
import json
import os
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks as ck  # noqa: E402
from harness import Harness, Tracer, patched  # noqa: E402
from workloads import WORKLOADS, Op, op_digest  # noqa: E402


@contextlib.contextmanager
def edited(path: Path, fn):
    """Rewrite a file through fn(text) -> text, restoring it afterwards."""
    original = path.read_text(encoding="utf-8")
    path.write_text(fn(original), encoding="utf-8")
    try:
        yield
    finally:
        path.write_text(original, encoding="utf-8")


def set_cell(row: int, col: int, fn):
    """fn(text) for edited(): replace one table cell (row 0 is the first data row)."""
    def apply(text):
        lines = text[:-1].split("\n")
        cells = lines[row + 1].split(",")
        cells[col] = fn(cells[col])
        lines[row + 1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return apply


def scaled(factor):
    return lambda v: repr(float(v) * factor)


def shifted(delta):
    return lambda v: repr(float(v) + delta)


def json_field(key, fn):
    def apply(text):
        data = json.loads(text)
        data[key] = fn(data[key])
        return json.dumps(data)
    return apply


def replace_record(records, i, **changes):
    out = list(records)
    out[i] = dataclasses.replace(records[i], **changes)
    return out


def replace_capture(records, i, j, **result_changes):
    caps = list(records[i].captures)
    caps[j] = dataclasses.replace(caps[j], result=dataclasses.replace(caps[j].result,
                                                                      **result_changes))
    return replace_record(records, i, captures=caps)


def run_round(cls, work: Path):
    wl = cls(0, work, 1)
    wl.setup()
    harness = Harness()
    ops, records = [], []
    with harness.installed():
        for op in wl.round_ops(0):
            ops.append(op)
            records.append(harness.execute(op.argv))
    return wl, wl.round_dir(0), ops, records


def rosenbrock_cases(wl, rdir, ops, records):
    level, seed = 0.01, 3
    cell = wl.cell_dir(rdir, level, seed)
    hist, traj, meta = cell / "history.csv", cell / "trajectory.csv", cell / "run.json"
    rows = ck.read_history(hist)
    p = ck.read_json(meta)["params"]
    accepted = next(i for i, r in enumerate(rows) if r.alpha > 0.0)
    reduced = next(i for i, r in enumerate(rows[:-1])
                   if r.norm_g <= max(p["nu"] * r.eps_k, 5.0 * p["eps_g"]))
    goldstein = next(i for i, op in enumerate(ops) if "--goldstein" in op.argv)
    verify = next(i for i, op in enumerate(ops) if op.argv[0] == "verify")
    check = lambda recs=records: wl.check(rdir, ops, recs)  # noqa: E731

    def lowest_level_at_start(data):
        return [-1.2, 1.0]

    yield "history.k", edited(hist, set_cell(0, 0, lambda v: "7")), check
    yield "exact_value", edited(hist, set_cell(3, 6, scaled(1.001))), check
    yield "noise_bound", edited(hist, set_cell(2, 5, shifted(3.0 * level))), check
    yield "sublevel_guard", edited(hist, set_cell(5, 5, lambda v: repr(rows[0].f_tilde + 1.0))), check
    yield "eval_counts", edited(meta, json_field("f_evals", lambda v: v + 1)), check
    yield "step_rule", edited(hist, set_cell(accepted, 3, scaled(0.5))), check
    yield "radius_rule", edited(hist, set_cell(reduced + 1, 1, scaled(2.0))), check
    yield "step_length", edited(traj, set_cell(4, 1, shifted(1e-6))), check
    yield "capture", edited(meta, json_field("final_x", lambda v: [v[0] + 1e-9, v[1]])), check
    yield "sweep_row", edited(rdir / "sweep" / "sweep.csv", set_cell(7, 2, scaled(1.01))), check
    stack = contextlib.ExitStack()
    for s in wl.SEEDS:
        stack.enter_context(edited(wl.cell_dir(rdir, 0.0001, s) / "run.json",
                                   json_field("final_x", lowest_level_at_start)))
    yield "paper.noise_order", stack, check
    text = records[goldstein].stdout
    bad = text.replace("goldstein estimate: ", "goldstein estimate: 1e6 ")
    yield "goldstein", contextlib.nullcontext(), \
        lambda: check(replace_record(records, goldstein, stdout=bad))
    bad = records[verify].stdout.replace("iterations: ", "iterations: 1")
    yield "verify_output", contextlib.nullcontext(), \
        lambda: check(replace_record(records, verify, stdout=bad))


def mlp_cases(wl, rdir, ops, records):
    out = ops[0].out
    check = lambda recs=records: wl.check(rdir, ops, recs)  # noqa: E731
    swapped = []
    for rec in records:
        tiny, wide = rec.captures
        swapped.append(dataclasses.replace(rec, captures=[
            dataclasses.replace(tiny, result=dataclasses.replace(tiny.result,
                                                                 final_x=wide.result.final_x)),
            dataclasses.replace(wide, result=dataclasses.replace(wide.result,
                                                                 final_x=tiny.result.final_x))]))
    yield "mlp_forward", edited(out / "train_summary.csv", set_cell(1, 1, shifted(-0.01))), check
    yield "train_summary", edited(out / "train_summary.csv",
                                  set_cell(0, 3, lambda v: str(int(v) + 1))), check
    yield "train_metrics", edited(out / "train_eps_ls_1.0.csv", set_cell(5, 1, scaled(1.01))), check
    yield "eval_counts", contextlib.nullcontext(), lambda: check(
        replace_capture(records, 0, 1, f_evals=records[0].captures[1].result.f_evals + 1))
    yield "paper.slack_order", contextlib.nullcontext(), lambda: check(swapped)


def cross_cutting_cases(work: Path):
    """Byte identity, the min-norm certificate and the traced count assertions."""
    from noisygs.minnorm import GradientBundle, solve_min_norm
    from noisygs.problems import load_problem
    from noisygs.solver import SolverParams, run

    f = work / "out" / "a.csv"
    f.parent.mkdir(parents=True)
    f.write_text("k,x\n1,0.5\n", encoding="utf-8")
    op = Op([], f.parent)
    before = op_digest(op, "", work)
    with edited(f, lambda t: t.replace("0.5", "0.6")):
        after = op_digest(op, "", work)
    yield "byte_identity", ["outputs differ"] if before != after else []

    cols = np.array([[1.0, -1.0, 0.2], [0.3, 0.4, 2.0]])
    sol = solve_min_norm(GradientBundle(cols, np.zeros(2), 1.0))
    yield "qp.simplex", ck.check_qp(cols, sol.weights * 1.1, sol.aggregate, 1e-10)
    yield "qp.aggregate", ck.check_qp(cols, sol.weights, sol.aggregate + 1e-3, 1e-10)
    yield "qp.certificate", ck.check_qp(cols, np.array([0.0, 0.0, 1.0]), cols[:, 2], 1e-10)

    problem = load_problem("rosenbrock")
    tracer = Tracer()

    def miscounting_run(*args):
        result = run(*args)
        return dataclasses.replace(result, f_evals=result.f_evals + 1)

    with patched(tracer.patches()):
        tracer.run(miscounting_run, problem.oracle, problem.spec.default_start,
                   SolverParams(budget=5), None)
    yield "traced_counts", tracer.violations


def main() -> int:
    warnings.filterwarnings("ignore", message="admissibility violations")
    warnings.filterwarnings("ignore", message="oracle is not deterministic")
    work = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    missed = 0
    cases = {"rosenbrock_sweep": rosenbrock_cases, "mlp_train": mlp_cases}
    try:
        for name, cls in WORKLOADS.items():
            wl, rdir, ops, records = run_round(cls, work / name)
            base = wl.check(rdir, ops, records)
            print(f"{name}: real outputs {'pass' if not base else 'FAIL'}")
            for f in base:
                print(f"  {f.check} (op {f.op}): {f.message}")
            missed += bool(base)
            for check_name, corruption, run_check in cases[name](wl, rdir, ops, records):
                with corruption:
                    fired = {f.check for f in run_check()}
                hit = check_name in fired
                missed += not hit
                print(f"  {'ok    ' if hit else 'MISSED'} {check_name}: "
                      f"reported {sorted(fired)}")
        print("cross-cutting")
        for check_name, problems in cross_cutting_cases(work / "cross"):
            missed += not problems
            print(f"  {'ok    ' if problems else 'MISSED'} {check_name}: {problems}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print("selftest " + ("passed" if not missed else f"FAILED ({missed})"))
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
