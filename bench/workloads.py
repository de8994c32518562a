"""The benchmark workloads: inputs, command lines and output checks.

Each workload fixes its case list before the run starts. The seed picks
instances of one fixed cost distribution or the order of operations, never
which cases run, so a run's work does not depend on its seed. A round is
one pass over the case list; `round_ops` yields its command lines one at
a time, so later commands can be built from earlier outputs between timed
operations.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from noisygs.mldemo import synth_dataset

import checks as ck


@dataclass(frozen=True)
class Op:
    argv: list
    out: Optional[Path] = None  # directory whose files belong to this operation


def op_digest(op: Op, stdout: str, round_dir: Path) -> str:
    """Hash of an operation's files and its output, with the round's own
    directory name taken out, so repeats of the operation compare equal."""
    h = hashlib.sha256(stdout.replace(str(round_dir), "<round>").encode())
    if op.out is not None:
        for path in sorted(p for p in op.out.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(op.out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def settings_from(params: dict) -> ck.SolverSettings:
    return ck.SolverSettings(eps_f=params["eps_f"], eps_g=params["eps_g"], m=params["m"],
                             theta=params["theta"], gamma=params["gamma"], nu=params["nu"],
                             alpha_min=params["alpha_min"])


class Workload:
    name = ""
    nominal_round_s = 1.0  # measured on a 2-vCPU host; sets the round count only

    def __init__(self, seed: int, work: Path, rounds: int):
        self.seed = seed
        self.work = work
        self.rounds = rounds
        self.rng = random.Random(seed)

    def round_dir(self, r: int) -> Path:
        return self.work / f"round-{r}"

    def setup(self) -> None:
        raise NotImplementedError

    def round_ops(self, r: int) -> Iterator[Op]:
        raise NotImplementedError

    def check(self, round_dir: Path, ops: list, records: list) -> list:
        raise NotImplementedError


class RosenbrockSweep(Workload):
    """`noisygs sweep` over the gate's four noise levels and seeds 0-9, then
    `verify` on every cell and `verify --goldstein` on Stationary cells."""

    name = "rosenbrock_sweep"
    nominal_round_s = 16.0
    LEVELS = (0.1, 0.01, 0.001, 0.0001)
    SEEDS = tuple(range(10))
    BUDGET = 250  # below the gate's 3000; three cells still end Stationary here
    GOLDSTEIN = 100

    def setup(self):
        levels = list(self.LEVELS)
        self.rng.shuffle(levels)
        self.cells = [(level, seed) for level in self.LEVELS for seed in self.SEEDS]
        self.rng.shuffle(self.cells)
        (self.work / "configs").mkdir(parents=True)
        for r in range(self.rounds):
            text = (f"problem: rosenbrock\neps_f_levels: [{', '.join(map(repr, levels))}]\n"
                    f"repeats: {len(self.SEEDS)}\nseed: 0\nnoise_seed: 0\n"
                    f"budget: {self.BUDGET}\nout: {self.round_dir(r) / 'sweep'}\n")
            (self.work / "configs" / f"round-{r}.yaml").write_text(text, encoding="utf-8")

    def cell_dir(self, round_dir: Path, level: float, seed: int) -> Path:
        return round_dir / "sweep" / "runs" / f"eps_f_{level!r}_seed_{seed}"

    def round_ops(self, r):
        rdir = self.round_dir(r)
        yield Op(["sweep", str(self.work / "configs" / f"round-{r}.yaml")], rdir / "sweep")
        _, rows = ck.read_table(rdir / "sweep" / "sweep.csv")
        stationary = {(float(row[0]), int(row[1])) for row in rows if row[5] == "Stationary"}
        for level, seed in self.cells:
            yield Op(["verify", str(self.cell_dir(rdir, level, seed))])
        for level, seed in self.cells:
            if (level, seed) in stationary:
                yield Op(["verify", str(self.cell_dir(rdir, level, seed)),
                          "--goldstein", str(self.GOLDSTEIN)])

    def check(self, rdir, ops, records):
        out = []
        cells = {}
        captured = {(c.params.bounds.eps_f, c.params.master_seed): c.result
                    for c in records[0].captures}
        for level, seed in self.cells:
            d = self.cell_dir(rdir, level, seed)
            meta = ck.read_json(d / "run.json")
            rows = ck.read_history(d / "history.csv")
            traj = ck.read_trajectory(d / "trajectory.csv")
            cells[(level, seed)] = {"meta": meta, "rows": rows}
            out += ck.check_history(rows, settings_from(meta["params"]), op=0,
                                    f_evals=meta["f_evals"], g_evals=meta["g_evals"],
                                    exact=[ck.rosenbrock(*x) for x in traj],
                                    iterates=traj, final_x=meta["final_x"])
            result = captured.get((level, seed))
            if result is None or [float(v) for v in result.final_x] != meta["final_x"] \
                    or result.status.value != meta["status"]:
                out.append(ck.Failure("capture", 0, f"{d.name}: run.json != run call"))
        header, rows = ck.read_table(rdir / "sweep" / "sweep.csv")
        if header != ck.SWEEP_COLUMNS:
            out.append(ck.Failure("sweep_row", 0, f"sweep.csv header {header}"))
        out += ck.check_sweep_rows(rows, cells, op=0, levels=self.LEVELS, seeds=self.SEEDS)
        for i, op in enumerate(ops[1:], start=1):
            cell = cells[next(key for key in cells
                              if self.cell_dir(rdir, *key) == Path(op.argv[1]))]
            text = records[i].stdout
            out += ck.check_verify_text(text, cell["meta"], len(cell["rows"]), op=i)
            if "--goldstein" in op.argv:
                out += ck.check_goldstein(text, cell["meta"]["final_x"], op=i)
        return out


class MlpTrain(Workload):
    """`noisygs train --mode fixed --batch 128 --m 10 --eps-ls-grid 0.001,1.0`
    on criterion 9's data (1024 x 13, data seed 5), seeds 0-9."""

    name = "mlp_train"
    nominal_round_s = 6.0
    SEEDS = tuple(range(10))
    GRID = (0.001, 1.0)
    BUDGET = 100  # below the gate's 2000; the slack ordering still holds
    HIDDEN = 10

    def setup(self):
        data = synth_dataset(1024, 13, 4.0, 5)
        self.X, self.labels = data.features, data.labels
        self.order = list(self.SEEDS)
        self.rng.shuffle(self.order)
        self.work.mkdir(parents=True)

    def round_ops(self, r):
        rdir = self.round_dir(r)
        for s in self.order:
            out = rdir / f"seed_{s}"
            yield Op(["train", "--mode", "fixed", "--batch", "128", "--m", "10",
                      "--eps-ls-grid", ",".join(map(repr, self.GRID)),
                      "--budget", str(self.BUDGET), "--num-points", "1024",
                      "--num-features", "13", "--data-seed", "5", "--hidden", str(self.HIDDEN),
                      "--seed", str(s), "--noise-seed", str(s), "--out", str(out)], out)

    def check(self, rdir, ops, records):
        out = []
        accuracies = {eps: [] for eps in self.GRID}
        for i, (op, rec) in enumerate(zip(ops, records)):
            if len(rec.captures) != len(self.GRID):
                out.append(ck.Failure("capture", i, "one run call per arm expected"))
                continue
            arms = {}
            for eps_ls, cap in zip(self.GRID, rec.captures):
                res, p = cap.result, cap.params
                rows = ck.rows_from_records(res.history)
                out += ck.check_history(
                    rows, ck.SolverSettings(eps_f=0.0, eps_g=0.0, m=p.m, theta=p.theta,
                                            gamma=p.gamma, nu=p.nu, alpha_min=p.alpha_min),
                    op=i, f_evals=res.f_evals, g_evals=res.g_evals)
                out += ck.check_train_metrics(op.out / f"train_eps_ls_{eps_ls!r}.csv", rows, op=i)
                arms[eps_ls] = (res.final_x, len(rows), res.status.value)
                accuracies[eps_ls].append(ck.mlp_accuracy(res.final_x, self.X, self.labels,
                                                          self.HIDDEN))
            out += ck.check_training(op.out / "train_summary.csv", arms, self.X, self.labels,
                                     self.HIDDEN, op=i)
        return out + ck.check_training_order(accuracies)


WORKLOADS = {w.name: w for w in (RosenbrockSweep, MlpTrain)}
