"""Golden digests of the CLI's output files.

Refactors that are meant to leave behaviour alone must leave these bytes
alone. A deliberate change of output updates a digest here and says why in
CHANGES.md. The digests were taken with numpy 2.4.6 and Python 3.11.7 on
x86-64 Linux; another numpy or platform may round differently.
"""

import hashlib

import pytest

from noisygs import cli

pytestmark = [
    pytest.mark.filterwarnings("ignore:admissibility violations"),
    pytest.mark.filterwarnings("ignore:oracle is not deterministic"),
]

RUN_DIGESTS = {
    "history.csv": "b84ac5d230d2d219055703f2487587f7ea0daad3415b7da10be48111f1fc16bc",
    "trajectory.csv": "d67c628df6243f511c056b5a8be3f4d02b97f1ef9facef2b48ef14c8afe9945f",
    "run.json": "83c9994304bcba2787c956230fea6fb875a15345806cdef6dc5cee305a6a5e59",
}

SWEEP_DIGEST = "85c37393f5d6003e2bbaed6ca61c7ecf79c7620b4edc4d4e23f0440f2a0e4976"

# `train` in the fixed-batch mode of the mlp_train benchmark workload, and
# in adaptive mode with a target tight enough that the iterate moves.
TRAIN_RUNS = {
    "fixed": ["--mode", "fixed", "--batch", "128", "--m", "10",
              "--eps-ls-grid", "0.001,1.0", "--seed", "0", "--budget", "60"],
    "adaptive": ["--mode", "adaptive", "--eps-f", "0.001", "--eps-ls-grid", "0.01",
                 "--seed", "0", "--budget", "40"],
}

TRAIN_DIGESTS = {
    ("fixed", "train_eps_ls_0.001.csv"):
        "f99660961b2846881c36a550c97de92df4f8e01190f0726f7f120154f077a5d1",
    ("fixed", "train_eps_ls_1.0.csv"):
        "61efbff87874d9b8214e3c84e7be8b2f12b63a6b34aa2cfbc3328ecd83ee77ac",
    ("fixed", "train_summary.csv"):
        "388b4afd0e4eae727cfe36d6e0c853761270e3b10e7f55ac9e39985b486a95c7",
    ("adaptive", "train_eps_ls_0.01.csv"):
        "1e2a1d2107ad43595aed143fb679f53303f5625c29bac91837f40dcbf769c1b3",
    ("adaptive", "train_summary.csv"):
        "9a92701fc904fa75e3d7c22a0971a5b43bf5b442e912d4bc61750e4b05bcef8f",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "run"
    assert cli.main(["run", "--eps-f", "1e-3", "--seed", "0", "--budget", "200",
                     "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(RUN_DIGESTS))
def test_run_files_match_their_digests(run_dir, name):
    assert sha256(run_dir / name) == RUN_DIGESTS[name]


def test_sweep_csv_matches_its_digest(tmp_path):
    out = tmp_path / "sweep"
    config = tmp_path / "sweep.yaml"
    config.write_text("problem: rosenbrock\neps_f_levels: [1e-2, 1e-3]\n"
                      f"repeats: 2\nbudget: 100\nout: {out}\n")
    assert cli.main(["sweep", str(config)]) == 0
    assert sha256(out / "sweep.csv") == SWEEP_DIGEST


@pytest.fixture(scope="module")
def train_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_train")
    for mode, argv in TRAIN_RUNS.items():
        assert cli.main(["train", *argv, "--out", str(root / mode)]) == 0
    return root


@pytest.mark.parametrize("mode,name", sorted(TRAIN_DIGESTS))
def test_train_files_match_their_digests(train_dirs, mode, name):
    assert sha256(train_dirs / mode / name) == TRAIN_DIGESTS[(mode, name)]
