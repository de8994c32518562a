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
]

RUN_DIGESTS = {
    "history.csv": "b84ac5d230d2d219055703f2487587f7ea0daad3415b7da10be48111f1fc16bc",
    "trajectory.csv": "d67c628df6243f511c056b5a8be3f4d02b97f1ef9facef2b48ef14c8afe9945f",
    "run.json": "83c9994304bcba2787c956230fea6fb875a15345806cdef6dc5cee305a6a5e59",
}

SWEEP_DIGEST = "85c37393f5d6003e2bbaed6ca61c7ecf79c7620b4edc4d4e23f0440f2a0e4976"


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
