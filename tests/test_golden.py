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
    "history.csv": "cd13ee4c183b4a0119eac1d791cf48c3def89278fc37b65cfd81a78c70ccacb4",
    "trajectory.csv": "0d7e3b543ab9ec72710368bddf4c6224cf3475ca979614aba2847939071fc975",
    "run.json": "ba7d2d5cccf5336520937ad7e763cf06146c8a067785fa87d722d6693fbef0bb",
}

SWEEP_DIGEST = "92d93b6e03c3cd341e0b74f2d315b82e5f769cd1303c7030b100c0d3be0a6b60"


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
