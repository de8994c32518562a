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
    "run.json": "bcd788805bec900c875abbe60e52de7361a502857dae465eabd8ec422cd6cded",
}

# `run --eps-f 1e-2 --lipschitz 5 --seed 3 --budget 300`: 294 of its 298 line
# searches give up at the radius-scaled cutoff gamma * eps_k / (3 (L + eps_g)).
LIPSCHITZ_RUN_DIGESTS = {
    "history.csv": "c05cc8fb9ab47a7e8a176c2cf19530ee33812724aa2fb72c20ec7f3505cd178a",
    "trajectory.csv": "aeca4d1e7f1bba36a81749c4eca1675e26648ce3f24056ea26f2b9a04aa726ec",
    "run.json": "f2edd19e1846360b811e5c97f6b16173e5e188de04306701809f1300a57d7dd0",
}

# stdout of `verify --goldstein 100` after `run --eps-f 1e-4 --seed 0 --budget
# 3000`, a run that ends Stationary: the estimate's exact-gradient columns.
GOLDSTEIN_VERIFY_DIGEST = "6afc081e22e362314c3a9e3da9d8b231f6913160334067e50173041d5c89da59"

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


# `run` on the noisy problems whose gradients take the other paths through the
# noise wrapper: max_linear at n = 4 (noise words from blake2b, over per-row
# truth) and n = 9 (noise words from shake_256), and abs_composite (value
# noise and a noisy phi sign inside the problem). The piece files are
# written by max_linear_pieces and named relative to the working directory.
NOISY_RUNS = {
    "max_linear_4": ["--problem", "max_linear:pieces.txt", "--eps-f", "1e-3",
                     "--seed", "0", "--budget", "150"],
    "max_linear_9": ["--problem", "max_linear:pieces.txt", "--eps-f", "1e-3",
                     "--seed", "0", "--budget", "150"],
    "abs_composite": ["--problem", "abs_composite", "--eps-f", "1e-2",
                      "--seed", "0", "--budget", "150"],
}

NOISY_RUN_DIGESTS = {
    "max_linear_4": {
        "history.csv": "f211565032f6eb450244dd3dac7a497d67168afa539d077bdcec2a062357fbc2",
        "run.json": "e08af397c18c604014da34e9b0d63880ed4c518515c339aa0f15c76539973da7",
    },
    "max_linear_9": {
        "history.csv": "5c1734e6505c99124fb4dd11f5e386e66cd87c84500fd3fb20b95857e3c0b135",
        "run.json": "d69c686bfcc4edd62f9a2ac5de798cdf780bc2e449e6ff19433c248cefc4dcc4",
    },
    "abs_composite": {
        "history.csv": "64577c5b2ea0359ab7185d8064eb74c43c44e8a610b90c65112588e1f22fd7dc",
        "run.json": "11745b395f881ee9fee940fc909afa7cb207718a7d600f0630fe70f79d424dc8",
        "trajectory.csv": "af34eb90e737c1a70fc63ea0e654c0ab34084bb3fae972e2a9885f136b67de40",
    },
}


def max_linear_pieces(n: int) -> str:
    """(j + 1) |x_j| - j / 2 for each coordinate, and sum(x) + 1/4."""
    rows = []
    for j in range(n):
        for sign in (1.0, -1.0):
            a = [0.0] * n
            a[j] = sign * (j + 1)
            rows.append(a + [-0.5 * j])
    rows.append([1.0] * n + [0.25])
    return "".join(" ".join(f"{v:g}" for v in row) + "\n" for row in rows)


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


@pytest.fixture(scope="module")
def lipschitz_run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "lipschitz_run"
    assert cli.main(["run", "--eps-f", "1e-2", "--lipschitz", "5", "--seed", "3",
                     "--budget", "300", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(LIPSCHITZ_RUN_DIGESTS))
def test_lipschitz_run_files_match_their_digests(lipschitz_run_dir, name):
    assert sha256(lipschitz_run_dir / name) == LIPSCHITZ_RUN_DIGESTS[name]


def test_goldstein_verify_stdout_matches_its_digest(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["run", "--eps-f", "1e-4", "--seed", "0", "--budget", "3000",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(out), "--goldstein", "100"]) == 0
    stdout = capsys.readouterr().out
    assert "status: Stationary" in stdout
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDSTEIN_VERIFY_DIGEST


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


@pytest.mark.parametrize("name", sorted(NOISY_RUNS))
def test_noisy_run_files_match_their_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if name.startswith("max_linear_"):
        (tmp_path / "pieces.txt").write_text(max_linear_pieces(int(name.rsplit("_", 1)[1])))
    assert cli.main(["run", *NOISY_RUNS[name], "--out", "run"]) == 0
    digests = {path.name: sha256(path) for path in sorted((tmp_path / "run").iterdir())}
    assert digests == NOISY_RUN_DIGESTS[name]
