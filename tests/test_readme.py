"""The README's library quickstart runs as written against the package."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


@pytest.mark.filterwarnings("ignore:admissibility violations")
def test_quickstart_blocks_run(capsys):
    blocks = quickstart_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].status.value in ("Stationary", "BudgetExhausted")
    assert namespace["noisy"].dims == 2
    assert capsys.readouterr().out
