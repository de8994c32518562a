"""The README's library quickstart runs as written against the package, and
its list of exports matches the package root's."""

import re
from pathlib import Path

import pytest

import noisygs

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
    assert namespace["result"].status.value == "Stationary"
    assert namespace["noisy"].dims == 2
    assert capsys.readouterr().out


def test_readme_names_exactly_the_root_exports():
    text = README.read_text(encoding="utf-8")
    for name in noisygs.__all__:
        assert re.search(rf"\b{name}\b", text), name
    pieces = text.split("Useful pieces beyond the solver loop:", 1)[1]
    pieces = pieces.split("These names are the package root's exports", 1)[0]
    called = {name for span in re.findall(r"`([^`]*)`", pieces)
              for name in re.findall(r"(\w+)\(", span)}
    assert called and called <= set(noisygs.__all__), sorted(called - set(noisygs.__all__))
