"""README.md and the code agree: every ```python block of the README runs,
and its file-format examples parse."""

import re
import shutil
from pathlib import Path

import pytest

from gridpi import load_network, load_scenario
from support import bundled

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)
INI_BLOCKS = re.findall(r"^```ini\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs_in_the_bundled_data_directory(index, monkeypatch, capsys):
    # the blocks name the bundled files by their bare file names
    monkeypatch.chdir(Path(bundled("net5ring.grid")).parent)
    exec(compile(PYTHON_BLOCKS[index], f"{README.name} python block {index + 1}", "exec"), {})


def test_readme_file_format_examples_parse(tmp_path):
    # the scenario example names the bundled net5ring.grid
    shutil.copy(bundled("net5ring.grid"), tmp_path)
    kinds = []
    for k, block in enumerate(INI_BLOCKS):
        if "[buses]" in block:
            path = tmp_path / f"example{k}.grid"
            path.write_text(block, encoding="utf-8")
            load_network(path)
            kinds.append("grid")
        else:
            path = tmp_path / f"example{k}.scn"
            path.write_text(block, encoding="utf-8")
            load_scenario(path)
            kinds.append("scn")
    assert kinds == ["grid", "scn"]
