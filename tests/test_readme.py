"""README.md and the code agree: every ```python block of the README runs,
its file-format examples parse, and its console examples print what
gridpi prints."""

import re
import shlex
import shutil
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

from gridpi import load_network, load_scenario
from gridpi.cli import main as cli_main
from support import bundled

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)
INI_BLOCKS = re.findall(r"^```ini\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)
CONSOLE_BLOCKS = re.findall(r"^```\n(\$ gridpi .*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)
# printed searched thresholds are compared to rtol=1e-6, as the CLI pins do
APPROXIMATE = ("eigenvalue-based threshold ~= ", "bound / threshold = ")


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


def test_readme_has_console_blocks():
    assert CONSOLE_BLOCKS


def _assert_printed(printed, expected):
    assert len(printed) == len(expected), printed
    for got, want in zip(printed, expected):
        prefix = next((p for p in APPROXIMATE if want.startswith(p)), None)
        if prefix is None:
            assert got == want
        else:
            assert got.startswith(prefix)
            assert_allclose(float(got[len(prefix):]), float(want[len(prefix):]), rtol=1e-6)


@pytest.mark.parametrize("index", range(len(CONSOLE_BLOCKS)))
def test_readme_console_block_prints_what_gridpi_prints(index, tmp_path, monkeypatch, capsys):
    # the blocks run in a copy of the bundled data; "error:" lines are stderr
    command, *expected = CONSOLE_BLOCKS[index].splitlines()
    monkeypatch.chdir(shutil.copytree(Path(bundled("net5ring.grid")).parent, tmp_path / "data"))
    cli_main(shlex.split(command)[2:])
    captured = capsys.readouterr()
    _assert_printed(captured.out.splitlines(), [x for x in expected if not x.startswith("error: ")])
    _assert_printed(captured.err.splitlines(), [x for x in expected if x.startswith("error: ")])
