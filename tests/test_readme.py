"""Every `tqft ...` line of the README's "Command line" block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from tqft.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _commands() -> list[list[str]]:
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line.split("#")[0] for line in block.group(1).splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("tqft ")]


def test_readme_block_is_found():
    assert _commands()


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_readme_command_exits_zero(argv, tmp_path):
    argv = list(argv)
    if "--out-dir" in argv:
        argv[argv.index("--out-dir") + 1] = str(tmp_path)
    else:
        argv.append("--out")
        argv.append(str(tmp_path / "artifact"))
    assert main(argv) == 0
