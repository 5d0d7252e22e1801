"""The README's library tour runs as written and its command lines parse,
so neither can name a removed function or option."""

import re
import shlex
from pathlib import Path

from graphonlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_command_lines_parse():
    blocks = re.findall(r"## CLI\n\n```\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    lines = [line.split("#")[0].replace("[", "").replace("]", "")
             for line in blocks[0].splitlines() if line.strip()]
    assert len(lines) == 17
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "graphonlab"
        cli.build_parser().parse_args(argv)
