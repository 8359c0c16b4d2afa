"""Every `ram` command line in README.md parses with the CLI's own parser."""

import argparse
import shlex
from pathlib import Path

import pytest

from ramkb.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def ram_lines():
    """The lines of README.md's code blocks that run `ram`."""
    lines, in_block = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_block = not in_block
        elif in_block and line.lstrip().startswith("ram "):
            lines.append(line.strip())
    return lines


@pytest.mark.parametrize("line", ram_lines())
def test_readme_command_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])


def test_readme_shows_every_command():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {shlex.split(line)[1] for line in ram_lines()} == set(commands.choices)
