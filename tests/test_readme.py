"""The README's python blocks run as written and its command lines parse, so
the documentation cannot name an API or a flag that no longer exists."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from solidsum import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, flags=re.S)
CLI_LINES = [line for block in re.findall(r"```bash\n(.*?)```", TEXT, flags=re.S)
             for line in block.splitlines() if line.startswith("solidsum ")]
# flags named in the prose and on the solidsum lines (other tools' flags, such
# as pip's, only appear inside code blocks)
PROSE = re.sub(r"```.*?```", "", TEXT, flags=re.S)
FLAGS = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", PROSE + "\n".join(CLI_LINES)))
# the "Subcommands:" bullets, each naming its commands before its dash
BULLETS = re.search(r"\nSubcommands:\n\n(.*?)\n\n", TEXT, flags=re.S).group(1).split("\n- ")


def test_readme_has_python_blocks():
    assert BLOCKS


def test_python_blocks_run():
    namespace = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)
    tour = "ss.macdonald_volume(tri, 1.0).value"
    assert any(tour in block for block in BLOCKS)
    assert abs(eval(tour, namespace) - 11 / 12) < 1e-13


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_command_lines_parse(capsys):
    parser = cli.build_parser()
    assert len(CLI_LINES) >= len(_subparsers(parser))
    for line in CLI_LINES:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}\n{capsys.readouterr().err}")


def test_named_flags_are_registered():
    registered = {opt for sub in _subparsers(cli.build_parser()).values()
                  for action in sub._actions for opt in action.option_strings}
    assert FLAGS
    assert FLAGS - registered == set()


def test_subcommand_bullets_name_the_registered_commands():
    named = [name for bullet in BULLETS for name in re.findall(r"`([a-z-]+)`", bullet.split(" — ")[0])]
    assert sorted(named) == sorted(_subparsers(cli.build_parser()))
