"""Every ``bibmet`` command line in the README's shell blocks parses.

A flag that is renamed or removed leaves the README's examples stale;
this test parses each one with the CLI's own parser, with ``\\``
continuations joined, so that a stale example fails here.
"""

import re
import shlex
from pathlib import Path

import pytest

from bibmet.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("bibmet ")]


def test_readme_has_cli_examples():
    assert len(readme_commands()) >= 7


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    argv = shlex.split(command, comments=True)
    assert argv[0] == "bibmet"
    _build_parser().parse_args(argv[1:])
