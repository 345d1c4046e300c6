"""The README's examples run: every ``bibmet`` command line parses, every ``python`` block runs.

A flag that is renamed or removed leaves the README's examples stale;
this test parses each command line of the shell blocks with the CLI's
own parser, with ``\\`` continuations joined, so that a stale example
fails here.  Each ``python`` block runs in a directory that holds the
exports it reads, and each ``# value`` comment on a ``print`` line must
equal what the line prints, numbers rounded to the digits the comment
shows.  Every name the README places in a module, as in "`CAP_MAX` in
`bibmet.tables`", must be an attribute of that module.
"""

import builtins
import importlib
import re
import shlex
from pathlib import Path

import pytest

from bibmet.cli import _build_parser
from conftest import SAMPLE_WOS

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def readme_commands() -> list[str]:
    lines = "\n".join(readme_blocks("sh")).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("bibmet ")]


def test_readme_has_cli_examples():
    assert len(readme_commands()) >= 7


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    argv = shlex.split(command, comments=True)
    assert argv[0] == "bibmet"
    _build_parser().parse_args(argv[1:])


def test_readme_has_python_examples():
    assert len(readme_blocks("python")) >= 3


def shown(value, expected: str) -> bool:
    """Whether ``value`` prints as ``expected``, rounded to the digits ``expected`` shows."""
    if isinstance(value, float) and re.fullmatch(r"-?\d+\.\d+", expected):
        return f"{value:.{len(expected.split('.')[1])}f}" == expected
    return str(value) == expected


@pytest.mark.parametrize("block", readme_blocks("python"),
                         ids=[f"block{i}" for i in range(len(readme_blocks("python")))])
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    (tmp_path / "export.txt").write_text(SAMPLE_WOS, encoding="utf-8")
    for i in (1, 2):
        (tmp_path / f"export{i}.txt").write_text(
            SAMPLE_WOS.replace("UT WOS:", f"UT WOS:{i}"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    printed = []
    exec(compile(block, "README.md", "exec"),
         {"print": lambda *values: printed.append(values), "__builtins__": builtins})
    lines = [line for line in block.splitlines() if line.startswith("print(")]
    assert all("#" in line for line in lines), "a print line shows what it prints"
    comments = [line.split("#", 1)[1].split() for line in lines]
    assert len(printed) == len(comments)
    for values, expected in zip(printed, comments):
        assert len(values) == len(expected), (values, expected)
        for value, token in zip(values, expected):
            assert shown(value, token), (value, token)


def test_readme_names_are_in_their_modules():
    text = README.read_text(encoding="utf-8")
    refs = re.findall(r"`([A-Za-z_]\w*)`\s+in\s+`(bibmet(?:\.\w+)*)`", text)
    assert len(refs) >= 3
    missing = [f"{module}.{name}" for name, module in refs
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
