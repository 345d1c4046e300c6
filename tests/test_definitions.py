"""Every function, class and method of ``bibmet`` is referenced outside its definition.

No linter is a dependency, so this stands in for vulture, as
``test_imports.py`` does for pyflakes' F401: each module-level function
or class of ``src/bibmet/*.py``, and each of their methods not named
``__*__``, must appear as a word in a ``.py`` file under ``src/``,
``tests/``, ``demos/`` or ``perfbench/``, in ``README.md`` or in
``pyproject.toml`` (``entrypoint`` is only named there), after the name
of every ``def`` and ``class`` statement is taken out.  A name that only
Python or a library calls is listed in ``CALLED_ELSEWHERE`` with who
calls it.
"""

import ast
import re
from pathlib import Path

import pytest

import bibmet

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(Path(bibmet.__file__).parent.glob("*.py"))
SEARCHED = sorted(
    [p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")
     if p != Path(__file__).resolve()]  # which names the exceptions below
    + [ROOT / "README.md", ROOT / "pyproject.toml"])

CALLED_ELSEWHERE: dict[str, str] = {
    "__init__.__getattr__": "Python's import system (PEP 562)",
    "__init__.__dir__": "Python's import system (PEP 562)",
}

_DEFINITION = re.compile(r"\b(?:def|class)\s+\w+")


def definitions(source: str) -> list[tuple[str, str]]:
    """``(qualified name, name)`` of each module-level function and class and their methods."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.name) for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return found


def referenced_words(texts) -> set[str]:
    """Every word of ``texts`` but the names that ``def`` and ``class`` statements define."""
    return {word for text in texts for word in re.findall(r"\w+", _DEFINITION.sub("", text))}


@pytest.fixture(scope="module")
def words() -> set[str]:
    return referenced_words(path.read_text(encoding="utf-8") for path in SEARCHED)


def unreferenced(module: str, source: str, words: set[str]) -> list[str]:
    return [qualified for qualified, name in definitions(source)
            if name not in words and f"{module}.{qualified}" not in CALLED_ELSEWHERE]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_nothing_unreferenced(path, words):
    assert unreferenced(path.stem, path.read_text(encoding="utf-8"), words) == []


def test_names_called_elsewhere_are_defined_and_otherwise_unreferenced(words):
    for qualified in CALLED_ELSEWHERE:
        module, name = qualified.split(".", 1)
        source = (Path(bibmet.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
        assert name in dict(definitions(source))
        assert name.rsplit(".", 1)[-1] not in words


def test_unreferenced_definitions_are_found():
    source = ("def used(): pass\ndef unused(): pass\nclass C:\n"
              "    def __init__(self): pass\n    def orphan(self): pass\n"
              "    def called(self): return used()\nC().called()\n")
    assert unreferenced("m", source, referenced_words([source])) == ["unused", "C.orphan"]
