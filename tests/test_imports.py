"""Every name a module of ``bibmet``, a test or a demo imports is used in that module.

No linter is a dependency, so this stands in for pyflakes' F401: each
``src/bibmet/*.py`` but ``__init__.py``, which imports to re-export, each
``tests/*.py`` and each ``demos/*.py`` is parsed and every imported name
must be referenced in it.  An import kept for another module's sake
carries ``noqa: F401`` on its line.  ``tests/test_acceptance.py`` is left
out: the acceptance tests are kept exactly as written, unused
``import pytest`` included.  The package's ``__all__`` lists exactly the
names its ``__init__.py`` imports, sorted.
"""

import ast
from pathlib import Path

import pytest

import bibmet

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in Path(bibmet.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    + [p for p in (ROOT / "tests").glob("*.py") if p.name != "test_acceptance.py"]
    + list((ROOT / "demos").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


# a source module is named by its file name alone, a test or demo by its directory too
@pytest.mark.parametrize("path", MODULES, ids=lambda p: (
    p.name if p.parent.name == "bibmet" else p.relative_to(ROOT).as_posix()))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os, re\nimport a.b\n"
              "from x import y as z, w\nfrom q import r  # noqa: F401\n"
              "def f(p: w) -> None:\n    return re.sub\n")
    assert unused_imports(source) == ["line 2: os", "line 3: a", "line 4: z"]


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse(Path(bibmet.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert bibmet.__all__ == sorted(imported)
