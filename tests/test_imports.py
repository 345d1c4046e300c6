"""Every name a module of ``bibmet`` imports is used in that module.

No linter is a dependency, so this stands in for pyflakes' F401: each
``src/bibmet/*.py`` but ``__init__.py``, which imports to re-export, is
parsed and every imported name must be referenced in it.  An import kept
for another module's sake carries ``noqa: F401`` on its line.
"""

import ast
from pathlib import Path

import pytest

import bibmet

MODULES = sorted(p for p in Path(bibmet.__file__).parent.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os, re\nimport a.b\n"
              "from x import y as z, w\nfrom q import r  # noqa: F401\n"
              "def f(p: w) -> None:\n    return re.sub\n")
    assert unused_imports(source) == ["line 2: os", "line 3: a", "line 4: z"]
