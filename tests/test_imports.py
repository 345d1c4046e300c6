"""Every name a module of ``bibmet``, a test or a demo imports is used in that module.

No linter is a dependency, so this stands in for pyflakes' F401: each
``src/bibmet/*.py``, each ``tests/*.py`` and each ``demos/*.py`` is parsed
and every imported name must be referenced in it.  An import kept for
another module's sake carries ``noqa: F401`` on its line.
``tests/test_acceptance.py`` is left out: the acceptance tests are kept
exactly as written, unused ``import pytest`` included.  The package's
``__all__`` lists the names of its export table, sorted, and a bare
``import bibmet`` runs none of its modules.  Each command loads only the
modules it runs: ``--version``, ``--help`` and a usage error none of the
analysis, and the commands on CSV tables neither ``wos`` nor ``corpus``.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bibmet

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    list(Path(bibmet.__file__).parent.glob("*.py"))
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
    assert bibmet.__all__ == sorted(name for names in bibmet._EXPORTS.values() for name in names)
    star = {}
    exec("from bibmet import *", star)
    for module, names in bibmet._EXPORTS.items():
        defining = importlib.import_module(f"bibmet.{module}")
        assert getattr(bibmet, module) is defining
        for name in names:
            imported = {}
            exec(f"from bibmet import {name}", imported)
            assert imported[name] is star[name] is getattr(bibmet, name) is getattr(defining, name)


def test_package_lists_its_names_and_knows_no_others():
    assert set(bibmet.__all__) <= set(dir(bibmet))
    with pytest.raises(AttributeError, match="no attribute 'average_authors_per_paper'"):
        bibmet.average_authors_per_paper


def test_import_runs_no_module_until_a_name_is_used():
    # tests/test_synth.py checks that importing the CLI leaves synth unloaded
    script = ("import sys, bibmet\n"
              "print(sorted(m for m in sys.modules if m.startswith('bibmet')))\n"
              "print(bibmet.wos.__name__, bibmet.tables.__name__)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bibmet.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "['bibmet']\nbibmet.wos bibmet.tables\n", "")


def loaded_by(*argv: str) -> tuple[int, set[str]]:
    """The exit code of ``bibmet argv`` in a child process, and its modules of bibmet and numpy."""
    script = ("import contextlib, io, sys\n"
              "from bibmet.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(sys.argv[1:])\n"
              "print(code, *sorted(m for m in sys.modules if m.startswith('bibmet') "
              "or m == 'numpy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bibmet.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    code, *modules = done.stdout.split()
    return int(code), set(modules)


DATA = Path(bibmet.__file__).parent / "data"
NOT_FOR_TABLES = {"bibmet.wos", "bibmet.corpus", "bibmet.growth", "bibmet.collab", "bibmet.synth"}


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["--help"], 0),
                                        (["collab", "--partition", "solo"], 64)],
                         ids=["version", "help", "usage-error"])
def test_a_run_that_runs_no_command_loads_no_analysis_module(argv, code):
    assert loaded_by(*argv) == (code, {"bibmet", "bibmet.cli", "bibmet.errors"})


@pytest.mark.parametrize("command", ["ks", "lotka"])
def test_a_command_on_a_distribution_loads_lotka_and_tables_alone(command):
    code, modules = loaded_by(command, "--dist", str(DATA / "concussion_author_productivity.csv"))
    assert code == 0
    assert {"bibmet.lotka", "bibmet.tables"} <= modules
    assert modules.isdisjoint(NOT_FOR_TABLES | {"numpy"})


def test_report_on_the_three_tables_loads_their_modules_alone(tmp_path):
    # the command of the tables-longtail benchmark, which compiles every module it loads
    code, modules = loaded_by("report", "--series", str(DATA / "concussion_yearly.csv"),
                              "--matrix", str(DATA / "concussion_authorship.csv"),
                              "--dist", str(DATA / "concussion_author_productivity.csv"),
                              "--out-dir", str(tmp_path))
    assert (code, modules) == (0, {"bibmet", "bibmet.cli", "bibmet.errors", "bibmet.tables",
                                   "bibmet.lotka", "bibmet.growth", "bibmet.collab"})


def test_growth_on_a_series_loads_no_lotka():
    # _check_flags imports a checker's module only for a flag that the command has
    code, modules = loaded_by("growth", "--series", str(DATA / "concussion_yearly.csv"))
    assert code == 0
    assert "bibmet.growth" in modules
    assert modules.isdisjoint({"bibmet.lotka", "bibmet.wos", "bibmet.corpus", "numpy"})


def test_report_on_an_export_loads_no_synth_or_numpy(tmp_path, sample_wos_text):
    path = tmp_path / "export.txt"
    path.write_text(sample_wos_text, encoding="utf-8")
    code, modules = loaded_by("report", "--wos", str(path))
    assert code == 0
    assert {"bibmet.wos", "bibmet.corpus", "bibmet.lotka"} <= modules
    assert modules.isdisjoint({"bibmet.synth", "numpy"})
