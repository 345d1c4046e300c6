"""Every name the benchmark's tracer patches still exists.

``perfbench/spans.py`` wraps the callables that its ``_targets()``
lists, looking each one up in its owner's own ``vars()``.  A refactor
that removes or moves one of them breaks the traced benchmark run, and
the tier-1 suite does not run the benchmark, so these tests check the
names directly, as well as every name that a benchmark module imports
from ``bibmet`` (which its input generation uses).
"""

import ast
import contextlib
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_every_traced_name_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    assert targets
    missing = [(name, attr) for name, owner, attr in targets if attr not in vars(owner)]
    assert missing == []


def test_every_name_the_benchmark_imports_from_bibmet_resolves():
    imports = [(node.module, alias.name)
               for path in sorted(PERFBENCH.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level == 0
               and node.module.split(".")[0] == "bibmet"
               for alias in node.names]
    assert ("bibmet.corpus", "build_yearly_series") in imports
    missing = []
    for module, name in imports:
        # as ``from module import name`` does: an attribute, else a submodule
        with contextlib.suppress(ImportError):
            importlib.import_module(f"{module}.{name}")
        if not hasattr(importlib.import_module(module), name):
            missing.append((module, name))
    assert missing == []
