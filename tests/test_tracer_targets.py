"""Every name the benchmark's tracer patches still exists.

``perfbench/spans.py`` wraps the callables that its ``_targets()``
lists, looking each one up in its owner's own ``vars()``.  A refactor
that removes or moves one of them breaks the traced benchmark run, and
the tier-1 suite does not run the benchmark, so this test checks the
names directly.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    assert targets
    missing = [(name, attr) for name, owner, attr in targets if attr not in vars(owner)]
    assert missing == []
