"""The benchmark's traced bindings name functions the package still has.

``perfbench/spans.py`` wraps each ``(module[:Class], attribute)`` of its
``BINDINGS`` when tracing is on, so a binding renamed or deleted in the
package would fail only a traced benchmark run.  The module is stdlib-only
and is loaded here by path, without importing the benchmark harness.
"""

import importlib
import importlib.util
from pathlib import Path

import modcoherence.cli  # noqa: F401 - imports every symbolic module it binds
import modcoherence.panels  # noqa: F401

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    bindings = _spans_module().BINDINGS
    missing = []
    for path, attr, _layer in bindings:
        module_name, _, cls = path.partition(":")
        owner = importlib.import_module(module_name)
        if cls:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{path}.{attr}")
    assert bindings and missing == []
