"""The functions the benchmark wraps must keep existing under their names.

``perfbench/trace_spans.py`` patches library functions by module and
attribute path; a hook that no longer resolves silently drops a layer from
the traced split, so every entry is checked here, in the fast suite.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "trace_spans.py"
_spec = importlib.util.spec_from_file_location("trace_spans", _PATH)
trace_spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_spans)


def test_every_hook_resolves():
    missing = [f"{module}.{path}" for _, module, path in trace_spans.SPANS + trace_spans.COUNTERS
               if trace_spans._resolve(module, path) is None]
    assert missing == []
