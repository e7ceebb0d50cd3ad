"""The tick's cost in profiled Python calls may not rise.

``tests/calls_per_tick.py`` counts each preset's profiled calls per
control tick.  The count is deterministic, so unlike ticks/s it does not
drift with the host, and a change that gives calls back shows here.  The
ceilings are the counts recorded on CPython 3.11 with the plant's
injection, bus and envelope kernels, plus one call of margin.
"""

import importlib.util
from pathlib import Path

import pytest

from pvisland import cli

_spec = importlib.util.spec_from_file_location(
    "calls_per_tick", Path(__file__).resolve().parent / "calls_per_tick.py")
calls_per_tick = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calls_per_tick)

#: Profiled calls per control tick, as recorded.
RECORDED = {"baseline": 115.905, "loadstep": 96.0535, "sharing": 116.05425}


@pytest.mark.parametrize("preset", cli.PRESETS)
def test_calls_per_tick_stay_under_the_ceiling(preset):
    assert calls_per_tick.calls_per_tick(preset) <= RECORDED[preset] + 1.0
