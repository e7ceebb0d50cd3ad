"""The tick's cost in profiled Python calls may not rise.

``tests/calls_per_tick.py`` counts each preset's profiled calls per
control tick.  The count is deterministic, so unlike ticks/s it does not
drift with the host, and a change that gives calls back shows here.  The
ceilings are the counts recorded on CPython 3.11 with each unit's control
chain written through, the boost's regulation written into its mode
machine and the runner's and the plant's glue around the traced layers
written out, every generated kernel's calls counted, plus one call of
margin.  The preset and half-step counts were recorded before the sample
row read the compensator's indices through ``dict.values``, one counted
call per recorded row, which spends half a call of their margin.  The
default scenario and the sharing preset at half the solver step take two
plant substeps per control tick, as the benchmark's sharing-halfstep
workload does, so the substep's calls count twice there.  The presets
switch the compensator on after the counted window, so the baseline preset
is counted again with it switched on at 0.1 s.
"""

import importlib.util
from importlib import resources
from pathlib import Path

import pytest

from pvisland import cli, signals

_spec = importlib.util.spec_from_file_location(
    "calls_per_tick", Path(__file__).resolve().parent / "calls_per_tick.py")
calls_per_tick = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calls_per_tick)

#: Profiled calls per control tick, as recorded.
RECORDED = {"baseline": 81.356, "loadstep": 61.356, "sharing": 81.356}
#: The same for the default scenario with ``solver.dt = 25e-6``.
RECORDED_TWO_SUBSTEPS = 109.356
#: The same for the sharing preset with ``solver.dt = 25e-6``: the benchmark's sharing-halfstep.
RECORDED_SHARING_TWO_SUBSTEPS = 109.356
#: The same for the baseline preset with ``vcc.enable_at = 0.1``: the compensator's ticks.
RECORDED_COMPENSATOR_ON = 95.706


@pytest.mark.parametrize("preset", cli.PRESETS)
def test_calls_per_tick_stay_under_the_ceiling(preset):
    assert calls_per_tick.calls_per_tick(preset) <= RECORDED[preset] + 1.0


def test_calls_per_tick_with_two_substeps_stay_under_the_ceiling(tmp_path):
    scenario = tmp_path / "halfstep.cfg"
    scenario.write_text("solver.dt = 25e-6\n", encoding="utf-8")
    assert calls_per_tick.calls_per_tick(str(scenario)) <= RECORDED_TWO_SUBSTEPS + 1.0


def test_calls_per_tick_of_sharing_at_half_the_step_stay_under_the_ceiling(tmp_path):
    scenario = tmp_path / "sharing-halfstep.cfg"
    preset = resources.files("pvisland.scenarios").joinpath("sharing.cfg").read_text()
    scenario.write_text(preset + "solver.dt = 25e-6\n", encoding="utf-8")
    assert calls_per_tick.calls_per_tick(str(scenario)) <= RECORDED_SHARING_TWO_SUBSTEPS + 1.0


def test_calls_per_tick_with_the_compensator_on_stay_under_the_ceiling(tmp_path):
    # not at 0.02 or 0.04 s, where the early-enable wedge clamps the corrections
    scenario = tmp_path / "baseline-vcc.cfg"
    preset = resources.files("pvisland.scenarios").joinpath("baseline.cfg").read_text()
    assert "vcc.enable_at" not in preset
    scenario.write_text(preset + "vcc.enable_at = 0.1\n", encoding="utf-8")
    assert calls_per_tick.calls_per_tick(str(scenario)) <= RECORDED_COMPENSATOR_ON + 1.0


def _call_each(functions, n):
    for _ in range(n):
        for f in functions:
            f()


def test_functions_sharing_a_file_line_and_name_are_each_counted():
    # two generated kernels: one label, ``<generated kernel>:1 kernel``, two code objects
    kernels = [signals._compiled(f"def kernel():\n    return {i}") for i in (1, 2)]
    assert [k.__code__.co_filename for k in kernels] == ["<generated kernel>"] * 2
    assert kernels[0] is not kernels[1]
    n = 50
    extra = (calls_per_tick.profiled_calls(_call_each, kernels, n)
             - calls_per_tick.profiled_calls(_call_each, [], n))
    assert extra == 2 * n
