"""The benchmark's view of the library must keep working.

``perfbench/trace_spans.py`` patches library functions by module and
attribute path; a hook that no longer resolves silently drops a layer from
the traced split, so every entry is checked here, in the fast suite.  The
benchmark's workloads are scenario files generated by
``perfbench/workloads.py``; a tightened input check that rejected one would
turn every benchmark run of it into a failure, so each is validated here.
The benchmark also calibrates host speed from inside the run, from the PLL
step it expects once per control tick, so the hooks' call counts on a short
run are pinned here too.
"""

import importlib.util
from pathlib import Path

import pytest

from pvisland import cli, runner
from pvisland.config import from_mapping
from pvisland.signals import ticks

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import(name):
    spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace_spans = _import("trace_spans")
workloads = _import("workloads")


def test_every_hook_resolves():
    missing = [f"{module}.{path}" for _, module, path in trace_spans.SPANS + trace_spans.COUNTERS
               if trace_spans._resolve(module, path) is None]
    assert missing == []


@pytest.mark.parametrize("name", sorted(workloads.load_spec()["workloads"]))
def test_workload_scenario_validates(name, tmp_path, capsys):
    workload = workloads.load_spec()["workloads"][name]
    base = cli._load_scenario(workload["preset"]).raw
    path = tmp_path / "scenario.cfg"
    path.write_text(workloads.scenario_text(name, workload, 0, base), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK


def test_hooks_are_on_the_tick_path():
    # the plant hooks follow the substeps: half the solver step doubles them
    for dt in ("50e-6", "25e-6"):
        cfg = from_mapping({"solver.duration": "0.4", "solver.dt": dt})
        tracer = trace_spans.Tracer()
        mark = tracer.mark()
        with tracer.installed():
            runner.run_simulation(cfg)
        summary = tracer.summary(mark)
        calls = {name: module["calls"] for name, module in summary["modules"].items()}
        n_ticks = ticks(cfg.duration, cfg.control_period)
        n_steps = n_ticks * ticks(cfg.control_period, cfg.dt)
        units = len(cfg.dgs)
        assert calls["signals.pll"] == n_ticks
        assert calls["control.step"] == n_ticks * units
        assert calls["plant.step"] == n_steps
        assert calls["plant.ac_step"] == n_steps
        assert calls["plant.dc_step"] == n_steps * units
        assert calls["plant.audit"] == 3 * n_steps
        assert calls["plant.measurements"] == n_ticks
        assert summary["counts"]["control.extractor.rebuilds"] == n_ticks * units


def test_compensator_hooks_are_on_the_tick_path():
    # extraction runs on every compensator tick, the PI step only once enabled
    cfg = from_mapping({"solver.duration": "0.4", "vcc.enable_at": "0.2"})
    tracer = trace_spans.Tracer()
    mark = tracer.mark()
    with tracer.installed():
        runner.run_simulation(cfg)
    calls = {name: module["calls"] for name, module in tracer.summary(mark)["modules"].items()}
    vcc_every = ticks(cfg.vcc.period, cfg.control_period)
    n_ticks = ticks(cfg.duration, cfg.control_period)
    enable_tick = ticks(cfg.vcc.enable_at, cfg.control_period)
    assert calls["vcc.extraction"] == n_ticks // vcc_every == 400
    assert calls["vcc.pi"] == (n_ticks - enable_tick) // vcc_every == 200
