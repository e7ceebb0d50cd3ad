"""Smoke test of the benchmark harness: every workload at a tiny length.

Runs each workload through ``run.measure`` untraced and traced with the
simulated length cut to 0.4 s and the compensator, where the workload uses
it, switched on at 0.2 s.  Reference values do not apply at that length, so
only the invariants are checked.  From the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from trace_spans import MODULES  # noqa: E402

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = workloads.load_spec()


def tiny(name: str) -> dict:
    workload = dict(SPEC["workloads"][name])
    workload.pop("reference", None)
    cli = run.import_program()[0]
    overrides = {**workload["overrides"], "solver.duration": "0.4"}
    if {**cli._load_scenario(workload["preset"]).raw, **overrides}["vcc.enable_at"] != "off":
        overrides["vcc.enable_at"] = "0.2"
    workload["overrides"] = overrides
    return workload


@pytest.fixture(scope="module", params=sorted(SPEC["workloads"]))
def measured(request):
    name = request.param
    patch = pytest.MonkeyPatch()
    patch.setattr(run, "OUT", run.OUT / "smoke")
    patch.setattr(run, "SETUP_PER_RUN", 1)
    patch.setattr(run, "REPLAYS", 1)
    patch.setattr(run, "REBUILDS", 1)
    try:
        plain = run.measure(name, tiny(name), 0, 0.0, False,
                            CONTRACT["end_to_end"], SPEC["check"])
        traced = run.measure(name, tiny(name), 0, 0.0, True,
                             CONTRACT["per_layer"], SPEC["check"])
    finally:
        patch.undo()
    return name, plain, traced


def test_contract_names_every_workload():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(SPEC["workloads"])


def test_end_to_end_metrics_present_with_units(measured):
    _, plain, _ = measured
    assert plain["correct"], plain["problems"]
    assert plain["attempted"] >= run.MIN_RUNS and plain["failed"] == 0
    for spec in CONTRACT["end_to_end"]:
        metric = plain["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"]) and metric["value"] > 0.0, spec["name"]


def test_per_module_metrics_present_with_units(measured):
    _, _, traced = measured
    assert traced["correct"], traced["problems"]
    assert traced["detail"]["missing_hooks"] == []
    for spec in CONTRACT["per_layer"]:
        metric = traced["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert math.isfinite(metric["value"]), spec["name"]
    for module in MODULES:
        assert f"{module}.self_s" in traced["metrics"]


def test_self_times_add_up_to_run_simulation(measured):
    _, _, traced = measured
    detail = traced["detail"]
    for total, self_sum in zip(detail["traced_run_simulation_s"], detail["self_sum_s"]):
        assert self_sum == pytest.approx(total, rel=1e-9)


def test_compensator_runs_only_where_enabled(measured):
    name, _, traced = measured
    for module in ("vcc.pi", "vcc.reconstruction"):
        calls = traced["metrics"][f"{module}.calls"]["value"]
        assert (calls == 0) == (name == "loadstep-dc"), (module, calls)


def test_seeded_inputs_repeat_and_differ():
    base = {"load.balanced_r": "10.0", "load.unbalanced_r_a": "14.0",
            "load.harmonics": "3:3.1:0.0, -5:4.6:0.0", "events.irradiance": "0.3:1:0.9",
            "scenario.name": "x"}
    workload = {"overrides": {}, "perturb": {
        "scale": {"load.balanced_r": [0.9, 1.1]}, "harmonic_scale": [0.9, 1.1],
        "irradiance_values": [0.8, 0.9]}}
    seed0 = workloads.scenario_text("w", workload, 0, base)
    seed1 = workloads.scenario_text("w", workload, 1, base)
    assert workloads.scenario_text("w", workload, 1, base) == seed1
    assert "load.balanced_r = 10.0\n" in seed0
    assert "load.balanced_r = 10.0\n" not in seed1
    assert "events.irradiance = 0.3:1:0.9\n" not in seed1
