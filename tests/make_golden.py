"""Regenerate the behaviour pins under ``tests/golden/``.

Each benchmark workload runs once at seed 0, from the scenario text that
``perfbench/workloads.py`` generates.  Its ``report.txt`` is stored as
``<workload>.report.txt``; the sha256 of its ``timeseries.csv`` goes into
``csv_sha256.json`` together with the Python and NumPy versions that made
it, since the CSV is bit-identical only within one such pair.  Each
channel's mean and RMS go into ``channel_stats.json``, which holds under
any such pair to far more digits than the report prints.
``tests/test_golden.py`` compares fresh runs with these files.  Run this
from the root of a checkout, and only when a change to the numerics is
deliberate; the diff of the golden reports then records the change::

    PYTHONPATH=src python3 tests/make_golden.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from pvisland import cli, config, runner

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().with_name("golden")
HASHES = GOLDEN / "csv_sha256.json"
STATS = GOLDEN / "channel_stats.json"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


def workload_names() -> list[str]:
    return sorted(workloads.load_spec()["workloads"])


def versions() -> dict[str, str]:
    """The (Python, NumPy) pair a CSV hash holds for."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def workload_config(name: str) -> config.ScenarioConfig:
    """The workload's seed-0 scenario, parsed from the text the benchmark generates."""
    workload = workloads.load_spec()["workloads"][name]
    base = cli._load_scenario(workload["preset"]).raw
    return config.parse_text(workloads.scenario_text(name, workload, 0, base))


def run_workload(name: str, out_dir: Path) -> runner.RunArtifacts:
    """The workload's seed-0 scenario, run into ``out_dir``."""
    return runner.run_scenario(workload_config(name), out_dir)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def channel_stats(result: runner.RunResult) -> dict[str, dict[str, float]]:
    """Each recorded channel's mean and RMS over the whole run."""
    return {name: {"mean": float(np.mean(x)), "rms": float(np.sqrt(np.mean(x * x)))}
            for name, x in result.channels.items()}


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    hashes = {}
    stats = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workload_names():
            arts = run_workload(name, Path(tmp) / name)
            (GOLDEN / f"{name}.report.txt").write_bytes(arts.report_path.read_bytes())
            hashes[name] = sha256(arts.csv_path)
            stats[name] = channel_stats(arts.result)
            print(name, hashes[name])
    HASHES.write_text(json.dumps({**versions(), "csv_sha256": hashes}, indent=1) + "\n",
                      encoding="utf-8")
    STATS.write_text(json.dumps(stats, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
