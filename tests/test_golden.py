"""Byte-for-byte pins of the benchmark workloads' outputs at seed 0.

The three workloads of ``perfbench/workloads.json`` run at seed 0 and
their run directories are compared with ``tests/golden/``: the report
text byte for byte, and the CSV by its sha256, which is asserted only
under the Python and NumPy versions that recorded it (the CSV is
bit-identical only within one such pair).  A change to the numerics that
is meant shows up here; ``tests/make_golden.py`` regenerates the files.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("make_golden", _HERE / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.fixture(scope="module", params=make_golden.workload_names())
def workload_run(request, tmp_path_factory):
    name = request.param
    return name, make_golden.run_workload(name, tmp_path_factory.mktemp(name))


def test_report_matches_golden(workload_run):
    name, arts = workload_run
    golden = make_golden.GOLDEN / f"{name}.report.txt"
    assert arts.report_path.read_bytes() == golden.read_bytes()


def test_csv_hash_matches_golden(workload_run):
    name, arts = workload_run
    recorded = json.loads(make_golden.HASHES.read_text(encoding="utf-8"))
    made_by = {key: recorded[key] for key in make_golden.versions()}
    if made_by != make_golden.versions():
        pytest.skip(f"CSV hashes recorded under {made_by}, running {make_golden.versions()}")
    assert make_golden.sha256(arts.csv_path) == recorded["csv_sha256"][name]
