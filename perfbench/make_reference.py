"""Record the seed-0 reference values in ``workloads.json``.

Runs every workload once at seed 0 and stores, per workload, the report
values that ``checks.py`` compares and the CSV's sha256.  Run it from the
root of a checkout, only when a change to the numerics is deliberate::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil

import checks
import run
import workloads


def main():
    spec = workloads.load_spec()
    for name, workload in spec["workloads"].items():
        workload.pop("reference", None)
        bench = run.Bench(name, workload, 0, spec["check"], run.OUT / f"{name}-reference")
        arts = bench.runner.run_scenario(bench.cfg, bench.work / "run")
        report = checks.parse_report(arts.report_path)
        workload["reference"] = {
            "report": checks.reference_values(report, spec["check"]["floors"]),
            "csv_sha256": run.sha256(arts.csv_path),
        }
        shutil.rmtree(bench.work)
        print(name, workload["reference"])
    with open(workloads.SPEC_PATH, "w", encoding="utf-8") as f:
        json.dump(spec, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
