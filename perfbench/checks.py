"""Output checks on one finished run directory.

Every run must satisfy the invariants: energy audit and node residual under
the numerical-hygiene limits, a complete report, and a rebuilt report
(``pvisland report``) that reproduces the run's windowed metrics exactly.
On seed 0 the report values must also match the stored reference within
the numerical-hygiene rule: ``|a - b| / max(|a|, |b|, floor) <= rel_tol``,
with each metric's floor; counts must match exactly.
"""

from __future__ import annotations

import math
from pathlib import Path

#: Report keys that ``pvisland report`` rebuilds from the recorded channels.
#: Curtailment is left out: the rebuild prices the array at the configured
#: irradiance, the run at the irradiance it ended with.
REBUILT_KEYS = (
    "window_start_s", "window_end_s", "fundamental_hz",
    "thd_a_percent", "thd_b_percent", "thd_c_percent", "vuf_percent",
    "dg1_p_watts", "dg1_q_vars", "dg2_p_watts", "dg2_q_vars",
    "p_sharing_ratio", "q_sharing_ratio",
    "dg1_vdc_mean", "dg1_vdc_min", "dg1_vdc_max",
    "dg2_vdc_mean", "dg2_vdc_min", "dg2_vdc_max",
)


def parse_report(path: Path) -> dict[str, str]:
    """First value of every ``key = value`` line (repeated keys keep the first)."""
    out: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out.setdefault(key.strip(), value.strip())
    return out


def reference_values(report: dict[str, str], floors: dict) -> dict[str, float]:
    """The values of ``report`` that the reference check compares."""
    return {key: float(report[key]) for key in floors if key in report}


def check_run(run_dir: Path, rules: dict, reference: dict | None) -> list[str]:
    """Problems found in one run directory; an empty list means it passed."""
    problems = []
    report = parse_report(run_dir / "report.txt")
    audit = float(report.get("energy_audit_percent", "nan"))
    kcl = float(report.get("max_kcl_residual_amps", "nan"))
    if not audit < rules["energy_audit_percent_max"]:
        problems.append(f"energy audit {audit}% not below {rules['energy_audit_percent_max']}%")
    if not kcl < rules["kcl_residual_amps_max"]:
        problems.append(f"node residual {kcl} A not below {rules['kcl_residual_amps_max']} A")

    rebuilt_path = run_dir / "report_rebuilt.txt"
    if not rebuilt_path.exists():
        problems.append("report rebuild wrote no report_rebuilt.txt")
    else:
        rebuilt = parse_report(rebuilt_path)
        for key in REBUILT_KEYS:
            if key not in report:
                problems.append(f"report lacks {key}")
            elif rebuilt.get(key) != report[key]:
                problems.append(f"rebuilt {key} = {rebuilt.get(key)} differs from {report[key]}")

    if reference is not None:
        tol = rules["rel_tol"]
        for key, floor in rules["floors"].items():
            want = reference.get(key)
            have = report.get(key)
            if (want is None) != (have is None):
                problems.append(f"{key}: reference {want}, run {have}")
                continue
            if want is None:
                continue
            have = float(have)
            if floor is None:
                if have != want:
                    problems.append(f"{key} = {have}, reference {want}")
                continue
            rel = abs(have - want) / max(abs(have), abs(want), floor)
            if not (math.isfinite(rel) and rel <= tol):
                problems.append(f"{key} = {have}, reference {want} ({100.0 * rel:.3f}% off)")
    return problems
