"""Workload definitions and the seeded generation of their scenario text.

Each workload is a shipped preset plus an override map (``workloads.json``).
Seed 0 runs that configuration verbatim and is checked against stored
reference values.  Any other seed redraws the load resistances, the harmonic
injection amplitudes and the irradiance-event values inside the ranges the
workload states, so a claim can be re-checked on inputs it was not tuned on.
The program only ever receives the generated scenario text.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SPEC_PATH = Path(__file__).with_name("workloads.json")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def _perturb(flat: dict[str, str], ranges: dict, rng: random.Random):
    for key, (lo, hi) in sorted(ranges.get("scale", {}).items()):
        flat[key] = repr(float(flat[key]) * rng.uniform(lo, hi))
    if "harmonic_scale" in ranges and flat["load.harmonics"].strip():
        lo, hi = ranges["harmonic_scale"]
        items = []
        for item in flat["load.harmonics"].split(","):
            order, amp, *phase = (p.strip() for p in item.split(":"))
            items.append(":".join([order, repr(float(amp) * rng.uniform(lo, hi))] + phase))
        flat["load.harmonics"] = ", ".join(items)
    if "irradiance_values" in ranges and flat["events.irradiance"].strip():
        lo, hi = ranges["irradiance_values"]
        items = []
        for item in flat["events.irradiance"].split(","):
            t, dg, _ = (p.strip() for p in item.split(":"))
            items.append(f"{t}:{dg}:{rng.uniform(lo, hi)!r}")
        flat["events.irradiance"] = ", ".join(items)


def scenario_text(name: str, workload: dict, seed: int, base: dict[str, str]) -> str:
    """Scenario file for one workload and seed.

    ``base`` is the preset's fully resolved key map, as the program's own
    loader returns it.
    """
    flat = dict(base)
    flat.update(workload["overrides"])
    flat["scenario.name"] = name
    if seed != 0:
        _perturb(flat, workload["perturb"], random.Random(f"{name}:{seed}"))
    lines = [f"# {name}, seed {seed}"]
    lines += [f"{key} = {flat[key]}" for key in sorted(flat)]
    return "\n".join(lines) + "\n"
