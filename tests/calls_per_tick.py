"""Profiled Python calls per control tick: the tick's cost in calls, whatever the host.

cProfile counts every Python and built-in call that ``runner.run_simulation``
makes on a scenario run for 0.2 s and for 0.4 s.  The difference, divided by
the extra control ticks, is the count per tick without the set-up.  A first
run, not profiled, compiles the generated kernels, so both profiled runs
find them cached.  Each argument is a preset name or a scenario file; with
none, the presets are counted.  Run from the root of a checkout::

    PYTHONPATH=src python3 tests/calls_per_tick.py [preset-or-file ...]
"""

from __future__ import annotations

import cProfile
import sys

from pvisland import cli, config, runner
from pvisland.params import ticks

DURATIONS = ("0.2", "0.4")


def profiled_calls(fn, *args) -> int:
    """Every call cProfile sees while ``fn(*args)`` runs.

    The profiler keeps one entry per code object, and ``pstats`` keeps one of
    the entries that share a file, line and name: the generated kernels all
    share ``<generated kernel>:1 kernel``, so the sum runs over the entries.
    """
    profile = cProfile.Profile()
    profile.runcall(fn, *args)
    return sum(entry.callcount for entry in profile.getstats())


def calls_per_tick(name_or_path: str) -> float:
    raw = cli._load_scenario(name_or_path).raw
    cfgs = [config.from_mapping({**raw, "solver.duration": d}) for d in DURATIONS]
    runner.run_simulation(cfgs[0])
    (calls0, ticks0), (calls1, ticks1) = [
        (profiled_calls(runner.run_simulation, cfg), ticks(cfg.duration, cfg.control_period))
        for cfg in cfgs]
    return (calls1 - calls0) / (ticks1 - ticks0)


def main(argv: list[str]) -> int:
    for name in argv or cli.PRESETS:
        print(f"{name}: {calls_per_tick(name):.1f} profiled calls per control tick")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
