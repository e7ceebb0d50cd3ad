"""Command-line entry points.

``run`` executes a scenario (file path or shipped preset name) and writes
CSV time series, a metrics report and the resolved-config echo.  ``validate``
parses a scenario as ``run`` does, which checks every key, the cross-key
rules and the report's length rule, and builds nothing.  ``report``
rebuilds the metrics report from a finished run directory; it parses the
time column and the channels the report reads
(:func:`pvisland.runner.report_channels`) and skips the rest of the CSV.

Importing this module loads the scenario parser only, so ``validate``
loads neither NumPy nor the models.  ``run`` and ``report`` import the
runner, and NumPy with it, once their scenario has parsed.

Exit codes: 0 success, 2 configuration error, 3 simulation divergence,
4 input/output error.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from importlib import resources
from pathlib import Path

from . import config as config_mod
from .errors import AnalysisError, ConfigurationError, SimulationDivergence
from .signals import ticks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

PRESETS = ("baseline", "loadstep", "sharing")


def _load_scenario(name_or_path: str, overrides: dict[str, str] | None = None
                   ) -> config_mod.ScenarioConfig:
    """Parse a scenario file or preset with ``overrides`` applied, for a reported run."""
    path = Path(name_or_path)
    if path.exists():
        cfg = config_mod.load_config(path)
    elif name_or_path in PRESETS:
        cfg = config_mod.parse_text(resources.files("pvisland.scenarios").joinpath(
            f"{name_or_path}.cfg").read_text())
    else:
        raise ConfigurationError(
            f"scenario {name_or_path!r} is neither a file nor one of the presets {PRESETS}")
    if overrides:
        cfg = config_mod.from_mapping({**cfg.raw, **overrides})
    config_mod.check_report_length(cfg)
    return cfg


def cmd_run(args) -> int:
    overrides: dict[str, str] = {}
    if args.duration is not None:
        overrides["solver.duration"] = repr(args.duration)
    if args.dt is not None:
        overrides["solver.dt"] = repr(args.dt)
    if args.vcc is not None:
        if args.vcc in ("on",):
            overrides["vcc.enable_at"] = "0.0"
        elif args.vcc == "off":
            overrides["vcc.enable_at"] = "off"
        elif args.vcc.startswith("at=") and args.vcc[3:].strip():
            overrides["vcc.enable_at"] = args.vcc[3:]
        else:
            raise ConfigurationError("--vcc expects on, off or at=<seconds>")
    cfg = _load_scenario(args.scenario, overrides)
    from . import runner

    artifacts = runner.run_scenario(cfg, args.out, with_plots=args.emit_plots)
    rep = artifacts.report
    print(f"run complete: {cfg.name}")
    print(f"  window      {rep.window[0]:.3f}..{rep.window[1]:.3f} s")
    thd_mean = sum(rep.thd_percent.values()) / 3.0
    print(f"  THD         {thd_mean:.3f} %   VUF {rep.vuf_percent:.3f} %")
    if rep.pre_thd_percent is not None:
        pre_mean = sum(rep.pre_thd_percent.values()) / 3.0
        print(f"  pre-THD     {pre_mean:.3f} %   pre-VUF {rep.pre_vuf_percent:.3f} %")
    print(f"  P1/P2       {rep.p_watts[0]:.1f} / {rep.p_watts[1]:.1f} W")
    print(f"  artifacts   {artifacts.out_dir}")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _load_scenario(args.scenario)
    print(f"scenario {cfg.name!r} is valid ({cfg.duration} s at dt={cfg.dt})")
    return EXIT_OK


def _first_bad_line(csv_path: Path, width: int) -> int | None:
    """The number of the first line after the header that is not ``width`` numbers."""
    with open(csv_path, "r", encoding="utf-8") as f:
        for number, line in enumerate(itertools.islice(f, 1, None), start=2):
            try:
                if len(list(map(float, line.split(",")))) == width:
                    continue
            except ValueError:
                pass
            return number
    return None


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    echo_path = run_dir / "config.echo"
    csv_path = run_dir / "timeseries.csv"
    if not echo_path.exists() or not csv_path.exists():
        raise FileNotFoundError(f"{run_dir} does not look like a run directory")
    cfg = config_mod.load_config(echo_path)
    with open(csv_path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        rows = sum(1 for _ in itertools.islice(f, 2))
    if "t" not in header:
        raise AnalysisError(f"{csv_path} has no 't' column")
    if rows < 2:
        raise AnalysisError(f"{csv_path} has fewer than two rows")
    import numpy as np

    from . import runner

    # only the time and the report's channels are parsed; a channel the
    # narrowed CSV lacks is named by the report's own check
    wanted = {"t", *runner.report_channels(len(cfg.dgs))}
    columns = [i for i, name in enumerate(header) if name in wanted]
    try:
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=columns, ndmin=2)
    except ValueError as exc:  # a line cut short, or a cell that is not a number
        line = _first_bad_line(csv_path, len(header))
        raise AnalysisError(f"{csv_path}: line {line} is not {len(header)} numbers"
                            if line else f"{csv_path}: {exc}") from exc
    parsed = dict(zip((header[i] for i in columns), data.T))
    # Windowed metrics rebuild exactly from the recorded channels; run-time
    # diagnostics (audit, residual, transitions, flags) live only in the
    # original report and read "unavailable" here.
    result = runner.RunResult(
        cfg=cfg,
        times=parsed.pop("t"),
        channels=parsed,
        flags=None,
        flags_dropped=None,
        mode_transitions=None,
        energy_audit_percent=None,
        max_kcl_residual=None,
        # priced, as in the run, after every irradiance event up to its last tick
        mpp_available_w=runner.mpp_available_w(
            cfg, ticks(cfg.duration, cfg.control_period) - 1),
    )
    report = runner.assemble_report(result)
    path = run_dir / "report_rebuilt.txt"
    runner.write_report(report, cfg, path)
    print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvisland",
        description="Islanded PV microgrid scenario simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("scenario", help="scenario file or preset name "
                       f"({', '.join(PRESETS)})")
    p_run.add_argument("--out", default="run_out", help="output directory")
    p_run.add_argument("--duration", type=float, default=None,
                       help="override simulated seconds")
    p_run.add_argument("--dt", type=float, default=None,
                       help="override solver step in seconds")
    p_run.add_argument("--vcc", default=None,
                       help="compensator schedule: on, off or at=<seconds>")
    p_run.add_argument("--emit-plots", action="store_true",
                       help="write plot-ready data files")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario without running")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=cmd_validate)

    p_rep = sub.add_parser("report", help="rebuild the report from a run directory")
    p_rep.add_argument("run_dir")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationDivergence as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
