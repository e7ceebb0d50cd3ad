"""pvisland benchmark: host cost of simulating, writing and re-reading a run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload baseline-vcc --seed 0 --seconds 30 --trace 0

Each invocation runs one workload from ``perfbench/workloads.json`` in this
process, one run at a time (a closed loop of one caller), with BLAS pinned
to one thread.  It drives the library only through its public entry points:
``cli._load_scenario`` parses the generated scenario file,
``runner.run_scenario`` simulates and writes the run directory, and
``cli.main(["report", ...])`` rebuilds the report from it.

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
over repeated full runs until ``--seconds`` have been spent (at least two,
so the CSVs can be compared byte for byte).  After each run the artifact
phase and the report rebuild are replayed on the same result, and fresh
interpreters time the set-up path (``pvisland validate``), so the short
timings get enough samples, spread over the same window as the runs.
Every timing is host time scaled to a reference host speed by calibration
kernels run around and inside it (``calibrated.py``); raw host times are in
the result file.
``--trace 1`` wraps each module's public functions in spans
(``trace_spans.py``), makes one untraced and two traced runs, and reports
the per-module split.  Every run's output is checked (``checks.py``); a run
that raises or fails a check counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each metric is the median over
all passes; the table above that line also gives the raw median, the
number of passes and the tail percentile.  A fuller result, with
provenance, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

LOADAVG_AT_START = os.getloadavg()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before NumPy loads its BLAS
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

import calibrated
import checks
import workloads
from calibrated import clock
from trace_spans import MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_RUNS = 2            # two runs per invocation, so their CSVs can be compared
TRACED_RUNS = 2         # two traced passes, so their counters can be compared
# Passes of the short phases per run, a couple of seconds of each
REPLAYS = 12            # artifact passes on the run's result
REBUILDS = 12           # report rebuilds of the run directory
SETUP_PER_RUN = 6       # fresh interpreters timed for setup_s
CAL_EVERY = 250         # control ticks between calibration loops in a simulation
WARMUP_DURATION = "0.02"  # simulated seconds run once before any timing

SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from pvisland import cli; "
    "raise SystemExit(cli.main(['validate', sys.argv[2]]))"
)


class ProgramMissing(Exception):
    """The checkout holds no importable pvisland sources."""


def import_program():
    """Import pvisland from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "pvisland" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no pvisland sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import pvisland
    from pvisland import cli, config, runner, signals
    if Path(pvisland.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"pvisland imported from {pvisland.__file__}, not from src/")
    return cli, config, runner, signals


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_name() -> str | None:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"]["name"]
    except (TypeError, KeyError):
        return None


def provenance() -> dict:
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as f:
            src_lines += sum(1 for _ in f)
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(LOADAVG_AT_START),
        "src_py_lines": src_lines,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def describe(passes: list[float], better: str) -> dict:
    """Median over every pass, and the tail percentile.

    The median leaves out the few passes mis-scaled by a change of host
    speed between a pass and its calibration kernels.  The tail is the highest
    percentile with at least ten passes beyond it, on the worse side (above
    for lower-is-better, below otherwise); with fewer than eleven passes
    there is none.
    """
    n = len(passes)
    out = {"median": statistics.median(passes), "passes": n, "pass_samples": passes}
    if n >= 11:
        p = math.floor(100.0 * (n - 10) / n)
        q = p if better == "lower" else 100 - p
        out["tail"] = {"percentile": q, "value": float(np.percentile(passes, q))}
    return out


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def measure_setup(cfg_path: Path, launches: int) -> list[tuple[float, float]]:
    """(scaled, raw) times of fresh interpreters taking the validate path."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(cfg_path)]
    times = []
    for _ in range(launches):
        cal = calibrated.Pass()
        t0 = clock()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, check=False)
        raw = clock() - t0
        times.append((raw * cal.finish(), raw))
        if proc.returncode != 0:
            raise RuntimeError(f"validate exited {proc.returncode}: {proc.stderr.strip()}")
    return times


class Bench:
    """One workload at one seed, run in this process."""

    def __init__(self, name: str, workload: dict, seed: int, rules: dict, work: Path):
        self.cli, self.config, self.runner, self.signals = import_program()
        self.rules = rules
        self.reference = (workload["reference"]["report"]
                          if seed == 0 and "reference" in workload else None)
        self.work = work
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        base = self.cli._load_scenario(workload["preset"]).raw
        self.cfg_path = work / "scenario.cfg"
        self.cfg_path.write_text(workloads.scenario_text(name, workload, seed, base),
                                 encoding="utf-8")
        self.cfg = self.cli._load_scenario(str(self.cfg_path))
        self.ticks = int(round(self.cfg.duration / self.cfg.control_period))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.csv_sha: list[str] = []
        self._last_dir: Path | None = None

    def warm_up(self):
        flat = dict(self.cfg.raw)
        flat["solver.duration"] = WARMUP_DURATION
        self.runner.run_simulation(self.config.from_mapping(flat))

    def _finish_run(self, i: int, run_dir: Path, error: str | None) -> dict:
        """Check one run's outputs and count it; returns facts about its CSV."""
        self.attempted += 1
        problems = [error] if error else []
        facts = {}
        if not error:
            problems += checks.check_run(run_dir, self.rules, self.reference)
            csv = run_dir / "timeseries.csv"
            facts = {"csv_sha256": sha256(csv), "csv_bytes": csv.stat().st_size}
            if self.csv_sha and facts["csv_sha256"] != self.csv_sha[0]:
                problems.append("CSV differs from the first run's")
            self.csv_sha.append(facts["csv_sha256"])
        if problems:
            self.failed += 1
            self.problems += [f"run {i}: {p}" for p in problems]
        # keep only the latest run directory on disk
        if self._last_dir is not None:
            shutil.rmtree(self._last_dir, ignore_errors=True)
        self._last_dir = run_dir
        return facts

    def _rebuild_report(self, run_dir: Path) -> float:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = clock()
            code = self.cli.main(["report", str(run_dir)])
            t1 = clock()
        if code != 0:
            raise RuntimeError(f"pvisland report exited {code}")
        return t1 - t0

    def _timed_rebuild(self, run_dir: Path) -> tuple[float, float]:
        cal = calibrated.Pass(calibrated.parse_time, ends=3)
        raw = self._rebuild_report(run_dir)
        return raw * cal.finish(), raw

    def _timed_scenario(self, run_dir: Path) -> tuple:
        """``run_scenario`` in one calibrated pass, its simulation timed apart.

        Returns the artifacts, then a dict of (scaled, raw) pairs:
        ``run_wall_s`` and ``sim_s``.
        """
        runner = self.runner
        real = runner.run_simulation
        pll = self.signals.Pll
        real_step = vars(pll).get("step")
        cal = calibrated.Pass()
        ticks = itertools.count(1)
        sim = {}

        def step(pll_self, *args, **kwargs):  # called once per control tick
            if next(ticks) % CAL_EVERY == 0:
                cal.probe()
            return real_step(pll_self, *args, **kwargs)

        def stand_in(cfg):
            sim["start"] = clock()
            out = real(cfg)
            sim["end"] = clock()
            return out

        runner.run_simulation = stand_in
        if real_step is not None:  # without the hook the pass is calibrated at its ends
            pll.step = step
        try:
            t0 = clock()
            arts = runner.run_scenario(self.cfg, run_dir)
            t1 = clock()
        finally:
            runner.run_simulation = real
            if real_step is not None:
                pll.step = real_step
        k = cal.finish()
        raw = {"run_wall_s": t1 - t0 - cal.inside,
               "sim_s": sim["end"] - sim["start"] - cal.inside}
        return arts, {key: (value * k, value) for key, value in raw.items()}

    def _timed_artifacts(self, result) -> tuple[float, float]:
        """``run_scenario`` on a finished ``result``, into a fresh directory:
        the artifact phase alone, from the RunResult to the finished
        directory, scaled by the text kernel."""
        out_dir = self.work / "replay"
        shutil.rmtree(out_dir, ignore_errors=True)
        runner = self.runner
        real = runner.run_simulation
        runner.run_simulation = lambda cfg: result
        try:
            cal = calibrated.Pass(calibrated.text_time, ends=3)
            t0 = clock()
            runner.run_scenario(self.cfg, out_dir)
            raw = clock() - t0
        finally:
            runner.run_simulation = real
        return raw * cal.finish(), raw

    def timed_run(self, i: int) -> dict | None:
        """One untraced run, ``REPLAYS`` artifact passes on its result, then
        ``REBUILDS`` report rebuilds of its directory.  Returns, per metric,
        the (scaled, raw) times of each pass."""
        run_dir = self.work / f"run{i}"
        try:
            arts, first = self._timed_scenario(run_dir)
            artifacts = [self._timed_artifacts(arts.result) for _ in range(REPLAYS)]
            rebuild = [self._timed_rebuild(run_dir) for _ in range(REBUILDS)]
        except Exception:  # a failed run is counted, and the benchmark goes on
            self._finish_run(i, run_dir, traceback.format_exc(limit=3).strip())
            return None
        self._finish_run(i, run_dir, None)
        sim_scaled, sim_raw = first["sim_s"]
        return {
            "ticks_per_s": [(self.ticks / sim_scaled, self.ticks / sim_raw)],
            "run_wall_s": [first["run_wall_s"]],
            "artifacts_s": artifacts,
            "report_rebuild_s": rebuild,
        }

    def traced_run(self, i: int, tracer: Tracer) -> dict | None:
        """One traced pass: parse, run_scenario and the report rebuild."""
        run_dir = self.work / f"traced{i}"
        mark = tracer.mark()
        try:
            with tracer.installed():
                cfg = self.cli._load_scenario(str(self.cfg_path))
                arts = self.runner.run_scenario(cfg, run_dir)
                self._rebuild_report(run_dir)
        except Exception:
            self._finish_run(i, run_dir, traceback.format_exc(limit=3).strip())
            return None
        summary = tracer.summary(mark)
        summary["counts"]["runner.write_csv.rows"] = len(arts.result.times)
        facts = self._finish_run(i, run_dir, None)
        if facts:
            summary["counts"]["runner.write_csv.bytes"] = facts["csv_bytes"]
        return summary

    def cleanup(self):
        if self._last_dir is not None:
            shutil.rmtree(self._last_dir, ignore_errors=True)
        shutil.rmtree(self.work / "replay", ignore_errors=True)


def run_end_to_end(bench: Bench, seconds: float, metric_specs: list[dict]) -> dict:
    measure_setup(bench.cfg_path, 1)  # the first launch also compiles bytecode caches
    bench.warm_up()
    timed = {spec["name"]: [] for spec in metric_specs}   # (scaled, raw) per pass
    started = clock()
    runs = 0
    while True:
        t0 = clock()
        for key, passes in (bench.timed_run(runs) or {}).items():
            timed[key] += passes
        # set-up launches are spread over the measured time, like the runs
        timed["setup_s"] += measure_setup(bench.cfg_path, SETUP_PER_RUN)
        runs += 1
        if runs >= MIN_RUNS and clock() - started + (clock() - t0) > seconds:
            break
    bench.cleanup()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed["peak_rss_mb"] = [(rss, rss)]
    stats = {}
    for spec in metric_specs:
        passes = timed[spec["name"]] or [(0.0, 0.0)]  # no successful run: failed > 0
        stats[spec["name"]] = describe([x for x, _ in passes], spec["better"])
        stats[spec["name"]]["raw_median"] = statistics.median(r for _, r in passes)
    return {
        "stats": stats,
        "values": {name: s["median"] for name, s in stats.items()},
        "runs": runs,
        "measured_seconds": clock() - started,
    }


def run_traced(bench: Bench) -> dict:
    bench.warm_up()
    untraced_s = None
    try:
        t0 = clock()
        bench.runner.run_simulation(bench.cfg)
        untraced_s = clock() - t0
    except Exception:  # counted; the traced passes still run
        bench.attempted += 1
        bench.failed += 1
        bench.problems.append("untraced run: " + traceback.format_exc(limit=3).strip())
    tracer = Tracer()
    passes = [bench.traced_run(i, tracer) for i in range(TRACED_RUNS)]
    passes = [p for p in passes if p is not None]
    bench.cleanup()
    spans_path = bench.work / "spans.npz"
    tracer.save(spans_path)
    if not passes:
        return {"values": {}, "passes": [], "missing_hooks": tracer.missing}

    # the counters of every pass must repeat exactly; the comparison counts
    # as one more operation
    first = passes[0]
    calls0 = {m: v["calls"] for m, v in first["modules"].items()}
    bench.attempted += 1
    if any({m: v["calls"] for m, v in p["modules"].items()} != calls0
           or p["counts"] != first["counts"] for p in passes[1:]):
        bench.failed += 1
        bench.problems.append("traced passes: counters differ between passes")

    def mean(f):
        return statistics.fmean(f(p) for p in passes)

    sim_s = mean(lambda p: p["run_simulation_s"])
    values = {}
    for module in MODULES:
        calls = first["modules"][module]["calls"]
        self_s = mean(lambda p: p["modules"][module]["self_s"])
        values[f"{module}.calls"] = calls
        values[f"{module}.self_s"] = self_s
        values[f"{module}.us_per_call"] = 1e6 * self_s / calls if calls else 0.0
        values[f"{module}.share"] = self_s / sim_s
    counts = first["counts"]
    rebuilds = counts["control.extractor.rebuilds"]
    extractor_calls = values["control.extractor.calls"]
    values["control.extractor.rebuilds"] = rebuilds
    values["control.extractor.hit_ratio"] = (
        1.0 - rebuilds / extractor_calls if extractor_calls else 0.0)
    values["plant.ac_rebuilds"] = counts["plant.ac_rebuilds"]
    rows = counts["runner.write_csv.rows"]
    values["runner.write_csv.rows"] = rows
    values["runner.write_csv.bytes"] = counts.get("runner.write_csv.bytes", 0)
    values["runner.write_csv.us_per_row"] = 1e6 * values["runner.write_csv.self_s"] / rows
    values["trace_overhead_ratio"] = sim_s / untraced_s if untraced_s else 0.0
    return {
        "values": values,
        "untraced_run_simulation_s": untraced_s,
        "traced_run_simulation_s": [p["run_simulation_s"] for p in passes],
        "self_sum_s": [p["run_simulation_self_sum_s"] for p in passes],
        "passes": passes,
        "missing_hooks": tracer.missing,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def measure(name: str, workload: dict, seed: int, seconds: float, trace: bool,
            metric_specs: list[dict], rules: dict) -> dict:
    """Run one workload; returns the result, with the metric specs filled in."""
    bench = Bench(name, workload, seed, rules,
                  OUT / f"{name}-seed{seed}-trace{int(trace)}")
    detail = run_traced(bench) if trace else run_end_to_end(bench, seconds, metric_specs)
    values = detail["values"] or {spec["name"]: 0.0 for spec in metric_specs}
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in metric_specs}
    if bench.attempted == 0:
        bench.attempted, bench.failed = 1, 1
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
        "failed_ratio": bench.failed / bench.attempted,
        "problems": bench.problems,
        "csv_sha256": bench.csv_sha[0] if bench.csv_sha else None,
        "csv_sha256_matches_reference": (
            bench.csv_sha[0] == workload["reference"]["csv_sha256"]
            if bench.csv_sha and bench.reference is not None else None),
        "ticks": bench.ticks,
        "detail": detail,
    }


def print_table(result: dict, trace: bool):
    if trace:
        v = result["detail"]["values"]
        print(f"{'module':24} {'calls':>9} {'self_s':>9} {'us/call':>9} {'share':>7}")
        for module in MODULES:
            print(f"{module:24} {v.get(module + '.calls', 0):9d} "
                  f"{v.get(module + '.self_s', 0.0):9.4f} "
                  f"{v.get(module + '.us_per_call', 0.0):9.2f} "
                  f"{100.0 * v.get(module + '.share', 0.0):6.1f}%")
        for key in ("control.extractor.hit_ratio", "plant.ac_rebuilds",
                    "runner.write_csv.us_per_row", "trace_overhead_ratio"):
            if key in v:
                print(f"{key} = {v[key]:.4g}")
    else:
        print(f"{result['detail']['runs']} runs in {result['detail']['measured_seconds']:.1f} s")
        print(f"{'metric':18} {'median':>12} {'raw median':>12} {'passes':>6} "
              f"{'tail':>20}  unit")
        for name, s in result["detail"]["stats"].items():
            tail = s.get("tail")
            tail_text = (f"p{tail['percentile']}={tail['value']:.6g}"
                         if tail else "none (n<11)")
            unit = result["metrics"][name]["unit"]
            print(f"{name:18} {s['median']:12.6g} {s['raw_median']:12.6g} {s['passes']:6d} "
                  f"{tail_text:>20}  {unit}")
    print(f"failed_ratio = {result['failed']}/{result['attempted']} = "
          f"{result['failed_ratio']:.4g}; CSV matches reference: "
          f"{result['csv_sha256_matches_reference']}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        contract = json.load(f)
    spec = workloads.load_spec()
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}; have {sorted(spec['workloads'])}",
              file=sys.stderr)
        return 2
    metric_specs = contract["per_layer" if args.trace else "end_to_end"]
    try:
        result = measure(args.workload, spec["workloads"][args.workload], args.seed,
                         args.seconds, bool(args.trace), metric_specs, spec["check"])
    except ProgramMissing as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 3

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(), **result}
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_table(result, bool(args.trace))
    print(f"result file: {out_path.relative_to(ROOT)}")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
