"""Scenario execution: the time loop, report assembly, artifacts.

Each model builds itself from the parsed scenario, so :func:`build_plant`,
:func:`build_controllers` and :func:`build_compensator` are one constructor
call each.  Controllers run at their own fixed period (the boost trackers
and the central compensator decimate further); the plant integrates at the
solver step, taking several substeps per control tick when the step is
refined.  All channels are sampled on a fixed output grid and written as
CSV with full round-trip float precision, so a re-run from the echoed
configuration is byte-identical.  The table lives in memory a forked
child shares: a writer forked before the first tick turns each finished
block of rows into CSV text while the run goes on, so the text is ready
when the last tick ends.  Where another CPU is usable, the writer keeps
off the one the run forked it from, so the ticks do not wait for it.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import tempfile
import warnings
import weakref
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import MetricsReport, TimeSeries
from .config import ScenarioConfig, channel_names, check_report_length, echo, recorded_rows
from .control import MODE_VR, DgController
from .errors import AnalysisError
from .plant import Plant
from .params import PvParams, pv_current, ticks
from .signals import _SQRT3_OVER_2, Pll
from .vcc import CentralCompensator, DqExtractionBank


@dataclass
class RunResult:
    """In-memory outcome of one scenario run."""

    cfg: ScenarioConfig
    times: np.ndarray
    channels: dict[str, np.ndarray]
    # None where unknown: a result rebuilt from a run directory lacks them
    flags: list[tuple[float, str, str]] | None
    flags_dropped: int | None  # rising edges past the log's cap
    mode_transitions: list[tuple[float, str, str]] | None
    energy_audit_percent: float | None
    max_kcl_residual: float | None
    mpp_available_w: tuple[float, ...]
    # the CSV's rows as text, formatted by the run's writer: a descriptor of
    # an unlinked file, closed when the result is collected; None in a
    # result rebuilt from a run directory
    csv_rows: int | None = None

    @property
    def sample_dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def series(self, name: str, unit: str = "") -> TimeSeries:
        return TimeSeries(name, unit, self.sample_dt, self.channels[name])


def _mpp_power(pv: PvParams, irradiance: float) -> float:
    vs = np.linspace(0.0, pv.v_oc, 4001)
    ps = vs * np.array([pv_current(v, irradiance, pv) for v in vs.tolist()])
    return float(ps.max())


def irradiance_after(cfg: ScenarioConfig, tick: int) -> list[float]:
    """Each unit's irradiance once every event up to ``tick`` has applied."""
    out = [dg.pv.irradiance for dg in cfg.dgs]
    for t_event, d, value in sorted(cfg.irradiance_events):
        if ticks(t_event, cfg.control_period) <= tick:
            out[d] = value
    return out


def mpp_available_w(cfg: ScenarioConfig, tick: int) -> tuple[float, ...]:
    """Each unit's array maximum power under its irradiance after the events up to ``tick``."""
    return tuple(_mpp_power(dg.pv, g) for dg, g in zip(cfg.dgs, irradiance_after(cfg, tick)))


def build_plant(cfg: ScenarioConfig) -> Plant:
    return Plant(cfg)


def build_controllers(cfg: ScenarioConfig) -> list[DgController]:
    return [DgController(cfg, dg, f"dg{d + 1}") for d, dg in enumerate(cfg.dgs)]


def build_compensator(cfg: ScenarioConfig) -> CentralCompensator:
    return CentralCompensator(cfg)


#: Each unit's flags, in the order the loop gathers their states.
UNIT_FLAGS = ("droop_voltage_clamp", "current_reference_clamp", "dc_link_lockout",
              "modulation_clamp")
#: The compensator's flags, in the order the loop gathers their states.
VCC_FLAGS = ("output_clamp", "positive_sequence_floor")


class FlagLog:
    """Rising edges of each source's flags, bounded in size.

    ``last`` holds every source's latest states, all clear at the start.
    """

    LIMIT = 500

    def __init__(self, sources: dict[str, tuple[str, ...]]):
        self.names = sources
        self.last = {source: (False,) * len(names) for source, names in sources.items()}
        self.events: list[tuple[float, str, str]] = []
        self.dropped = 0

    def update(self, t: float, source: str, states: tuple[bool, ...]):
        """Record ``source``'s flag states at ``t``, logging each flag that rises."""
        last = self.last[source]
        if states == last:  # unchanged flags have no edge to log
            return
        self.last[source] = states
        for name, now, before in zip(self.names[source], states, last):
            if now and not before:
                if len(self.events) < self.LIMIT:
                    self.events.append((t, source, name))
                else:
                    self.dropped += 1


def run_simulation(cfg: ScenarioConfig) -> RunResult:
    """Simulate ``cfg`` and record every channel on the output grid.

    The table of samples is shared with a forked writer, which formats
    each ``CSV_BLOCK_ROWS`` block once it is recorded, while the ticks run;
    the result's ``csv_rows`` holds the text.  The writer is reaped before
    this returns, and killed and reaped before any exception propagates;
    a writer that fails raises an ``OSError``.
    """
    plant = build_plant(cfg)
    controllers = build_controllers(cfg)
    comp = build_compensator(cfg)
    vcc = cfg.vcc
    bank = DqExtractionBank(vcc.period, cutoff_hz=vcc.extraction_cutoff_hz,
                            damping=vcc.extraction_damping)
    pll = Pll(cfg.pll.kp, cfg.pll.ki, omega_init=cfg.omega,
              omega_min=cfg.omega * (1.0 - cfg.pll.band),
              omega_max=cfg.omega * (1.0 + cfg.pll.band))

    # The controllers run at their own fixed period; the plant may take
    # several integration substeps per control tick.  Controls are held
    # between ticks, and the load synchronization angle is advanced at the
    # tracked frequency across substeps, so refining the solver step only
    # refines the plant integration.  The tick count is the only clock:
    # every time compared is a tick, every time reported ``tick * dt_ctl``.
    dt_ctl = cfg.control_period
    # injections evaluated mid-substep: a start-of-step hold leaves a
    # first-order phase bias that shows up in the harmonic voltages
    offsets = [(sub + 0.5) * cfg.dt for sub in range(ticks(dt_ctl, cfg.dt))]
    n_ticks = ticks(cfg.duration, dt_ctl)
    vcc_dt = vcc.period
    vcc_every = ticks(vcc_dt, dt_ctl)
    sample_every = ticks(cfg.sample_dt, dt_ctl)

    # The schedule: a change applies at its tick, before its measurements.
    enable_tick = n_ticks if vcc.enable_at is None else ticks(vcc.enable_at, dt_ctl)
    load_tick = n_ticks if cfg.load.step_time is None else ticks(cfg.load.step_time, dt_ctl)
    events = deque(sorted((ticks(t, dt_ctl), d, g) for t, d, g in cfg.irradiance_events))
    delay_ticks = ticks(vcc.comm_delay, dt_ctl)

    # One row per sample: ``t``, then every channel in CSV column order;
    # column-major, so every channel is a contiguous view.
    names = channel_names(len(cfg.dgs))
    table = _shared_table(recorded_rows(cfg), 1 + len(names))
    channels = {n: table[:, i] for i, n in enumerate(names, start=1)}
    flags = FlagLog({"vcc": VCC_FLAGS, **{ctl.name: UNIT_FLAGS for ctl in controllers}})
    last_flags = flags.last

    zero_vcs = [(0.0, 0.0)] * len(controllers)
    # each unit's duty and modulation triple, rewritten on every tick
    duties = [0.0] * len(controllers)
    mods = [(0.0, 0.0, 0.0)] * len(controllers)
    # Every compensator tick broadcasts a snapshot of its effort phasors,
    # due at the units after the communication delay; the units rebuild
    # their corrections from the latest snapshot that has arrived.
    in_flight: deque[tuple[int, dict]] = deque()
    efforts: dict | None = None

    writer = _RowWriter([table[:, 0]] + [channels[n] for n in _csv_names(cfg)])
    try:
        for tick in range(n_ticks):
            t = tick * dt_ctl
            theta = pll.theta
            omega = pll.omega
            vcc_active = tick >= enable_tick
            if tick == load_tick:
                plant.network.set_load_scale(cfg.load.step_scale)
            while events and events[0][0] <= tick:
                _, d, value = events.popleft()
                plant.dc_sides[d].set_irradiance(value)

            v_pcc_ab, rows = plant.measurements(theta)
            vcc_tick = tick % vcc_every == 0
            sample_tick = tick % sample_every == 0
            if vcc_tick or sample_tick:  # the phase voltages, read on these ticks only
                va, vb = v_pcc_ab  # inverse_clarke_xy(va, vb), written out
                v_pcc_abc = va, -0.5 * va + _SQRT3_OVER_2 * vb, -0.5 * va - _SQRT3_OVER_2 * vb

            if vcc_tick:
                extracted = bank.step(v_pcc_abc, theta, vcc_dt)
                if vcc_active:
                    in_flight.append((tick + delay_ticks, comp.step(extracted, vcc_dt)))
                else:
                    comp.measure(extracted)

            while in_flight and in_flight[0][0] <= tick:
                efforts = in_flight.popleft()[1]

            vc_log = zero_vcs if efforts is None else comp.correction_from(efforts, theta)
            if vcc_active and vcc_tick:
                # the clamp counts once the corrections it cuts reach the units
                flags.update(t, "vcc", (comp.clamped, not comp.indices_valid))
                comp.clamped = False
            for d, (ctl, row, v_c) in enumerate(zip(controllers, rows, vc_log)):
                duties[d], mods[d] = ctl.step(row, v_c, t)

            if sample_tick:
                values = [t, *v_pcc_abc]
                for ctl, row in zip(controllers, rows):
                    _, _, _, _, ioa, iob, v_dc, v_pv, _ = row
                    boost = ctl.boost
                    values += (ctl.p_avg, ctl.q_avg, v_dc, v_pv, boost.duty,
                               1.0 if boost.mode == MODE_VR else 0.0, ctl.omega_ref,
                               ioa, -0.5 * ioa + _SQRT3_OVER_2 * iob,
                               -0.5 * ioa - _SQRT3_OVER_2 * iob)
                values += [row[7] * row[8] for row in rows]  # v_pv * i_pv
                values += (1.0 if vcc_active else 0.0, comp.vuf)
                values += comp.hd.values()
                for v_c in vc_log:
                    values += v_c
                sample = tick // sample_every
                table[sample] = values
                if (sample + 1) % CSV_BLOCK_ROWS == 0:
                    writer.send(sample + 1)

            pll.step(v_pcc_ab, dt_ctl)
            for offset in offsets:
                plant.step(duties, mods, theta + omega * offset)
            # after the substeps, so a bridge clamp is stamped with the tick of its commands;
            # an unchanged unit has no edge to log
            for ctl, saturated in zip(controllers, plant.saturated):
                states = (ctl.droop_clamped, ctl.voltage_loop.clamped,
                          ctl.current_loop.locked_out, saturated)
                if states != last_flags[ctl.name]:
                    flags.update(t, ctl.name, states)

        mode_transitions = sorted((t_switch, ctl.name, what) for ctl in controllers
                                  for t_switch, what in ctl.boost.transitions)

        result = RunResult(
            cfg=cfg,
            times=table[:, 0],
            channels=channels,
            flags=flags.events,
            flags_dropped=flags.dropped,
            mode_transitions=mode_transitions,
            energy_audit_percent=100.0 * plant.energy_audit_error(),
            max_kcl_residual=plant.max_kcl_residual,
            mpp_available_w=mpp_available_w(cfg, n_ticks - 1),
            csv_rows=writer.finish(len(table)),
        )
        weakref.finalize(result, os.close, result.csv_rows)
        return result
    finally:
        writer.discard()


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

SETTLE_AFTER_EVENT = 2.0   # seconds granted after the last scheduled event
STEADY_RMS_TOL = 2.0       # percent cycle-RMS variation treated as steady


def last_event_time(cfg: ScenarioConfig) -> float:
    times = [cfg.vcc.enable_at, cfg.load.step_time] + [ev[0] for ev in cfg.irradiance_events]
    return max([0.0] + [t for t in times if t is not None])


def report_channels(n_units: int) -> list[str]:
    """The channels :func:`assemble_report` reads from a roster of ``n_units`` units."""
    return ["vpcc_a", "vpcc_b", "vpcc_c", "dg1_omega"] + [
        name for i in range(1, n_units + 1)
        for name in (f"dg{i}_p", f"dg{i}_q", f"dg{i}_vdc", f"pv{i}_power")]


def assemble_report(result: RunResult) -> MetricsReport:
    cfg = result.cfg
    units = range(1, len(cfg.dgs) + 1)
    missing = set(report_channels(len(cfg.dgs))) - set(result.channels)
    if missing:
        raise AnalysisError(
            f"report needs channels {sorted(missing)}; add them to outputs.channels")

    sample_dt = result.sample_dt

    def rows(w0: float, w1: float) -> slice:
        """The recorded rows of the window from ``w0`` to ``w1``."""
        return slice(max(ticks(w0, sample_dt), 0), ticks(w1, sample_dt))

    def measured_f1(w0: float, w1: float) -> float:
        """Droop frequency averaged over a window; anchors the DFT bins."""
        return float(np.mean(result.channels["dg1_omega"][rows(w0, w1)])) / (2.0 * math.pi)

    f1 = measured_f1(cfg.duration * 0.5, cfg.duration)
    start, end = analysis.steady_window(result.series("vpcc_a", "V"), STEADY_RMS_TOL, f1)
    floor = last_event_time(cfg) + SETTLE_AFTER_EVENT  # the first row is tick 0, t = 0
    start = max(start, floor)
    # short of ten settled cycles the report falls back to the last ten
    settled = end - start >= 10.0 / f1
    if not settled:
        start = max(end - 10.0 / f1, 0.0)

    def window_metrics(w0: float, w1: float):
        fw = measured_f1(w0, w1)
        cycles = max(int((w1 - w0) * fw) - 1, 10)
        thds = {}
        phasors = []
        for phase in ("a", "b", "c"):
            name = f"vpcc_{phase}"
            clipped = TimeSeries(name, "V", sample_dt,
                                 result.channels[name][:ticks(w1, sample_dt)])
            sp = analysis.spectrum(clipped, fw, cycles)
            thds[phase] = analysis.thd(sp)
            phasors.append(complex(sp.phasors[0]))
        return thds, analysis.vuf_from_phasors(*phasors)

    thds, vuf_pct = window_metrics(start, end)

    window = rows(start, end)

    def window_mean(name: str) -> float:
        return float(np.mean(result.channels[name][window]))

    p_means = tuple(window_mean(f"dg{i}_p") for i in units)
    q_means = tuple(window_mean(f"dg{i}_q") for i in units)
    # the reported sharing ratios are unit 1 : unit 2
    sharing = analysis.SharingRatios(analysis.sharing_ratio(p_means[0], p_means[1]),
                                     analysis.sharing_ratio(q_means[0], q_means[1]))
    v_dc_stats = []
    for i in units:
        seg = result.channels[f"dg{i}_vdc"][window]
        v_dc_stats.append({"mean": float(np.mean(seg)), "min": float(np.min(seg)),
                           "max": float(np.max(seg))})
    pv_actual = [window_mean(f"pv{i}_power") for i in units]
    avail = sum(result.mpp_available_w)
    curtailment = 100.0 * max(0.0, 1.0 - sum(pv_actual) / avail) if avail > 0 else 0.0

    pre_window = None
    pre_thd = None
    pre_vuf = None
    if cfg.vcc.enable_at is not None and 0.5 < cfg.vcc.enable_at < cfg.duration:
        w1 = cfg.vcc.enable_at
        w0 = max(w1 - 1.0, 0.0)
        if w1 - w0 > 12.0 / f1:
            pre_thd, pre_vuf = window_metrics(w0, w1)
            pre_window = (w0, w1)

    return MetricsReport(
        window=(start, end),
        window_settled=settled,
        fundamental_hz=f1,
        thd_percent=thds,
        vuf_percent=vuf_pct,
        p_watts=p_means,
        q_vars=q_means,
        sharing=sharing,
        v_dc_stats=v_dc_stats,
        curtailment_percent=curtailment,
        energy_audit_percent=result.energy_audit_percent,
        max_kcl_residual=result.max_kcl_residual,
        flags=result.flags,
        flags_dropped=result.flags_dropped,
        mode_transitions=result.mode_transitions,
        pre_window=pre_window,
        pre_thd_percent=pre_thd,
        pre_vuf_percent=pre_vuf,
    )


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

@dataclass
class RunArtifacts:
    out_dir: Path
    csv_path: Path
    report_path: Path
    echo_path: Path
    report: MetricsReport
    result: RunResult


#: Rows turned into text at a time: small blocks keep few Python objects alive at once.
CSV_BLOCK_ROWS = 256


def _column_text(values: np.ndarray) -> list[str]:
    """The ``repr`` of each float64 value, formatting each run of equal values once.

    Held channels (the compensator's indices, modes, corrections before its
    first effort) repeat for many rows, and ``repr`` is most of the write's
    cost.  Runs are found on the bits, so ``0.0`` and ``-0.0`` stay apart
    and repeated NaNs form a run.
    """
    bits = values.view(np.int64)
    head = np.empty(len(bits), dtype=bool)  # where a run starts
    head[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=head[1:])
    if head.all():  # nothing repeats: expanding runs would only cost time
        return list(map(repr, values.tolist()))
    text = list(map(repr, values[head].tolist()))
    return list(map(text.__getitem__, (np.cumsum(head) - 1).tolist()))


def _current_cpu() -> int | None:
    """The CPU this process is on: ``processor``, field 39 of ``/proc/self/stat``.

    The fields are counted after the last ``)``, since the command name
    before it may hold spaces.  ``None`` where the file cannot be read or
    does not parse.
    """
    try:
        with open("/proc/self/stat", "rb") as f:
            stat = f.read()
        return int(stat[stat.rindex(b")") + 2:].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _shared_table(rows: int, cols: int) -> np.ndarray:
    """A zeroed float64 table in column-major order, in memory a forked child shares."""
    return np.ndarray((rows, cols), order="F", buffer=mmap.mmap(-1, 8 * rows * cols))


def _csv_names(cfg: ScenarioConfig) -> list[str]:
    """The CSV's channels: ``outputs.channels``, in channel order."""
    chosen = cfg.channels
    return [n for n in channel_names(len(cfg.dgs)) if chosen is None or n in chosen]


def _write_rows(f, cols: list[np.ndarray], start: int, stop: int):
    """Rows ``start`` to ``stop`` of ``cols`` as CSV lines, a block at a time.

    Each block is turned into text column by column, then joined row by
    row; every value is written as its ``repr``.
    """
    for i in range(start, stop, CSV_BLOCK_ROWS):
        texts = [_column_text(c[i:min(i + CSV_BLOCK_ROWS, stop)]) for c in cols]
        f.writelines(",".join(row) + "\n" for row in zip(*texts))
        del texts  # one block's strings alive at a time, not two


class _RowWriter:
    """A forked child that turns a shared table's rows into CSV text as they are recorded.

    This process sends the end of each finished block down a pipe; the
    child writes the rows up to it with :func:`_write_rows` into an
    unlinked temporary file, and exits once the pipe is closed.  The child
    pins itself, once, to the usable CPUs other than the one this process
    was on just before the fork (:func:`_current_cpu`): the scheduler tends
    to wake a pipe's reader on the writer's CPU, so an unpinned child
    formats on the ticks' CPU, taking turns with them while another CPU
    idles.  With that CPU unknown, or no other CPU usable, the child leaves
    its CPUs as they are and formats between the ticks.
    """

    def __init__(self, cols: list[np.ndarray]):
        self.pid = 0
        self.pipe = self.fd = stops = -1
        try:
            self.fd, name = tempfile.mkstemp(prefix="pvisland-rows-")
            os.unlink(name)
            stops, self.pipe = os.pipe()
            cpu = _current_cpu()
            with warnings.catch_warnings():
                # Python 3.12+ warns when a process with threads forks, and
                # NumPy's BLAS pool is one.  The child takes no lock another
                # thread may hold: it calls no BLAS routine, formats text and
                # leaves with os._exit.
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                        DeprecationWarning)
                self.pid = os.fork()
        except BaseException:
            if stops >= 0:
                os.close(stops)
            self.discard()
            raise
        if self.pid == 0:
            self._format(stops, cols, cpu)
        os.close(stops)

    def _format(self, stops: int, cols: list[np.ndarray], cpu: int | None):
        """The child's whole life: no cleanup of the parent's state may run here.

        ``cpu`` is the parent's CPU at the fork, or ``None`` where unknown.
        """
        code = 1
        try:
            os.close(self.pipe)
            if cpu is not None:
                away = os.sched_getaffinity(0) - {cpu}
                if away:
                    os.sched_setaffinity(0, away)
            with open(stops, "rb") as ends, open(self.fd, "w", encoding="utf-8", newline="",
                                                  closefd=False) as f:
                done = 0
                while end := ends.read(8):
                    stop = int.from_bytes(end, "little")
                    _write_rows(f, cols, done, stop)
                    done = stop
            code = 0
        finally:
            os._exit(code)

    def send(self, stop: int):
        """Have the rows up to ``stop`` formatted."""
        try:
            os.write(self.pipe, stop.to_bytes(8, "little"))
        except BrokenPipeError:  # the child has left: say how
            self.reap()
            raise

    def finish(self, rows: int) -> int:
        """Have the rows up to ``rows`` formatted, close the pipe and :meth:`reap` the child."""
        self.send(rows)
        os.close(self.pipe)
        self.pipe = -1
        return self.reap()

    def reap(self) -> int:
        """Wait for the child; the descriptor of its text, which the caller then owns."""
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = 0
        if status != 0:
            raise OSError(f"the process formatting the CSV's rows exited with status {status}")
        fd, self.fd = self.fd, -1
        return fd

    def discard(self):
        """Kill and reap the child if it is running; close what this writer still holds."""
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        for fd in (self.pipe, self.fd):
            if fd >= 0:
                os.close(fd)
        self.pipe = self.fd = -1


def write_csv(result: RunResult, path: Path):
    """The recorded table, narrowed to ``outputs.channels``, in channel order.

    The header is written, then the rows the run's writer formatted
    (``result.csv_rows``) are copied after it; the text is read at explicit
    offsets, so the same result can be written again.  A result without
    those rows, such as one rebuilt from a run directory, raises
    ``ValueError``.
    """
    if result.csv_rows is None:
        raise ValueError("the result carries no streamed CSV rows; only a result of "
                         "run_simulation can be written as CSV")
    names = _csv_names(result.cfg)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(["t"] + names) + "\n")
        f.flush()
        offset = 0
        while chunk := os.pread(result.csv_rows, 1 << 16, offset):
            f.buffer.write(chunk)
            offset += len(chunk)


def write_report(report: MetricsReport, cfg: ScenarioConfig, path: Path):
    lines = [f"scenario = {cfg.name}",
             f"duration_s = {cfg.duration:.6f}",
             f"dt_s = {cfg.dt:.9f}"]
    lines.extend(report.lines())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_plots(artifacts: RunArtifacts) -> list[Path]:
    """Columnar plot-ready files derived from the recorded channels."""
    result = artifacts.result
    report = artifacts.report
    cfg = result.cfg
    plot_dir = artifacts.out_dir / "plots"
    plot_dir.mkdir(exist_ok=True)
    times = result.times.tolist()
    sample_dt = result.sample_dt
    f1 = report.fundamental_hz
    n_five = ticks(5.0 / f1, sample_dt)
    written = []

    def columns(name: str, cols: list[str], rows: slice = slice(None)):
        path = plot_dir / name
        # read once as Python floats: a NumPy scalar per value doubles the formatting cost
        values = [result.channels[c][rows].tolist() for c in cols]
        with open(path, "w", encoding="utf-8") as f:
            f.write("# t " + " ".join(cols) + "\n")
            for t, row in zip(times[rows], zip(*values)):
                f.write(f"{t:.9f} " + " ".join(f"{v:.6f}" for v in row) + "\n")
        written.append(path)

    def voltage_window(name: str, t_end: float):
        i1 = ticks(t_end, sample_dt)
        columns(name, ["vpcc_a", "vpcc_b", "vpcc_c"], slice(max(i1 - n_five, 0), i1))

    def spectrum_file(name: str, t_end: float):
        ts = TimeSeries("vpcc_a", "V", sample_dt,
                        result.channels["vpcc_a"][:ticks(t_end, sample_dt)])
        sp = analysis.spectrum(ts, f1, 20)
        path = plot_dir / name
        with open(path, "w", encoding="utf-8") as f:
            f.write("# order freq_hz magnitude percent_of_fundamental\n")
            m1 = sp.magnitudes[0]
            for order, mag in zip(sp.orders, sp.magnitudes):
                f.write(f"{order} {order * sp.fundamental_hz:.3f} {mag:.6f} "
                        f"{100.0 * mag / m1:.4f}\n")
        written.append(path)

    if report.pre_window is not None:
        voltage_window("voltage_window_pre.dat", report.pre_window[1])
        spectrum_file("spectrum_pre.dat", report.pre_window[1])
    voltage_window("voltage_window_post.dat", report.window[1])
    spectrum_file("spectrum_post.dat", report.window[1])

    units = range(1, len(cfg.dgs) + 1)
    columns("power_sharing.dat", [f"dg{i}_p" for i in units] + [f"dg{i}_q" for i in units])
    columns("dc_link.dat", [f"dg{i}_vdc" for i in units] + [f"pv{i}_power" for i in units])
    columns("currents.dat", [f"dg{i}_io_{phase}" for i in units for phase in "abc"])
    return written


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path,
                 with_plots: bool = False) -> RunArtifacts:
    check_report_length(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, echo_path = out / "timeseries.csv", out / "config.echo"
    try:
        result = run_simulation(cfg)
    except OSError as exc:  # the run's system calls all serve the CSV: its table and writer
        raise OSError(f"{csv_path}: {exc}") from exc
    try:
        report = assemble_report(result)
    except AnalysisError as exc:
        raise AnalysisError(f"{exc}; timeseries.csv and config.echo are in {out}") from exc
    finally:  # a report that cannot be assembled still leaves the run's data
        write_csv(result, csv_path)
        echo_path.write_text(echo(cfg), encoding="utf-8")
    artifacts = RunArtifacts(out_dir=out, csv_path=csv_path, report_path=out / "report.txt",
                             echo_path=echo_path, report=report, result=result)
    write_report(report, cfg, artifacts.report_path)
    if with_plots:
        emit_plots(artifacts)
    return artifacts
