import contextlib
import copy
import dataclasses
import itertools
import os
import subprocess
import sys
import tempfile
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvisland import analysis, cli, runner, signals
from pvisland.config import (KEYS, KNOWN_CHANNELS, UNIT_KEYS, UNIT_PREFIXES,
                             VCC_INDEX_CHANNELS, channel_names, echo, from_mapping,
                             recorded_rows)
from pvisland.errors import AnalysisError, ConfigurationError, SimulationDivergence
from pvisland.runner import (
    UNIT_FLAGS,
    VCC_FLAGS,
    FlagLog,
    build_compensator,
    build_controllers,
    build_plant,
    run_scenario,
    run_simulation,
)
from pvisland.plant import Plant
from pvisland.params import HARMONIC_ORDERS, ticks

SHORT = {"solver.duration": "0.6", "vcc.enable_at": "off"}


@contextlib.contextmanager
def held_to(cpus: str):
    """This thread held to one of its usable CPUs (``"one-cpu"``) or to all; yields the set."""
    usable = os.sched_getaffinity(0)
    held = {min(usable)} if cpus == "one-cpu" else usable
    os.sched_setaffinity(0, held)
    try:
        yield held
    finally:
        os.sched_setaffinity(0, usable)


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("short_run")
    cfg = from_mapping(SHORT)
    return run_scenario(cfg, out, with_plots=True)


class TestRunArtifacts:
    def test_csv_header_contract(self, short_run):
        header = short_run.csv_path.read_text().splitlines()[0]
        assert header == ",".join(["t"] + KNOWN_CHANNELS)

    def test_csv_floats_round_trip(self, short_run):
        lines = short_run.csv_path.read_text().splitlines()
        parsed = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
        assert parsed[0, 0] == 0.0
        # full precision repr: every cell reparses to the recorded bits
        result = short_run.result
        table = np.column_stack([result.times] + [result.channels[n] for n in KNOWN_CHANNELS])
        assert parsed.shape == table.shape
        assert np.array_equal(parsed.view(np.int64), table.view(np.int64))

    @staticmethod
    def _patterned_result(n: int) -> runner.RunResult:
        """A result whose channels hold runs that the CSV's blocks cut."""
        rows = np.arange(n)
        signed_zeros = np.where(rows < 100, 0.0, -0.0)
        signed_zeros[300:] = 0.0
        specials = np.select([rows < 50, rows < 120, rows < 200],
                             [np.nan, np.inf, -np.inf], default=np.nan)
        across = np.where((rows >= 200) & (rows < 400), 1.5, 0.1)  # runs over row 256
        distinct = np.random.default_rng(0).standard_normal(n) * 10.0 ** (rows % 40 - 20)
        held_to_end = np.repeat([3.25, 2.0, 7.0], [255, n - 256, 1])  # last run one row long
        # held from row 200 to the end: every later block edge lies inside it
        over_edges = np.where(rows < 200, -0.5, 6.25)
        patterns = [signed_zeros, specials, across, distinct, held_to_end, over_edges]
        cfg = from_mapping(SHORT)
        names = channel_names(len(cfg.dgs))
        return runner.RunResult(
            cfg=cfg, times=rows * 1e-4,
            channels={name: patterns[i % len(patterns)].copy() for i, name in enumerate(names)},
            flags=None, flags_dropped=None, mode_transitions=None,
            energy_audit_percent=None, max_kcl_residual=None, mpp_available_w=())

    @staticmethod
    def _expected_lines(result: runner.RunResult, names: list[str] | None = None) -> list[str]:
        names = channel_names(len(result.cfg.dgs)) if names is None else names
        table = np.column_stack([result.times] + [result.channels[name] for name in names])
        return ([",".join(["t"] + names)]
                + [",".join(map(repr, row)) for row in table.tolist()] + [""])

    def test_csv_lines_are_each_rows_repr(self, tmp_path):
        # held runs are formatted once per block by the writer a run forks:
        # the text does not show it
        n = 2 * runner.CSV_BLOCK_ROWS + 1  # the last block is one row
        result = self._patterned_result(n)
        # a result without streamed rows, as `pvisland report` rebuilds one, has no CSV
        with pytest.raises(ValueError, match="no streamed CSV rows"):
            runner.write_csv(result, tmp_path / "rebuilt.csv")
        assert not (tmp_path / "rebuilt.csv").exists()

        # the writer's side of a run: rows recorded into the shared table a
        # block at a time, each block sent once it is complete
        recorded = np.column_stack(
            [result.times] + [result.channels[name] for name in channel_names(2)])
        table = runner._shared_table(*recorded.shape)
        writer = runner._RowWriter(list(table.T))
        try:
            for stop in range(runner.CSV_BLOCK_ROWS, n + 1, runner.CSV_BLOCK_ROWS):
                table[stop - runner.CSV_BLOCK_ROWS:stop] = recorded[
                    stop - runner.CSV_BLOCK_ROWS:stop]
                writer.send(stop)
            table[stop:] = recorded[stop:]
            streamed = dataclasses.replace(result, csv_rows=writer.finish(n))
        finally:
            writer.discard()
        try:
            runner.write_csv(streamed, tmp_path / "streamed.csv")
        finally:
            os.close(streamed.csv_rows)
        text = (tmp_path / "streamed.csv").read_text(encoding="utf-8")
        assert text.split("\n") == self._expected_lines(result)
        with pytest.raises(ChildProcessError):  # no child is left behind
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("channels", ["all", "vpcc_b, dg2_q, vcc_hd5, vc2_beta"])
    def test_streamed_rows_are_each_rows_repr(self, tmp_path, channels):
        cfg = from_mapping({"solver.duration": "0.12", "vcc.enable_at": "0.06",
                            "outputs.channels": channels})
        result = run_simulation(cfg)
        with pytest.raises(ChildProcessError):  # the run reaped its writer
            os.waitpid(-1, os.WNOHANG)
        names = [n for n in KNOWN_CHANNELS if channels == "all" or n in channels.split(", ")]
        expected = self._expected_lines(result, names)
        # the rows are copied, not consumed: every write gives the same bytes
        for i in range(3):
            path = tmp_path / f"timeseries{i}.csv"
            runner.write_csv(result, path)
            assert path.read_text(encoding="utf-8").split("\n") == expected, i

    @pytest.mark.parametrize("cpus", ["all-cpus", "one-cpu"])
    @pytest.mark.parametrize("rows", [2, runner.CSV_BLOCK_ROWS - 1, runner.CSV_BLOCK_ROWS,
                                      runner.CSV_BLOCK_ROWS + 1])
    def test_every_table_is_streamed_by_one_writer(self, tmp_path, monkeypatch, rows, cpus):
        # tables short of one block, of exactly one, and one row past it
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        cfg = from_mapping({"solver.duration": str(rows / 1e4)})  # a row every 0.1 ms
        assert recorded_rows(cfg) == rows
        with held_to(cpus):
            result = run_simulation(cfg)
        assert len(forks) == 1
        assert result.csv_rows is not None
        runner.write_csv(result, tmp_path / "timeseries.csv")
        text = (tmp_path / "timeseries.csv").read_text(encoding="utf-8")
        assert text.split("\n") == self._expected_lines(result)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("case", ["pinned", "one-cpu", "cpu-unknown"])
    def test_writer_keeps_off_the_simulating_cpu(self, tmp_path, monkeypatch, case):
        # the writer formats on the CPUs the run did not fork on; held to
        # one CPU, or with the run's CPU unknown, it is not pinned; the
        # bytes never change
        usable = os.sched_getaffinity(0)
        if case == "pinned" and len(usable) < 2:
            pytest.skip("needs two usable CPUs")
        at_fork = []
        real_cpu = runner._current_cpu

        def current_cpu():
            at_fork.append(None if case == "cpu-unknown" else real_cpu())
            return at_fork[-1]

        at_first_send = []
        real_send = runner._RowWriter.send

        def send(writer, stop):
            if not at_first_send:
                cpus = os.sched_getaffinity(writer.pid)
                deadline = time.monotonic() + 5  # the child pins itself once it runs
                while case == "pinned" and cpus == usable and time.monotonic() < deadline:
                    time.sleep(0.001)
                    cpus = os.sched_getaffinity(writer.pid)
                at_first_send.append(cpus)
            real_send(writer, stop)

        monkeypatch.setattr(runner, "_current_cpu", current_cpu)
        monkeypatch.setattr(runner._RowWriter, "send", send)
        cfg = from_mapping({"solver.duration": "0.12", "vcc.enable_at": "0.06"})
        with held_to("one-cpu" if case == "one-cpu" else "all-cpus") as held:
            result = run_simulation(cfg)
        runner.write_csv(result, tmp_path / "timeseries.csv")
        text = (tmp_path / "timeseries.csv").read_text(encoding="utf-8")
        assert text.split("\n") == self._expected_lines(result)
        if case == "pinned":
            assert at_first_send[0] and at_fork[0] not in at_first_send[0]
            assert at_first_send[0] < usable
        else:
            assert at_first_send == [held]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("failing, cpus", [
        pytest.param(failing, cpus, id=failing if cpus == "all-cpus" else f"{failing}-{cpus}")
        for cpus in ("all-cpus", "one-cpu")
        for failing in ("child", "parent", "parent-at-block-edge")])
    def test_a_failed_half_leaves_no_child_and_no_temporary_file(self, tmp_path, monkeypatch,
                                                                 capsys, failing, cpus):
        # the writer fails on its first block, or the run diverges mid-block
        # or right after its first block was sent (ticks 0-510 recorded rows
        # 0-255 at two ticks per row)
        temporary = tmp_path / "tmp"
        temporary.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temporary))
        if failing == "child":
            real = runner._column_text
            parent = os.getpid()

            def column_text(values):
                if os.getpid() != parent:
                    raise MemoryError("writer")
                return real(values)

            monkeypatch.setattr(runner, "_column_text", column_text)
        else:
            fail_at = 700 if failing == "parent" else 510
            real_step = Plant.step
            calls = itertools.count(1)

            def step(plant, *args):
                if next(calls) > fail_at:
                    raise SimulationDivergence("diverged", t_last_good=0.0)
                return real_step(plant, *args)

            monkeypatch.setattr(Plant, "step", step)
        open_before = sorted(os.listdir("/dev/fd"))
        out = tmp_path / "run"
        with held_to(cpus):
            code = cli.main(["run", "baseline", "--duration", "0.6", "--vcc", "off",
                             "--out", str(out)])
        err = capsys.readouterr().err
        if failing == "child":
            # the child's error cannot cross the fork: the run reports it for the CSV
            assert code == cli.EXIT_IO
            assert str(out / "timeseries.csv") in err and "status 1" in err
        else:
            assert code == cli.EXIT_DIVERGENCE
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert sorted(os.listdir("/dev/fd")) == open_before
        assert list(out.iterdir()) == [] and list(temporary.iterdir()) == []

    def test_fork_warning_of_a_threaded_process_is_silenced(self, monkeypatch):
        # Python 3.12+ warns in the parent when a process with threads forks
        real_fork = os.fork

        def warning_fork():
            pid = real_fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.",
                              DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run_simulation(from_mapping({"solver.duration": "0.06"})).csv_rows is not None
        assert seen == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_report_has_fixed_keys(self, short_run):
        text = short_run.report_path.read_text()
        for key in ("scenario =", "thd_a_percent =", "vuf_percent =",
                    "p_sharing_ratio =", "dg1_vdc_mean =", "curtailment_percent =",
                    "energy_audit_percent =", "flag_count =", "flag_dropped_count ="):
            assert key in text

    def test_flags_carry_timestamps(self, short_run):
        report = short_run.report
        for t, source, name in report.flags:
            assert 0.0 <= t <= 0.6
            assert source in ("dg1", "dg2", "vcc")
            assert name

    def test_echo_reload_reproduces_csv_bytes(self, short_run, tmp_path):
        cfg = from_mapping(dict(SHORT))
        again = run_scenario(cfg, tmp_path / "again")
        assert again.csv_path.read_bytes() == short_run.csv_path.read_bytes()
        # and through the echo file
        from pvisland.config import load_config
        cfg2 = load_config(short_run.echo_path)
        third = run_scenario(cfg2, tmp_path / "third")
        assert third.csv_path.read_bytes() == short_run.csv_path.read_bytes()

    def test_energy_audit_and_kcl_within_bounds(self, short_run):
        assert short_run.report.energy_audit_percent < 0.5
        assert short_run.report.max_kcl_residual < 1e-9

    def test_report_rebuild_marks_run_only_quantities_unavailable(self, short_run, capsys):
        assert cli.main(["report", str(short_run.out_dir)]) == 0
        run_only = ("energy_audit_percent", "max_kcl_residual_amps",
                    "mode_transition_count", "flag_count", "flag_dropped_count")
        listed = ("mode_transition", "flag")

        def entries(name):
            text = (short_run.out_dir / name).read_text()
            return [tuple(line.split(" = ", 1)) for line in text.splitlines()]

        rebuilt = entries("report_rebuilt.txt")
        original = entries("report.txt")
        assert [e for e in rebuilt if e[0] in run_only] == [
            (key, "unavailable") for key in run_only]
        assert not [e for e in rebuilt if e[0] in listed]
        # every windowed key is still the run's, in the run's order
        assert [e for e in rebuilt if e[0] not in run_only] == [
            e for e in original if e[0] not in run_only + listed]

    def test_report_rejects_echo_with_removed_method_key(self, short_run, tmp_path, capsys):
        # run directories echoed while solver.method existed need that line removed
        for name in ("timeseries.csv", "config.echo"):
            (tmp_path / name).write_bytes((short_run.out_dir / name).read_bytes())
        with open(tmp_path / "config.echo", "a", encoding="utf-8") as f:
            f.write("solver.method = trapezoid\n")
        assert cli.main(["report", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "solver.method" in capsys.readouterr().err

    @pytest.mark.parametrize("cut, message", [
        (lambda lines: [line.split(",", 1)[1] for line in lines], "no 't' column"),
        (lambda lines: lines[:1], "fewer than two rows"),
        (lambda lines: lines[:2], "fewer than two rows"),
        (lambda lines: lines[:3000] + [lines[3000][:25]], "line 3001 is not 36 numbers"),
        (lambda lines: lines[:9] + ["-" + lines[9][lines[9].index(","):]] + lines[10:],
         "line 10 is not 36 numbers"),
    ], ids=["no-time-column", "header-only", "one-row", "cut-mid-line", "not-a-number"])
    def test_report_rejects_unusable_csv(self, short_run, tmp_path, capsys, cut, message):
        (tmp_path / "config.echo").write_bytes((short_run.out_dir / "config.echo").read_bytes())
        lines = (short_run.out_dir / "timeseries.csv").read_text().splitlines(keepends=True)
        (tmp_path / "timeseries.csv").write_text("".join(cut(lines)))
        assert cli.main(["report", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and str(tmp_path / "timeseries.csv") in err
        assert "Traceback" not in err


class TestFlagLog:
    @staticmethod
    def _log():
        return FlagLog({"vcc": VCC_FLAGS, "dg1": UNIT_FLAGS, "dg2": UNIT_FLAGS})

    def test_logs_rising_edges_only(self):
        log = self._log()
        log.update(0.1, "dg1", (True, False, False, False))
        log.update(0.2, "dg1", (False, False, False, False))
        log.update(0.3, "dg1", (True, False, False, True))
        assert log.events == [(0.1, "dg1", "droop_voltage_clamp"),
                              (0.3, "dg1", "droop_voltage_clamp"),
                              (0.3, "dg1", "modulation_clamp")]

    def test_sources_keep_their_own_states(self):
        log = self._log()
        log.update(0.1, "dg1", (True, True, False, False))
        log.update(0.2, "dg2", (True, False, False, False))
        log.update(0.3, "vcc", (True, False))
        log.update(0.4, "dg1", (True, False, False, False))
        assert log.events == [(0.1, "dg1", "droop_voltage_clamp"),
                              (0.1, "dg1", "current_reference_clamp"),
                              (0.2, "dg2", "droop_voltage_clamp"),
                              (0.3, "vcc", "output_clamp")]
        assert log.last == {"vcc": (True, False), "dg1": (True, False, False, False),
                            "dg2": (True, False, False, False)}

    def test_held_state_logs_once(self):
        log = self._log()
        for tick in range(100):
            log.update(tick * 1e-3, "vcc", (False, True))
        assert log.events == [(0.0, "vcc", "positive_sequence_floor")]

    def test_cap_counts_the_dropped_edges(self, monkeypatch):
        monkeypatch.setattr(FlagLog, "LIMIT", 3)
        log = self._log()
        for tick in range(10):
            log.update(float(tick), "vcc", (tick % 2 == 0, False))
        assert log.events == [(0.0, "vcc", "output_clamp"), (2.0, "vcc", "output_clamp"),
                              (4.0, "vcc", "output_clamp")]
        assert log.dropped == 2

    def test_report_counts_the_dropped_edges(self, tmp_path, monkeypatch):
        cfg = from_mapping({"solver.duration": "0.6", "vcc.enable_at": "0.1"})
        every = run_simulation(cfg).flags
        assert len(every) > 4
        monkeypatch.setattr(FlagLog, "LIMIT", 4)
        capped = run_scenario(cfg, tmp_path)
        assert capped.result.flags == every[:4]
        lines = capped.report_path.read_text().splitlines()
        assert "flag_count = 4" in lines
        assert lines[-1] == f"flag_dropped_count = {len(every) - 4}"


class TestPlots:
    def test_voltage_window_spans_five_cycles(self, short_run):
        path = short_run.out_dir / "plots" / "voltage_window_post.dat"
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        f1 = short_run.report.fundamental_hz
        dt = float(short_run.result.times[1] - short_run.result.times[0])
        assert len(rows) == int(round(5.0 / f1 / dt))

    def test_spectrum_rows_carry_percent(self, short_run):
        path = short_run.out_dir / "plots" / "spectrum_post.dat"
        rows = [l.split() for l in path.read_text().splitlines() if not l.startswith("#")]
        assert int(rows[0][0]) == 1
        assert float(rows[0][3]) == pytest.approx(100.0, rel=1e-6)
        orders = [int(r[0]) for r in rows]
        assert orders == list(range(1, len(rows) + 1))

    def test_pre_files_only_when_toggled(self, short_run):
        assert not (short_run.out_dir / "plots" / "voltage_window_pre.dat").exists()
        assert not (short_run.out_dir / "plots" / "spectrum_pre.dat").exists()


class TestChannelSelection:
    def test_subset_recorded(self, tmp_path):
        cfg = from_mapping(dict(SHORT, **{
            "outputs.channels": "vpcc_a, vpcc_b, vpcc_c, dg1_p, dg2_p, dg1_q, "
                                "dg2_q, dg1_vdc, dg2_vdc, dg1_omega, pv1_power, pv2_power",
            "solver.duration": "0.5"}))
        art = run_scenario(cfg, tmp_path, with_plots=True)
        header = art.csv_path.read_text().splitlines()[0].split(",")
        assert "dg1_io_a" not in header
        assert "vpcc_a" in header
        # the plots still see the channels the CSV leaves out
        rows = (tmp_path / "plots" / "currents.dat").read_text().splitlines()
        assert rows[0] == "# t " + " ".join(f"dg{i}_io_{p}" for i in (1, 2) for p in "abc")
        assert len(rows) == 1 + 5000

    def test_subset_without_report_channels_still_reports(self, tmp_path, capsys):
        flat = {"solver.duration": "0.4", "vcc.enable_at": "off"}
        narrow = run_scenario(from_mapping(dict(flat, **{"outputs.channels": "vpcc_a"})),
                              tmp_path / "narrow")
        full = run_scenario(from_mapping(flat), tmp_path / "full")
        assert narrow.csv_path.read_text().splitlines()[0] == "t,vpcc_a"
        # the channel list picks CSV columns only; the report sees every channel
        assert narrow.report_path.read_bytes() == full.report_path.read_bytes()
        # a rebuild from the narrowed CSV cannot, and says what is missing
        assert cli.main(["report", str(tmp_path / "narrow")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "dg1_omega" in err and "pv2_power" in err


#: The float keys the property test scales: unit 1's and the shared groups'.  The
#: test sets vcc.enable_at itself.
SCALED_KEYS = sorted(
    key for key, row in KEYS.items()
    if key.split(".")[0] in ("dg1", "vcc", "pll", "load", "system")
    and row.kind in ("float", "optional") and row.default != "off" and key != "vcc.enable_at")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.dictionaries(st.sampled_from(SCALED_KEYS), st.sampled_from([0.01, 0.1, 10.0, 100.0]),
                       min_size=2, max_size=4))
def test_every_input_is_rejected_by_key_runs_or_diverges(factors):
    # 2-4 keys at once, each far off its default: a rule names a key up front,
    # or the run reaches its end with finite channels, or it diverges (exit 3)
    flat = {"solver.duration": "0.3", "vcc.enable_at": "0.15"}
    flat.update({key: repr(factor * float(KEYS[key].default)) for key, factor in factors.items()})
    try:
        cfg = from_mapping(flat)
    except ConfigurationError as err:
        assert err.key in KEYS
        return
    try:
        result = run_simulation(cfg)
    except SimulationDivergence:
        return
    assert len(result.times) == recorded_rows(cfg)
    assert all(np.isfinite(values).all() for values in result.channels.values())


class TestIndexChannels:
    def test_each_distortion_channel_records_its_own_order(self):
        # one injected harmonic at a time: its channel carries the distortion
        for order in HARMONIC_ORDERS:
            run = run_simulation(from_mapping({
                "solver.duration": "0.3", "vcc.enable_at": "off", "outputs.sample_dt": "1e-3",
                "load.unbalanced_r_a": "off", "load.harmonics": f"{order}:4.0:0.0"}))
            final = {name: run.channels[name][-1] for name in VCC_INDEX_CHANNELS}
            own = final.pop(f"vcc_hd{abs(order)}")
            assert own > 0.5
            assert max(final.values()) < 0.25 * own, order


def _moved(key: str):
    """The default scenario with ``key`` moved off its default to a value the rules accept."""
    row = KEYS[key]
    if row.kind == "orders":
        candidates = ["1,3,5"]
    else:  # a float or a kp:ki pair, each number scaled
        candidates = [":".join(repr(factor * float(x)) for x in row.default.split(":"))
                      for factor in (1.1, 0.9)]
    for text in candidates:
        try:
            return from_mapping({key: text})
        except ConfigurationError:
            pass
    raise AssertionError(f"no accepted value off the default of {key}")


def _contents(obj):
    """Everything a built object holds, as nested plain values that compare by value."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _contents(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_contents(value) for value in obj]
    if isinstance(obj, types.FunctionType):  # a generated kernel holds its constants
        return "function", obj.__code__.co_consts
    names = getattr(obj, "__slots__", None) or getattr(obj, "__dict__", None)
    if names is None:
        return obj
    return type(obj).__name__, {name: _contents(getattr(obj, name)) for name in names}


def _unit_parts(cfg, unit: int):
    """What the builders make for one unit: its AC stage, DC side and controller."""
    plant = build_plant(cfg)
    return _contents((plant.network.stages[unit], plant.dc_sides[unit],
                      build_controllers(cfg)[unit]))


#: The keys the compensator reads; the runner reads the other ``vcc.*`` keys.
COMPENSATOR_KEYS = ("vcc.vuf_ref", "vcc.hd_ref", "vcc.pi_neg1",
                    *(f"vcc.pi_h{abs(o)}" for o in HARMONIC_ORDERS),
                    "vcc.output_limit", "vcc.effort_limit")


class TestBuilders:
    # Byte-identical runs of the shipped scenarios check the defaults only;
    # these catch a key wired to the wrong unit, or to nothing.
    @pytest.mark.parametrize("suffix", sorted(UNIT_KEYS))
    @pytest.mark.parametrize("unit", range(len(UNIT_PREFIXES)))
    def test_each_unit_key_reaches_its_own_unit_only(self, unit, suffix):
        default = from_mapping({})
        moved = _moved(f"{UNIT_PREFIXES[unit]}.{suffix}")
        for other in range(len(UNIT_PREFIXES)):
            same = _unit_parts(moved, other) == _unit_parts(default, other)
            assert same == (other != unit), UNIT_PREFIXES[other]

    @pytest.mark.parametrize("key", COMPENSATOR_KEYS)
    def test_each_compensator_key_reaches_the_compensator(self, key):
        assert (_contents(build_compensator(_moved(key)))
                != _contents(build_compensator(from_mapping({}))))

    def test_validate_path_builds_everything(self):
        cfg = from_mapping({})
        build_plant(cfg)
        build_controllers(cfg)
        build_compensator(cfg)

    def test_communication_delay_defers_corrections(self):
        base = {"solver.duration": "0.4", "vcc.enable_at": "0.1"}
        instant = run_simulation(from_mapping(base))
        delayed = run_simulation(from_mapping(dict(base, **{"vcc.comm_delay": "0.05"})))
        # corrections reach the units only after the delay has elapsed
        dt = float(instant.times[1] - instant.times[0])
        i_before = int(0.13 / dt)
        assert abs(instant.channels["vc2_alpha"][i_before]) > 0.0
        assert delayed.channels["vc2_alpha"][i_before] == 0.0
        i_after = int(0.3 / dt)
        assert abs(delayed.channels["vc2_alpha"][i_after]) > 0.0

    def test_clamp_waits_for_the_delayed_corrections(self):
        # the output clamp is flagged when a clamped correction reaches the units
        run = run_simulation(from_mapping({
            "solver.duration": "0.2", "vcc.enable_at": "0.1", "vcc.comm_delay": "0.02",
            "vcc.output_limit": "0.5"}))
        arrival = run.times[np.flatnonzero(run.channels["vc1_alpha"])[0]]
        assert arrival == pytest.approx(0.12)
        assert [t for t, source, _ in run.flags if source == "vcc"] == [arrival]

    def test_tick_computes_in_python_floats(self):
        # NumPy scalars leaking from the network state cost about three times
        # as much per operation as Python floats in every controller
        cfg = from_mapping({})
        plant = build_plant(cfg)
        controllers = build_controllers(cfg)
        comp = build_compensator(cfg)
        efforts = {c: (1.5, -0.5) for c in comp.components}  # a held effort snapshot
        dt = cfg.control_period
        theta = 0.0
        for tick in range(200):
            _, rows = plant.measurements(theta)
            corrections = comp.correction_from(efforts, theta)
            steps = [ctl.step(row, v_c, tick * dt)
                     for ctl, row, v_c in zip(controllers, rows, corrections)]
            plant.step([duty for duty, _ in steps], [m for _, m in steps], theta)
            theta += cfg.omega * dt

        def leaves(obj):
            if isinstance(obj, (list, tuple)):
                return [leaf for item in obj for leaf in leaves(item)]
            return [obj]

        # the bus pair and every unit's row, the duty and modulation triple of
        # every unit, and every correction
        values = leaves(plant.measurements(theta)) + leaves(steps) + leaves(corrections)
        assert len(leaves(steps)) == 4 * len(controllers)
        for ctl, side in zip(controllers, plant.dc_sides):
            values += [ctl.p_avg, ctl.omega_ref, side.v_dc, side.v_pv, side.i_boost,
                       side.i_pv]
            values += leaves([*ctl.extractor._v, *ctl.extractor._q])
        assert len(values) > 50
        assert [type(v) for v in values if type(v) is not float] == []

    def test_mode_channel_reflects_boot_mode(self):
        cfg = from_mapping(dict(SHORT, **{"solver.duration": "0.2"}))
        result = run_simulation(cfg)
        assert result.channels["dg1_mode"][0] == 1.0  # regulation at boot


EVENT_FREE = {"vcc.enable_at": "off", "outputs.sample_dt": "50e-6"}


@pytest.fixture(scope="module")
def event_free_run():
    # every tick is a row; no scheduled change in 1.005 s
    return run_simulation(from_mapping(dict(EVENT_FREE, **{"solver.duration": "1.005"})))


class TestSchedule:
    @pytest.mark.parametrize("change, first_row", [
        ({"load.step_time": "0.3", "load.step_scale": "0.6"}, 6000),
        ({"events.irradiance": "0.6:1:0.5"}, 12000),
        ({"vcc.enable_at": "1.0"}, 20000),
    ], ids=["load_step", "irradiance_event", "vcc_enable"])
    def test_change_applies_on_its_tick(self, event_free_run, change, first_row):
        # a change at time T acts on tick T / control.period, before its measurements
        duration = repr(round((first_row + 100) * 50e-6, 6))
        run = run_simulation(from_mapping(dict(EVENT_FREE, **change,
                                               **{"solver.duration": duration})))
        rows = len(run.times)
        assert np.array_equal(run.times, event_free_run.times[:rows])
        differing = [np.flatnonzero(run.channels[c] != event_free_run.channels[c][:rows])
                     for c in run.channels]
        assert min(d[0] for d in differing if d.size) == first_row

    @pytest.mark.parametrize("clamp_tick", [1234, 1999], ids=["mid-run", "final-tick"])
    def test_modulation_clamp_is_stamped_with_its_tick(self, monkeypatch, clamp_tick):
        # a bridge clamp carries the time of the tick whose commands it cut,
        # the final tick included
        step = Plant.step

        def clamping(plant, duties, modulations, theta):
            step(plant, duties, modulations, theta)
            plant.saturated[0] = plant.steps == clamp_tick + 1

        monkeypatch.setattr(Plant, "step", clamping)
        cfg = from_mapping({"solver.duration": "0.1", "vcc.enable_at": "off"})
        assert ticks(cfg.duration, cfg.control_period) == 2000
        assert ticks(cfg.control_period, cfg.dt) == 1
        run = run_simulation(cfg)
        assert [(t, source) for t, source, name in run.flags if name == "modulation_clamp"] == [
            (clamp_tick * cfg.control_period, "dg1")]


class TestCli:
    def test_run_and_report_round_trip(self, tmp_path, capsys):
        # a short variant of each preset, with its events moved into the run
        variants = {
            "baseline": {"solver.duration": "1.0", "vcc.enable_at": "0.55"},
            "loadstep": {"solver.duration": "0.6", "load.step_time": "0.3",
                         "events.irradiance": "0.2:1:0.90, 0.2:2:0.90"},
            "sharing": {"solver.duration": "0.6", "vcc.enable_at": "0.1"},
        }
        run_only = ("energy_audit_percent", "max_kcl_residual_amps",
                    "mode_transition_count", "flag_count", "flag_dropped_count")
        units = range(1, 3)
        rebuilt_keys = (["scenario", "duration_s", "dt_s", "window_start_s", "window_end_s",
                         "fundamental_hz", "thd_a_percent", "thd_b_percent", "thd_c_percent",
                         "vuf_percent"]
                        + [f"dg{i}_{q}" for i in units for q in ("p_watts", "q_vars")]
                        + ["p_sharing_ratio", "q_sharing_ratio"]
                        + [f"dg{i}_vdc_{s}" for i in units for s in ("mean", "min", "max")]
                        + ["curtailment_percent", "window_settled"])
        pre_keys = ["pre_window_start_s", "pre_window_end_s", "pre_thd_a_percent",
                    "pre_thd_b_percent", "pre_thd_c_percent", "pre_vuf_percent"]
        for preset, overrides in variants.items():
            scenario = tmp_path / f"{preset}.cfg"
            scenario.write_text(echo(cli._load_scenario(preset, overrides)), encoding="utf-8")
            out = tmp_path / preset
            assert cli.main(["run", str(scenario), "--out", str(out)]) == 0
            assert cli.main(["report", str(out)]) == 0

            def entries(name):
                lines = (out / name).read_text().splitlines()
                return dict(line.split(" = ", 1) for line in lines
                            if not line.startswith(("flag = ", "mode_transition = ")))

            rebuilt = entries("report_rebuilt.txt")
            original = entries("report.txt")
            assert {key: rebuilt.pop(key) for key in run_only} == dict.fromkeys(
                run_only, "unavailable")
            keys = rebuilt_keys + (pre_keys if preset == "baseline" else [])
            assert sorted(rebuilt) == sorted(keys), preset
            assert rebuilt == {key: original[key] for key in keys}, preset

    def test_validate_ok(self, capsys):
        assert cli.main(["validate", "sharing"]) == 0

    def test_validate_builds_nothing(self, monkeypatch, capsys):
        def never(cfg):
            raise AssertionError("validate built a model")

        for name in ("build_plant", "build_controllers", "build_compensator", "run_simulation"):
            monkeypatch.setattr(runner, name, never)
        assert cli.main(["validate", "baseline"]) == cli.EXIT_OK

    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_validate_loads_neither_numpy_nor_the_models(self, preset):
        # in a fresh interpreter, which has loaded nothing the test session did
        lazy = ("numpy", "pvisland.control", "pvisland.plant", "pvisland.runner",
                "pvisland.analysis", "pvisland.vcc", "pvisland.signals", "dataclasses", "inspect")
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); from pvisland import cli; "
                 "code = cli.main(['validate', sys.argv[2]]); "
                 "print(code, *sorted(set(sys.argv[3:]) & set(sys.modules)))")
        src = str(Path(cli.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", probe, src, preset, *lazy],
                             capture_output=True, text=True, check=True).stdout
        assert out.splitlines()[-1] == "0"

    def test_validate_of_a_file_loads_only_the_parser(self):
        # under -S no site hook preloads importlib.resources, which only a preset name
        # needs, or dataclasses, which only the models' run-time objects need
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); from pvisland import cli; "
                 "code = cli.main(['validate', sys.argv[2]]); "
                 "print(code, 'importlib.resources' in sys.modules, 'dataclasses' in sys.modules, "
                 "*sorted(m for m in sys.modules if m.partition('.')[0] == 'pvisland'))")
        src = Path(cli.__file__).parents[1]
        scenario = src / "pvisland" / "scenarios" / "baseline.cfg"
        out = subprocess.run([sys.executable, "-S", "-c", probe, str(src), str(scenario)],
                             capture_output=True, text=True, check=True).stdout
        assert out.splitlines()[-1].split() == [
            "0", "False", "False", "pvisland", "pvisland.cli", "pvisland.config",
            "pvisland.errors", "pvisland.params"]

    def test_validate_unknown_scenario(self, capsys):
        assert cli.main(["validate", "does_not_exist.cfg"]) == cli.EXIT_CONFIG

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("solver.method = trapezoid\n")
        assert cli.main(["run", str(bad), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert "solver.method" in capsys.readouterr().err

    def test_vcc_override_forms(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(["run", "baseline", "--out", str(out),
                       "--duration", "0.5", "--vcc", "at=0.1"])
        assert rc == 0

    def test_vcc_override_off_the_tick_grid_rejected(self, tmp_path, capsys):
        rc = cli.main(["run", "baseline", "--out", str(tmp_path / "o"),
                       "--duration", "0.6", "--vcc", "at=0.55001"])
        assert rc == cli.EXIT_CONFIG
        assert "vcc.enable_at" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("form", ["at=", "at= "])
    def test_vcc_at_without_a_time_rejected(self, monkeypatch, tmp_path, capsys, form):
        # an empty time would reach vcc.enable_at, which reads it as off
        def never(cfg, *args, **kwargs):
            raise AssertionError("a schedule without a time was run")

        monkeypatch.setattr(runner, "run_scenario", never)
        rc = cli.main(["run", "baseline", "--out", str(tmp_path / "o"), "--vcc", form])
        assert rc == cli.EXIT_CONFIG
        assert "--vcc expects on, off or at=<seconds>" in capsys.readouterr().err

    def test_divergence_exit_code(self, monkeypatch, tmp_path, capsys):
        def boom(cfg):
            raise SimulationDivergence("test", t_last_good=0.1)

        monkeypatch.setattr(runner, "run_simulation", boom)
        rc = cli.main(["run", "baseline", "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DIVERGENCE

    # Settings that once passed validate and failed the run: the first three
    # drove the boost duty out of its range, which exited 2 naming no key, and
    # dc.c_pv then overflowed the PV curve with a traceback; the link
    # reference lay past the plant's DC envelope and diverged on the first step.
    @pytest.mark.parametrize("key, value", [
        ("dg1.dc.c_dc", "1.5e-05"), ("dg1.dc.c_pv", "2e-06"), ("dg1.dc.l_boost", "1.5e-05"),
        ("dg1.vr.v_dc_ref", "6000")])
    def test_accepted_input_runs_or_fails_by_its_exit_code(self, tmp_path, capsys, key, value):
        # an exception escaping main would exit 1 with a traceback
        scenario = tmp_path / "s.cfg"
        scenario.write_text(f"solver.duration = 0.4\nvcc.enable_at = 0.2\n{key} = {value}\n")
        rc = cli.main(["run", str(scenario), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DIVERGENCE), err
        if rc == cli.EXIT_CONFIG:
            assert key in err

    def test_droop_frequency_leaving_its_range_is_a_divergence(self, monkeypatch, tmp_path,
                                                               capsys):
        # the droop frequency falls through zero mid-run: the run diverged,
        # no setting is at fault
        rebuild = signals.SequenceExtractor._rebuild
        calls = iter(range(10**9))

        def falling(self, x, y, omega, dt):
            if next(calls) >= 2000:  # both units' extractors, 1000 ticks
                omega = -18.8
            return rebuild(self, x, y, omega, dt)

        monkeypatch.setattr(signals.SequenceExtractor, "_rebuild", falling)
        scenario = tmp_path / "s.cfg"
        scenario.write_text("solver.duration = 0.4\n")
        rc = cli.main(["run", str(scenario), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DIVERGENCE
        assert "dg1 droop frequency at t=0.050000 s" in capsys.readouterr().err

    def test_run_keeps_its_data_when_the_report_fails(self, monkeypatch, tmp_path, capsys):
        def no_window(*args, **kwargs):
            raise AnalysisError("vpcc_a: no steady window")

        monkeypatch.setattr(analysis, "steady_window", no_window)
        scenario = tmp_path / "s.cfg"
        scenario.write_text("solver.duration = 0.4\n")
        out = tmp_path / "o"
        assert cli.main(["run", str(scenario), "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no steady window" in err and f"config.echo are in {out}" in err
        assert sorted(p.name for p in out.iterdir()) == ["config.echo", "timeseries.csv"]
        cfg = cli._load_scenario(str(out / "config.echo"))
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert len(lines) == 1 + recorded_rows(cfg)

    def test_duration_too_short_for_report_rejected_up_front(self, monkeypatch, tmp_path,
                                                              capsys):
        def never(cfg):
            raise AssertionError("simulated a run the report cannot read")

        monkeypatch.setattr(runner, "run_simulation", never)
        short = tmp_path / "short.cfg"
        short.write_text("solver.duration = 0.05\n")
        assert cli.main(["validate", str(short)]) == cli.EXIT_CONFIG
        assert cli.main(["run", str(short), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.count("solver.duration") == 2
        assert not (tmp_path / "o").exists()
        smoke = tmp_path / "smoke.cfg"
        smoke.write_text("solver.duration = 0.4\n")
        assert cli.main(["validate", str(smoke)]) == cli.EXIT_OK

    @pytest.mark.parametrize("sample_dt", ["0.05", "0.004", "1e-3"])
    def test_sample_step_too_coarse_for_report_rejected_up_front(self, monkeypatch, tmp_path,
                                                                 capsys, sample_dt):
        # 0.05 divided by zero in the steady-state search, 0.004 found no
        # steady window, 1e-3 dropped the 11th harmonic from the distortion
        def never(cfg):
            raise AssertionError("simulated a run the report cannot read")

        monkeypatch.setattr(runner, "run_simulation", never)
        coarse = tmp_path / "coarse.cfg"
        coarse.write_text(f"solver.duration = 1.0\noutputs.sample_dt = {sample_dt}\n")
        assert cli.main(["validate", str(coarse)]) == cli.EXIT_CONFIG
        assert cli.main(["run", str(coarse), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.count("outputs.sample_dt") == 2
        assert not (tmp_path / "o").exists()

    def test_io_error_exit_code(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path / "missing")]) == cli.EXIT_IO

    def test_run_into_a_regular_file_exits_with_io_error(self, monkeypatch, tmp_path, capsys):
        def never(cfg):
            raise AssertionError("simulated a run whose artifacts cannot be written")

        monkeypatch.setattr(runner, "run_simulation", never)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert cli.main(["run", "baseline", "--out", str(taken)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and str(taken) in err
        assert "Traceback" not in err
        assert taken.read_text() == "not a directory\n"

    def test_report_rebuild_prices_arrays_after_events(self, tmp_path, capsys):
        # loadstep shape: irradiance dip, then a load drop that curtails the arrays
        flat = dict(cli._load_scenario("loadstep").raw, **{
            "solver.duration": "1.0", "load.step_time": "0.6",
            "events.irradiance": "0.3:1:0.90, 0.3:2:0.90"})
        scenario = tmp_path / "loadstep_short.cfg"
        scenario.write_text(echo(from_mapping(flat)))
        out = tmp_path / "run"
        assert cli.main(["run", str(scenario), "--out", str(out)]) == 0
        assert cli.main(["report", str(out)]) == 0

        def curtailment(name):
            lines = (out / name).read_text().splitlines()
            return [l for l in lines if l.startswith("curtailment_percent =")]

        assert curtailment("report.txt")
        assert curtailment("report_rebuilt.txt") == curtailment("report.txt")


class TestPvStartup:
    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_pv_voltage_stays_near_open_circuit(self, preset):
        # the string's diode holds the PV capacitor near V_oc while the link charges
        cfg = from_mapping({**cli._load_scenario(preset).raw, "solver.duration": "0.3"})
        run = run_simulation(cfg)
        for i, dg in enumerate(cfg.dgs, start=1):
            assert run.channels[f"dg{i}_vpv"].max() <= dg.pv.v_oc + 5.0, preset


class TestUnitRoster:
    def test_three_unit_roster_runs_end_to_end(self, tmp_path):
        cfg = from_mapping({"solver.duration": "0.8", "vcc.enable_at": "0.4"})
        cfg = cfg._replace(dgs=cfg.dgs + [copy.deepcopy(cfg.dgs[0])])
        art = run_scenario(cfg, tmp_path)
        header = art.csv_path.read_text().splitlines()[0].split(",")
        assert header == ["t"] + channel_names(3)
        assert header.index("dg3_p") == header.index("dg2_io_c") + 1
        assert header.index("pv3_power") == header.index("pv2_power") + 1
        assert header[-2:] == ["vc3_alpha", "vc3_beta"]
        report = art.report_path.read_text()
        assert "dg3_p_watts =" in report
        assert "dg3_vdc_mean =" in report
        p1, _, p3 = art.report.p_watts
        assert p3 == pytest.approx(p1, rel=0.005)
        # the broadcast reaches unit 3, scaled like the identical unit 1
        vc = art.result.channels
        assert np.any(vc["vc3_alpha"] != 0.0)
        assert np.array_equal(vc["vc3_alpha"], vc["vc1_alpha"])


class TestToggledPlots:
    def test_pre_post_pair_when_compensator_toggles(self, tmp_path):
        cfg = from_mapping({"solver.duration": "1.2", "vcc.enable_at": "0.55"})
        art = run_scenario(cfg, tmp_path, with_plots=True)
        for name in ("voltage_window_pre.dat", "spectrum_pre.dat",
                     "voltage_window_post.dat", "spectrum_post.dat"):
            assert (tmp_path / "plots" / name).exists()
        assert art.report.pre_window is not None


class TestWindowSettled:
    @pytest.mark.parametrize("flat, settled", [
        # the 2 s granted after the switch-on at 0.55 s outlast the run, so
        # the report falls back to its last ten cycles
        ({"solver.duration": "1.0", "vcc.enable_at": "0.55"}, False),
        ({"solver.duration": "2.4", "vcc.enable_at": "off"}, True),
    ])
    def test_report_says_whether_its_window_settled(self, flat, settled):
        cfg = from_mapping(flat)
        report = runner.assemble_report(run_simulation(cfg))
        assert report.window_settled is settled
        assert f"window_settled = {str(settled).lower()}" in report.lines()
        if settled:
            assert report.window[0] >= runner.last_event_time(cfg) + runner.SETTLE_AFTER_EVENT
        else:
            span = report.window[1] - report.window[0]
            assert span == pytest.approx(10.0 / report.fundamental_hz)
