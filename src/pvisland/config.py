"""Scenario configuration: the key table, parsing, cross-key rules and echoing.

Scenario files are plain text, one ``dotted.key = value`` pair per line,
``#`` comments allowed.  Every key has one row in :data:`KEYS` (kind,
default, allowed range); an empty file is the calibrated baseline.  The
per-unit rows ``dgN.*`` come from one template and a roster of overrides.
Each key group parses into the record its model keeps: the shared groups
(:data:`GROUPS`) and each unit's (:data:`UNIT_GROUPS`), by one loop.
:func:`from_mapping` parses every key by its row, then runs :data:`RULES`;
every error names a key, and an accepted configuration builds and runs.
:func:`check_report_length` adds what a run's report needs.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigurationError
from .params import (DEFAULT_SEQUENCE_ORDERS, HARMONIC_ORDERS, HEUN_REAL_LIMIT,
                     MAX_HARMONIC_ORDER, MIN_STEADY_CYCLES, POWER_FILTER_HZ, V_DC_LIMIT,
                     DcLinkParams, DroopParams, FeederParams, FilterParams, LoadParams,
                     ModeParams, MpptParams, PllParams, PrGains, PvParams, VccParams, ViParams,
                     VrParams, beyond_nyquist, max_filter_step, ticks, too_coarse_for_low_pass)

V_RMS_TO_AMP = math.sqrt(2.0)


class Range(NamedTuple):
    """An interval of allowed values; an infinite end is always open."""

    lo: float
    hi: float = math.inf
    lo_closed: bool = False
    hi_closed: bool = False

    def __contains__(self, x: float) -> bool:
        # NaN fails every comparison, so it lies in no range
        return ((self.lo <= x if self.lo_closed else self.lo < x)
                and (x <= self.hi if self.hi_closed else x < self.hi))

    def __str__(self) -> str:
        return (f"{'[' if self.lo_closed else '('}{self.lo:g}, "
                f"{self.hi:g}{']' if self.hi_closed else ')'}")


POSITIVE = Range(0.0)
NON_NEGATIVE = Range(0.0, lo_closed=True)
OPEN_UNIT = Range(0.0, 1.0)
SUNS = Range(0.0, 2.0, lo_closed=True, hi_closed=True)


class Key(NamedTuple):
    """One row of the key table: default text, allowed range, parser kind.

    ``range`` bounds each number of a float, ``optional`` (float or ``off``)
    or ``pair`` (``kp:ki``) value, each ``harmonics`` amplitude and each
    ``events`` irradiance.
    """

    default: str
    range: Range | None = None
    kind: str = "float"


#: One unit's rows (``dgN.<suffix>``) with DG1's defaults.
UNIT_KEYS: dict[str, Key] = {
    "pv.rated_w": Key("3000.0", POSITIVE),
    "pv.v_oc": Key("450.0", POSITIVE),
    "pv.i_sc": Key("8.8", POSITIVE),
    "pv.v_mp": Key("380.0", POSITIVE),
    "pv.i_mp": Key("7.894736842105263", POSITIVE),
    "pv.irradiance": Key("1.0", SUNS),
    "dc.c_pv": Key("200e-6", POSITIVE),
    "dc.l_boost": Key("1.5e-3", POSITIVE),
    "dc.c_dc": Key("2350e-6", POSITIVE),
    "vr.kp": Key("0.002", POSITIVE),
    "vr.ki": Key("0.05", NON_NEGATIVE),
    "vr.v_dc_ref": Key("600.0", NON_NEGATIVE),
    "mppt.period": Key("1e-3", POSITIVE),
    "mppt.duty_step": Key("0.002", OPEN_UNIT),
    "mppt.deadband": Key("0.005", NON_NEGATIVE),
    "mode.enter_vr_margin": Key("5.0", NON_NEGATIVE),
    "mode.exit_vr_margin": Key("10.0", NON_NEGATIVE),
    "mode.exit_hold": Key("0.1", NON_NEGATIVE),
    "droop.m_p": Key("12e-4", POSITIVE),
    "droop.n_p": Key("1e-3", POSITIVE),
    "vi.r_pos": Key("0.3", NON_NEGATIVE),
    "vi.l_pos": Key("0.5e-3", NON_NEGATIVE),
    "vi.r_neg": Key("2.0", NON_NEGATIVE),
    "vi.r_h3": Key("3.0", NON_NEGATIVE),
    "vi.r_h5": Key("1.0", NON_NEGATIVE),
    "vi.r_h7": Key("1.0", NON_NEGATIVE),
    "vi.r_h11": Key("0.5", NON_NEGATIVE),
    "vi.bandwidth_gain": Key("1.0", POSITIVE),
    "prv.kp": Key("0.05", POSITIVE),
    "prv.k1": Key("50.0", NON_NEGATIVE),
    "prv.kh": Key("20.0", NON_NEGATIVE),
    "prv.wc": Key("2.0", POSITIVE),
    "prv.orders": Key("1,3,5,7,11", kind="orders"),
    "pri.kp": Key("7.0", POSITIVE),
    "pri.k1": Key("600.0", NON_NEGATIVE),
    "pri.kh": Key("200.0", NON_NEGATIVE),
    "pri.wc": Key("2.0", POSITIVE),
    "pri.orders": Key("1,3,5,7,11", kind="orders"),
    "filter.l": Key("1.8e-3", POSITIVE),
    "filter.c": Key("25e-6", POSITIVE),
    "feeder.r": Key("0.8", POSITIVE),
    "feeder.l": Key("2.4e-3", POSITIVE),
    "current_limit_factor": Key("1.5", POSITIVE),
}

#: The unit roster: one entry per unit, holding the defaults where that unit
#: departs from :data:`UNIT_KEYS`.  DG2 is rated for twice the power of
#: DG1, so it carries half the droop and virtual-impedance coefficients and
#: a filter and feeder sized for twice the current.
UNIT_OVERRIDES: tuple[dict[str, str], ...] = (
    {},
    {
        "pv.rated_w": "6000.0",
        "pv.i_sc": "17.6",
        "pv.i_mp": "15.789473684210526",
        "droop.m_p": "6e-4",
        "droop.n_p": "0.5e-3",
        "vi.r_pos": "0.15",
        "vi.l_pos": "0.25e-3",
        "vi.r_neg": "1.0",
        "vi.r_h3": "1.5",
        "vi.r_h5": "0.5",
        "vi.r_h7": "0.5",
        "vi.r_h11": "0.25",
        "filter.l": "0.9e-3",
        "filter.c": "50e-6",
        "feeder.r": "0.4",
        "feeder.l": "1.2e-3",
    },
)

UNIT_PREFIXES = tuple(f"dg{n}" for n in range(1, len(UNIT_OVERRIDES) + 1))

#: The key table: the shared rows below, then every unit's rows from the
#: roster.  The load block and the feeders are the calibrated fixture
#: reproducing the target pre-compensation distortion figures.
KEYS: dict[str, Key] = {
    "scenario.name": Key("baseline", kind="name"),

    "solver.dt": Key("50e-6", POSITIVE),
    "control.period": Key("50e-6", POSITIVE),
    "solver.duration": Key("8.0", POSITIVE),
    "solver.startup_ramp": Key("0.25", NON_NEGATIVE),

    "system.omega": Key("370.0", POSITIVE),
    "system.v_rms": Key("120.0", POSITIVE),

    "pll.kp": Key("92.0", POSITIVE),
    "pll.ki": Key("4230.0", NON_NEGATIVE),
    "pll.band": Key("0.5", OPEN_UNIT),

    "load.balanced_r": Key("10.0", POSITIVE),
    "load.balanced_l": Key("0.060", POSITIVE, "optional"),
    "load.unbalanced_r_a": Key("14.0", POSITIVE, "optional"),
    "load.harmonics": Key("-1:7.4:0.0, 3:3.1:0.0, -5:4.6:0.0, 7:2.75:0.0, -11:1.3:0.0",
                          NON_NEGATIVE, "harmonics"),
    "load.step_time": Key("off", NON_NEGATIVE, "optional"),
    "load.step_scale": Key("1.0", POSITIVE),

    "vcc.enable_at": Key("2.0", NON_NEGATIVE, "optional"),
    "vcc.period": Key("1e-3", POSITIVE),
    "vcc.vuf_ref": Key("0.2", NON_NEGATIVE),
    "vcc.hd_ref": Key("0.2", NON_NEGATIVE),
    "vcc.extraction_cutoff_hz": Key("5.0", POSITIVE),
    "vcc.extraction_damping": Key("2.5", POSITIVE),
    "vcc.pi_neg1": Key("0.5:20.0", NON_NEGATIVE, "pair"),
    "vcc.pi_h3": Key("0.5:15.0", NON_NEGATIVE, "pair"),
    "vcc.pi_h5": Key("5.0:30.0", NON_NEGATIVE, "pair"),
    "vcc.pi_h7": Key("5.0:25.0", NON_NEGATIVE, "pair"),
    "vcc.pi_h11": Key("0.5:5.0", NON_NEGATIVE, "pair"),
    "vcc.output_limit": Key("80.0", NON_NEGATIVE),
    "vcc.effort_limit": Key("250.0", NON_NEGATIVE),
    "vcc.comm_delay": Key("0.0", NON_NEGATIVE),

    "events.irradiance": Key("", SUNS, "events"),

    "outputs.sample_dt": Key("1e-4", POSITIVE),
    "outputs.channels": Key("all", kind="channels"),
}
KEYS.update(
    (f"{prefix}.{suffix}", row._replace(default=overrides.get(suffix, row.default)))
    for prefix, overrides in zip(UNIT_PREFIXES, UNIT_OVERRIDES)
    for suffix, row in UNIT_KEYS.items())

#: Every known key with its default value (as text).
DEFAULTS: dict[str, str] = {key: row.default for key, row in KEYS.items()}


#: Each shared key group of :data:`KEYS` and the record it parses into: the
#: record's fields are the group's key suffixes.
GROUPS = {"pll": PllParams, "load": LoadParams, "vcc": VccParams}

#: Each key group of :data:`UNIT_KEYS` and the record it parses into.
UNIT_GROUPS = {"pv": PvParams, "dc": DcLinkParams, "vr": VrParams, "mppt": MpptParams,
               "mode": ModeParams, "droop": DroopParams, "vi": ViParams, "prv": PrGains,
               "pri": PrGains, "filter": FilterParams, "feeder": FeederParams}


class DgConfig(NamedTuple):
    """One unit's ``dgN.*`` keys: a record per key group, named after it."""

    pv: PvParams
    dc: DcLinkParams
    vr: VrParams
    mppt: MpptParams
    mode: ModeParams
    droop: DroopParams
    vi: ViParams
    prv: PrGains
    pri: PrGains
    filter: FilterParams
    feeder: FeederParams
    current_limit_factor: float

    # the two settings the acceptance criteria read
    m_p = property(lambda self: self.droop.m_p)
    v_dc_ref = property(lambda self: self.vr.v_dc_ref)


class ScenarioConfig(NamedTuple):
    """A parsed scenario: the shared records, the units and the run-level settings."""

    name: str
    dt: float
    control_period: float
    duration: float
    startup_ramp: float
    omega: float
    v_amp: float
    pll: PllParams
    load: LoadParams
    vcc: VccParams
    dgs: list[DgConfig]
    irradiance_events: list[tuple[float, int, float]]
    sample_dt: float
    channels: list[str] | None      # None means every known channel
    raw: dict[str, str]

    load_step_time = property(lambda self: self.load.step_time)  # read by the acceptance suite


# ---------------------------------------------------------------------------
# Parsers, one per kind: (text, key, range) -> value
# ---------------------------------------------------------------------------

def _number(text: str, key: str, rng: Range) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigurationError(f"not a number: {text!r}", key=key) from exc
    if value not in rng:
        raise ConfigurationError(f"{value} lies outside {rng}", key=key)
    return value


def _optional(text: str, key: str, rng: Range) -> float | None:
    if text.strip().lower() in ("off", "none", ""):
        return None
    return _number(text, key, rng)


def _pair(text: str, key: str, rng: Range) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigurationError(f"expected 'kp:ki', got {text!r}", key=key)
    return _number(parts[0], key, rng), _number(parts[1], key, rng)


def _integer(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigurationError(f"not an integer: {text!r}", key=key) from exc


def _orders(text: str, key: str, rng: None) -> tuple[int, ...]:
    orders = tuple(_integer(p, key) for p in text.split(","))
    if 1 not in orders or min(orders) < 1 or len(set(orders)) < len(orders):
        raise ConfigurationError(
            "resonator orders must be distinct positive integers including 1", key=key)
    return orders


def _items(text: str) -> list[str]:
    return [item.strip() for item in text.split(",")] if text.strip() else []


def _harmonics(text: str, key: str, rng: Range) -> list[tuple[int, float, float]]:
    out = []
    for item in _items(text):
        parts = item.split(":")
        if len(parts) not in (2, 3):
            raise ConfigurationError(f"expected 'order:amplitude[:phase]', got {item!r}",
                                     key=key)
        order = _integer(parts[0], key)
        if order == 0:
            raise ConfigurationError("injection order must be nonzero", key=key)
        phase = _number(parts[2], key, Range(-math.inf)) if len(parts) == 3 else 0.0
        out.append((order, _number(parts[1], key, rng), phase))
    return out


def _events(text: str, key: str, rng: Range) -> list[tuple[float, int, float]]:
    out = []
    for item in _items(text):
        parts = item.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"expected 'time:dg:value', got {item!r}", key=key)
        dg = _integer(parts[1], key)
        if not 1 <= dg <= len(UNIT_PREFIXES):
            raise ConfigurationError(f"dg index must lie in 1..{len(UNIT_PREFIXES)}", key=key)
        out.append((_number(parts[0], key, NON_NEGATIVE), dg - 1, _number(parts[2], key, rng)))
    return out


def _channels(text: str, key: str, rng: None) -> list[str] | None:
    if text.strip().lower() == "all":
        return None
    names = [item.strip() for item in text.split(",")]
    unknown = [name for name in names if name not in KNOWN_CHANNELS]
    if unknown:
        raise ConfigurationError(f"unknown channel {unknown[0]!r}", key=key)
    return names


_PARSERS = {
    "float": _number, "optional": _optional, "pair": _pair, "orders": _orders,
    "harmonics": _harmonics, "events": _events, "channels": _channels,
    "name": lambda text, key, rng: text.strip(),
}


#: Per-unit channels, ``<prefix><unit>_<suffix>``: one block of each prefix per unit.
UNIT_CHANNELS = (
    ("dg", ("p", "q", "vdc", "vpv", "duty", "mode", "omega", "io_a", "io_b", "io_c")),
    ("pv", ("power",)),
    ("vc", ("alpha", "beta")),
)


#: The compensator's indices: the unbalance factor, then one distortion per harmonic order.
VCC_INDEX_CHANNELS = ("vcc_vuf", *(f"vcc_hd{abs(o)}" for o in HARMONIC_ORDERS))


def channel_names(units: int) -> list[str]:
    """Every channel of a roster of ``units`` units, in CSV column order."""
    dg, pv, vc = ([f"{prefix}{i}_{suffix}" for i in range(1, units + 1)
                   for suffix in suffixes] for prefix, suffixes in UNIT_CHANNELS)
    return (["vpcc_a", "vpcc_b", "vpcc_c"] + dg + pv
            + ["vcc_active", *VCC_INDEX_CHANNELS] + vc)


KNOWN_CHANNELS = channel_names(len(UNIT_PREFIXES))


# ---------------------------------------------------------------------------
# Cross-key rules: each raises a ConfigurationError naming a key.  Where a
# model keeps a check of its own, the rule calls the same model helper.
# ---------------------------------------------------------------------------

def _require(holds: bool, key: str, message: str):
    if not holds:
        raise ConfigurationError(message, key=key)


def recorded_rows(cfg: ScenarioConfig) -> int:
    """Rows of a run's table: one every ``outputs.sample_dt``, from the first tick."""
    sample_every = ticks(cfg.sample_dt, cfg.control_period)
    return (ticks(cfg.duration, cfg.control_period) + sample_every - 1) // sample_every


def _check_divides(cfg: ScenarioConfig):
    """Every period is a whole number (>= 1) of the step it counts in, every
    scheduled time and span a whole number (>= 0) of control ticks; a run
    records two rows, and its table and the plant's per-tick substep offsets
    fit in physical memory."""
    cp = cfg.control_period
    units = list(zip(UNIT_PREFIXES, cfg.dgs))
    periods = [(f"{prefix}.mppt.period", dg.mppt.period) for prefix, dg in units]
    periods += [("vcc.period", cfg.vcc.period), ("outputs.sample_dt", cfg.sample_dt)]
    times = [("load.step_time", cfg.load.step_time), ("vcc.enable_at", cfg.vcc.enable_at),
             ("vcc.comm_delay", cfg.vcc.comm_delay)]
    times += [(f"{prefix}.mode.exit_hold", dg.mode.exit_hold) for prefix, dg in units]
    times += [("events.irradiance", t) for t, _, _ in cfg.irradiance_events]
    spans = [("control.period", cp, "solver.dt", cfg.dt, 1)]
    spans += [(key, period, "control.period", cp, 1) for key, period in periods]
    spans += [(key, t, "control.period", cp, 0) for key, t in times if t is not None]
    for key, span, step_key, step, least in spans:
        ratio = span / step
        _require(math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-6
                 and round(ratio) >= least, key,
                 f"{span} is not an integer multiple of {step_key} = {step}")
    events = [(ticks(t, cp), d) for t, d, _ in cfg.irradiance_events]
    _require(len(set(events)) == len(events), "events.irradiance",
             "two events for one unit on one tick")
    _require(math.isfinite(cfg.duration / cp), "solver.duration",
             f"{cfg.duration} s has no tick count")
    rows = recorded_rows(cfg)
    _require(rows > 1, "outputs.sample_dt", f"records fewer than two rows in {cfg.duration} s")
    table_gib = 8 * rows * (1 + len(channel_names(len(cfg.dgs)))) / 2**30
    memory_gib = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30
    _require(table_gib <= memory_gib, "solver.duration", f"{cfg.duration} s records a "
             f"{table_gib:.3g} GiB table, over the {memory_gib:.3g} GiB of physical memory")
    substeps = ticks(cp, cfg.dt)
    offsets_gib = 32 * substeps / 2**30  # a float and its list slot per substep
    _require(table_gib + offsets_gib <= memory_gib, "solver.dt", f"{cfg.dt} s takes "
             f"{substeps:.3g} substeps a control tick, whose offsets and the table take "
             f"{table_gib + offsets_gib:.3g} GiB, over the {memory_gib:.3g} GiB of physical "
             "memory")


def _check_link_reference(cfg: ScenarioConfig):
    """Each boost steps up from its array's maximum-power voltage to a link
    reference inside the plant's DC envelope."""
    for prefix, dg in zip(UNIT_PREFIXES, cfg.dgs):
        key, ref = f"{prefix}.vr.v_dc_ref", dg.vr.v_dc_ref
        _require(ref > dg.pv.v_mp, key, f"must lie above pv.v_mp = {dg.pv.v_mp}")
        _require(ref < V_DC_LIMIT, key, f"must lie below the {V_DC_LIMIT:g} V DC envelope")


def _check_filter_resonance(cfg: ScenarioConfig):
    """The solver step resolves every output filter's resonance."""
    for prefix, dg in zip(UNIT_PREFIXES, cfg.dgs):
        _require(cfg.dt <= max_filter_step(dg.filter.l, dg.filter.c), "solver.dt",
                 f"{cfg.dt} s is too coarse for the resonance of {prefix}.filter.l/c")


def _check_dc_steps(cfg: ScenarioConfig):
    """The solver step resolves each DC side, which steps by Heun's method: the
    PV node's pole ``-g / c_pv`` within Heun's real-axis limit, ``g`` the
    string's incremental conductance at open circuit under the brightest
    irradiance the unit sees, and the boost inductor's resonance with the PV
    capacitor at zero duty."""
    for d, (prefix, dg) in enumerate(zip(UNIT_PREFIXES, cfg.dgs)):
        c_pv, l_boost = dg.dc.c_pv, dg.dc.l_boost
        suns = max([dg.pv.irradiance] + [g for _, unit, g in cfg.irradiance_events if unit == d])
        reach = cfg.dt * dg.pv.open_circuit_conductance(suns) / c_pv
        _require(reach < HEUN_REAL_LIMIT, f"{prefix}.dc.c_pv",
                 f"{c_pv} F is too small for solver.dt = {cfg.dt} s: at irradiance {suns:g} the PV "
                 f"node's pole takes {reach:.3g} of a step, Heun's method is stable below "
                 f"{HEUN_REAL_LIMIT:g}")
        _require(cfg.dt <= max_filter_step(l_boost, c_pv), f"{prefix}.dc.l_boost",
                 f"{l_boost} H is too small for solver.dt = {cfg.dt} s: its resonance "
                 f"with {prefix}.dc.c_pv = {c_pv} F needs a finer step")


def _check_nyquist(cfg: ScenarioConfig):
    """The extractor's bands and the PR resonators lie below the Nyquist rate of
    control.period, the load's injections (which would alias) below solver.dt's."""
    cp = ("control.period", cfg.control_period)
    orders = [("control.period", max(abs(o) for o in DEFAULT_SEQUENCE_ORDERS), cp)]
    for prefix, dg in zip(UNIT_PREFIXES, cfg.dgs):
        orders += [(f"{prefix}.prv.orders", max(dg.prv.orders), cp),
                   (f"{prefix}.pri.orders", max(dg.pri.orders), cp)]
    orders += [("load.harmonics", o, ("solver.dt", cfg.dt)) for o, _, _ in cfg.load.harmonics]
    for key, order, (step_key, step) in orders:
        _require(not beyond_nyquist(abs(order), cfg.omega, step), key,
                 f"order {order} at system.omega reaches the Nyquist rate of {step_key}")


def _check_low_passes(cfg: ScenarioConfig):
    """The compensator's extraction filters and the units' power filters suit their steps."""
    for key, cutoff_hz, step in (
            ("vcc.extraction_cutoff_hz", cfg.vcc.extraction_cutoff_hz, cfg.vcc.period),
            ("control.period", POWER_FILTER_HZ, cfg.control_period)):
        _require(not too_coarse_for_low_pass(cutoff_hz, step), key,
                 f"a {step} s step is too coarse for a {cutoff_hz} Hz low-pass filter")


def check_report_length(cfg: ScenarioConfig):
    """Reject a sample step or duration the report cannot analyse.

    Not one of :data:`RULES`: a configuration too short for a report still
    simulates, so the scenario loader and the reporting run apply this
    rule.  The spectrum resolves orders up to
    :data:`~pvisland.params.MAX_HARMONIC_ORDER` only with at least twice
    that many rows per cycle at ``system.omega``.  The steady-state search
    needs :data:`~pvisland.params.MIN_STEADY_CYCLES` whole cycles; the
    longest cycle is the one at the lowest droop frequency, reached at rated
    power.
    """
    omega_min = cfg.omega - max(dg.droop.m_p * dg.pv.rated_w for dg in cfg.dgs)
    _require(omega_min > 0.0, "system.omega", "droop frequency at rated power is not positive")
    max_step = math.pi / (MAX_HARMONIC_ORDER * cfg.omega)  # two rows per period
    _require(cfg.sample_dt <= max_step, "outputs.sample_dt",
             f"{cfg.sample_dt} s is too coarse for the report: orders up to "
             f"{MAX_HARMONIC_ORDER} need a step of at most {max_step:.4g} s")
    cycle_rows = int(round(2.0 * math.pi / (omega_min * cfg.sample_dt)))
    needed = MIN_STEADY_CYCLES * cycle_rows * cfg.sample_dt
    _require(recorded_rows(cfg) >= MIN_STEADY_CYCLES * cycle_rows, "solver.duration",
             f"{cfg.duration} s is too short for the report: it needs "
             f"{MIN_STEADY_CYCLES} cycles at {omega_min:.1f} rad/s, "
             f"about {needed:.3f} s")


#: The cross-key rules, in the order :func:`from_mapping` runs them.
RULES = (_check_divides, _check_link_reference, _check_filter_resonance, _check_dc_steps,
         _check_nyquist, _check_low_passes)


def _records(v: dict, groups: dict, prefix: str = "") -> dict:
    """Each group's record, built from its ``<prefix><group>.*`` values."""
    records = {}
    for group, record in groups.items():
        try:
            records[group] = record(**{name: v[f"{prefix}{group}.{name}"]
                                       for name in record._fields})
        except ConfigurationError as exc:  # the record names its field
            raise ConfigurationError(exc.args[0], key=f"{prefix}{group}.{exc.key}") from exc
    return records


def from_mapping(flat: dict[str, str]) -> ScenarioConfig:
    unknown = sorted(set(flat) - set(KEYS))
    if unknown:
        raise ConfigurationError("unknown key", key=unknown[0])
    merged = dict(DEFAULTS)
    merged.update(flat)
    v = {key: _PARSERS[row.kind](merged[key], key, row.range) for key, row in KEYS.items()}

    cfg = ScenarioConfig(
        name=v["scenario.name"], dt=v["solver.dt"], control_period=v["control.period"],
        duration=v["solver.duration"], startup_ramp=v["solver.startup_ramp"],
        omega=v["system.omega"], v_amp=V_RMS_TO_AMP * v["system.v_rms"],
        **_records(v, GROUPS),
        dgs=[DgConfig(**_records(v, UNIT_GROUPS, f"{prefix}."),
                      current_limit_factor=v[f"{prefix}.current_limit_factor"])
             for prefix in UNIT_PREFIXES],
        irradiance_events=v["events.irradiance"],
        sample_dt=v["outputs.sample_dt"], channels=v["outputs.channels"],
        raw=merged,
    )
    for rule in RULES:
        rule(cfg)
    return cfg


def parse_text(text: str) -> ScenarioConfig:
    flat: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'",
                                     key=stripped)
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in flat:
            raise ConfigurationError(f"line {lineno}: duplicate key", key=key)
        flat[key] = value.strip()
    return from_mapping(flat)


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"scenario file not found: {path}")
    return parse_text(path.read_text(encoding="utf-8"))


def echo(cfg: ScenarioConfig) -> str:
    """Fully resolved configuration, reloadable for a bit-identical re-run."""
    lines = [f"{key} = {cfg.raw[key]}" for key in sorted(cfg.raw)]
    return "\n".join(lines) + "\n"
