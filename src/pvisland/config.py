"""Scenario configuration: schema, defaults, parsing and echoing.

Scenario files are plain text, one ``dotted.key = value`` pair per line,
``#`` comments allowed.  Every key has a default; an empty file is the
calibrated baseline scenario.  The per-unit keys ``dgN.*`` come from one
template and a roster of per-unit overrides; the length of the roster is
the unit count.  Unknown keys are rejected with the offending path.  A
fully resolved configuration can be echoed back to text and reloaded to
reproduce a run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError

V_RMS_TO_AMP = math.sqrt(2.0)

#: One unit's keys (``dgN.<suffix>``) with DG1's defaults (as text).
UNIT_DEFAULTS: dict[str, str] = {
    "pv.rated_w": "3000.0",
    "pv.v_oc": "450.0",
    "pv.i_sc": "8.8",
    "pv.v_mp": "380.0",
    "pv.i_mp": "7.894736842105263",
    "pv.irradiance": "1.0",
    "dc.c_pv": "200e-6",
    "dc.l_boost": "1.5e-3",
    "dc.c_dc": "2350e-6",
    "vr.kp": "0.002",
    "vr.ki": "0.05",
    "vr.v_dc_ref": "600.0",
    "mppt.period": "1e-3",
    "mppt.duty_step": "0.002",
    "mppt.deadband": "0.005",
    "mode.enter_vr_margin": "5.0",
    "mode.exit_vr_margin": "10.0",
    "mode.exit_hold": "0.1",
    "droop.m_p": "12e-4",
    "droop.n_p": "1e-3",
    "vi.r_pos": "0.3",
    "vi.l_pos": "0.5e-3",
    "vi.r_neg": "2.0",
    "vi.r_h3": "3.0",
    "vi.r_h5": "1.0",
    "vi.r_h7": "1.0",
    "vi.r_h11": "0.5",
    "vi.bandwidth_gain": "1.0",
    "prv.kp": "0.05",
    "prv.k1": "50.0",
    "prv.kh": "20.0",
    "prv.wc": "2.0",
    "prv.orders": "1,3,5,7,11",
    "pri.kp": "7.0",
    "pri.k1": "600.0",
    "pri.kh": "200.0",
    "pri.wc": "2.0",
    "pri.orders": "1,3,5,7,11",
    "filter.l": "1.8e-3",
    "filter.c": "25e-6",
    "feeder.r": "0.8",
    "feeder.l": "2.4e-3",
    "current_limit_factor": "1.5",
}

#: The unit roster: one entry per unit, holding the keys where that unit
#: departs from :data:`UNIT_DEFAULTS`.  DG2 is rated for twice the power of
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

#: Every known key with its default value (as text): the shared keys below,
#: then every unit's keys from the roster.  The load block and the feeders
#: are the calibrated fixture reproducing the target pre-compensation
#: distortion figures.
DEFAULTS: dict[str, str] = {
    "scenario.name": "baseline",

    "solver.dt": "50e-6",
    "control.period": "50e-6",
    "solver.duration": "8.0",
    "solver.startup_ramp": "0.25",

    "system.omega": "370.0",
    "system.v_rms": "120.0",

    "pll.kp": "92.0",
    "pll.ki": "4230.0",
    "pll.band": "0.5",

    "load.balanced_r": "10.0",
    "load.balanced_l": "0.060",
    "load.unbalanced_r_a": "14.0",
    "load.harmonics": "-1:7.4:0.0, 3:3.1:0.0, -5:4.6:0.0, 7:2.75:0.0, -11:1.3:0.0",
    "load.step_time": "off",
    "load.step_scale": "1.0",

    "vcc.enable_at": "2.0",
    "vcc.period": "1e-3",
    "vcc.vuf_ref": "0.2",
    "vcc.hd_ref": "0.2",
    "vcc.extraction_cutoff_hz": "5.0",
    "vcc.extraction_damping": "2.5",
    "vcc.pi_neg1": "0.5:20.0",
    "vcc.pi_h3": "0.5:15.0",
    "vcc.pi_h5": "5.0:30.0",
    "vcc.pi_h7": "5.0:25.0",
    "vcc.pi_h11": "0.5:5.0",
    "vcc.output_limit": "80.0",
    "vcc.effort_limit": "250.0",
    "vcc.comm_delay": "0.0",

    "events.irradiance": "",

    "outputs.sample_dt": "1e-4",
    "outputs.channels": "all",
}
DEFAULTS.update(
    (f"{prefix}.{key}", value)
    for prefix, overrides in zip(UNIT_PREFIXES, UNIT_OVERRIDES)
    for key, value in {**UNIT_DEFAULTS, **overrides}.items())


@dataclass
class PvConfig:
    rated_w: float
    v_oc: float
    i_sc: float
    v_mp: float
    i_mp: float
    irradiance: float


@dataclass
class DgConfig:
    pv: PvConfig
    c_pv: float
    l_boost: float
    c_dc: float
    vr_kp: float
    vr_ki: float
    v_dc_ref: float
    mppt_period: float
    mppt_duty_step: float
    mppt_deadband: float
    enter_vr_margin: float
    exit_vr_margin: float
    exit_hold: float
    m_p: float
    n_p: float
    vi_r_pos: float
    vi_l_pos: float
    vi_r_neg: float
    vi_r_h: dict[int, float]
    vi_bandwidth_gain: float
    prv: tuple[float, float, float, float]   # kp, k1, kh, wc
    prv_orders: tuple[int, ...]
    pri: tuple[float, float, float, float]
    pri_orders: tuple[int, ...]
    filter_l: float
    filter_c: float
    feeder_r: float
    feeder_l: float
    current_limit_factor: float


@dataclass
class ScenarioConfig:
    name: str
    dt: float
    control_period: float
    duration: float
    startup_ramp: float
    omega: float
    v_amp: float
    pll_kp: float
    pll_ki: float
    pll_band: float
    dgs: list[DgConfig]
    balanced_r: float
    balanced_l: float | None
    unbalanced_r_a: float | None
    harmonics: list[tuple[int, float, float]]
    load_step_time: float | None
    load_step_scale: float
    vcc_enable_at: float | None
    vcc_period: float
    vuf_ref: float
    hd_ref: float
    extraction_cutoff_hz: float
    extraction_damping: float
    vcc_gains: dict[int, tuple[float, float]]
    vcc_output_limit: float
    vcc_effort_limit: float
    vcc_comm_delay: float
    irradiance_events: list[tuple[float, int, float]]
    sample_dt: float
    channels: list[str] | None      # None means every known channel
    raw: dict[str, str] = field(default_factory=dict, repr=False)


def _finite(value: float, key: str) -> float:
    if not math.isfinite(value):
        raise ConfigurationError(f"not a finite number: {value}", key=key)
    return value


def _parse_float(flat: dict[str, str], key: str) -> float:
    try:
        return _finite(float(flat[key]), key)
    except ValueError as exc:
        raise ConfigurationError(f"not a number: {flat[key]!r}", key=key) from exc


def _parse_optional_time(flat: dict[str, str], key: str) -> float | None:
    text = flat[key].strip().lower()
    if text in ("off", "none", ""):
        return None
    try:
        value = _finite(float(text), key)
    except ValueError as exc:
        raise ConfigurationError(f"expected a time in seconds or 'off', got {text!r}",
                                 key=key) from exc
    if value < 0.0:
        raise ConfigurationError("time must be non-negative", key=key)
    return value


def _parse_pair(flat: dict[str, str], key: str) -> tuple[float, float]:
    parts = flat[key].split(":")
    if len(parts) != 2:
        raise ConfigurationError(f"expected 'kp:ki', got {flat[key]!r}", key=key)
    try:
        return _finite(float(parts[0]), key), _finite(float(parts[1]), key)
    except ValueError as exc:
        raise ConfigurationError(f"not numbers: {flat[key]!r}", key=key) from exc


def _parse_harmonics(flat: dict[str, str], key: str) -> list[tuple[int, float, float]]:
    text = flat[key].strip()
    if not text:
        return []
    out = []
    for item in text.split(","):
        parts = [p.strip() for p in item.split(":")]
        if len(parts) not in (2, 3):
            raise ConfigurationError(
                f"expected 'order:amplitude[:phase]', got {item.strip()!r}", key=key)
        try:
            order = int(parts[0])
            amp = _finite(float(parts[1]), key)
            phase = _finite(float(parts[2]), key) if len(parts) == 3 else 0.0
        except ValueError as exc:
            raise ConfigurationError(f"malformed injection {item.strip()!r}", key=key) from exc
        if order == 0:
            raise ConfigurationError("injection order must be nonzero", key=key)
        if amp < 0.0:
            raise ConfigurationError("injection amplitude must be non-negative", key=key)
        out.append((order, amp, phase))
    return out


def _parse_irradiance_events(flat: dict[str, str], key: str, units: int
                             ) -> list[tuple[float, int, float]]:
    text = flat[key].strip()
    if not text:
        return []
    out = []
    for item in text.split(","):
        parts = [p.strip() for p in item.split(":")]
        if len(parts) != 3:
            raise ConfigurationError(
                f"expected 'time:dg:value', got {item.strip()!r}", key=key)
        try:
            t = _finite(float(parts[0]), key)
            dg = int(parts[1])
            value = _finite(float(parts[2]), key)
        except ValueError as exc:
            raise ConfigurationError(f"malformed event {item.strip()!r}", key=key) from exc
        if not 1 <= dg <= units:
            raise ConfigurationError(f"dg index must lie in 1..{units}", key=key)
        if value < 0.0:
            raise ConfigurationError("irradiance must be non-negative", key=key)
        out.append((t, dg - 1, value))
    return out


#: Per-unit channels, ``<prefix><unit>_<suffix>``, in the order the runner
#: records each unit's values.
UNIT_CHANNELS = (
    ("dg", ("p", "q", "vdc", "vpv", "duty", "mode", "omega", "io_a", "io_b", "io_c")),
    ("pv", ("power",)),
    ("vc", ("alpha", "beta")),
)


def unit_channels(unit: int) -> list[str]:
    """Channel names of one unit (numbered from 1), in recording order."""
    return [f"{prefix}{unit}_{suffix}" for prefix, suffixes in UNIT_CHANNELS
            for suffix in suffixes]


def channel_names(units: int) -> list[str]:
    """Every channel of a roster of ``units`` units, in CSV column order."""
    dg, pv, vc = ([f"{prefix}{i}_{suffix}" for i in range(1, units + 1)
                   for suffix in suffixes] for prefix, suffixes in UNIT_CHANNELS)
    return (["vpcc_a", "vpcc_b", "vpcc_c"] + dg + pv
            + ["vcc_active", "vcc_vuf", "vcc_hd3", "vcc_hd5", "vcc_hd7", "vcc_hd11"] + vc)


KNOWN_CHANNELS = channel_names(len(UNIT_PREFIXES))


def _parse_channels(flat: dict[str, str], key: str, known: list[str]) -> list[str] | None:
    text = flat[key].strip()
    if text.lower() == "all":
        return None
    out = []
    for item in text.split(","):
        name = item.strip()
        if name not in known:
            raise ConfigurationError(f"unknown channel {name!r}", key=key)
        out.append(name)
    if not out:
        raise ConfigurationError("channel list is empty", key=key)
    return out


def _parse_orders(flat: dict[str, str], key: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(p.strip()) for p in flat[key].split(","))
    except ValueError as exc:
        raise ConfigurationError(f"expected comma-separated integers, got {flat[key]!r}",
                                 key=key) from exc
    if not orders or any(o < 1 for o in orders):
        raise ConfigurationError("resonator orders must be positive integers", key=key)
    return orders


def _dg_from_flat(flat: dict[str, str], prefix: str) -> DgConfig:
    f = lambda suffix: _parse_float(flat, f"{prefix}.{suffix}")
    return DgConfig(
        pv=PvConfig(
            rated_w=f("pv.rated_w"), v_oc=f("pv.v_oc"), i_sc=f("pv.i_sc"),
            v_mp=f("pv.v_mp"), i_mp=f("pv.i_mp"), irradiance=f("pv.irradiance"),
        ),
        c_pv=f("dc.c_pv"), l_boost=f("dc.l_boost"), c_dc=f("dc.c_dc"),
        vr_kp=f("vr.kp"), vr_ki=f("vr.ki"), v_dc_ref=f("vr.v_dc_ref"),
        mppt_period=f("mppt.period"), mppt_duty_step=f("mppt.duty_step"),
        mppt_deadband=f("mppt.deadband"),
        enter_vr_margin=f("mode.enter_vr_margin"),
        exit_vr_margin=f("mode.exit_vr_margin"),
        exit_hold=f("mode.exit_hold"),
        m_p=f("droop.m_p"), n_p=f("droop.n_p"),
        vi_r_pos=f("vi.r_pos"), vi_l_pos=f("vi.l_pos"), vi_r_neg=f("vi.r_neg"),
        vi_r_h={3: f("vi.r_h3"), -5: f("vi.r_h5"), 7: f("vi.r_h7"), -11: f("vi.r_h11")},
        vi_bandwidth_gain=f("vi.bandwidth_gain"),
        prv=(f("prv.kp"), f("prv.k1"), f("prv.kh"), f("prv.wc")),
        prv_orders=_parse_orders(flat, f"{prefix}.prv.orders"),
        pri=(f("pri.kp"), f("pri.k1"), f("pri.kh"), f("pri.wc")),
        pri_orders=_parse_orders(flat, f"{prefix}.pri.orders"),
        filter_l=f("filter.l"), filter_c=f("filter.c"),
        feeder_r=f("feeder.r"), feeder_l=f("feeder.l"),
        current_limit_factor=f("current_limit_factor"),
    )


def _check_divides(period: float, dt: float, key: str):
    ratio = period / dt
    if abs(ratio - round(ratio)) > 1e-6 or round(ratio) < 1:
        raise ConfigurationError(
            f"{key} = {period} is not an integer multiple of solver.dt = {dt}", key=key)


def from_mapping(flat: dict[str, str]) -> ScenarioConfig:
    unknown = sorted(set(flat) - set(DEFAULTS))
    if unknown:
        raise ConfigurationError("unknown key", key=unknown[0])
    merged = dict(DEFAULTS)
    merged.update(flat)

    dt = _parse_float(merged, "solver.dt")
    duration = _parse_float(merged, "solver.duration")
    if dt <= 0.0 or duration <= 0.0:
        raise ConfigurationError("solver.dt and solver.duration must be positive",
                                 key="solver.dt")

    omega = _parse_float(merged, "system.omega")
    v_amp = V_RMS_TO_AMP * _parse_float(merged, "system.v_rms")
    band = _parse_float(merged, "pll.band")
    if not 0.0 < band < 1.0:
        raise ConfigurationError("pll.band must lie in (0, 1)", key="pll.band")

    control_period = _parse_float(merged, "control.period")
    _check_divides(control_period, dt, "control.period")

    dgs = [_dg_from_flat(merged, prefix) for prefix in UNIT_PREFIXES]
    for prefix, dg in zip(UNIT_PREFIXES, dgs):
        _check_divides(dg.mppt_period, control_period, f"{prefix}.mppt.period")

    vcc_period = _parse_float(merged, "vcc.period")
    _check_divides(vcc_period, control_period, "vcc.period")
    sample_dt = _parse_float(merged, "outputs.sample_dt")
    _check_divides(sample_dt, control_period, "outputs.sample_dt")
    if round(duration / control_period) <= round(sample_dt / control_period):
        raise ConfigurationError(
            f"outputs.sample_dt = {sample_dt} records fewer than two rows "
            f"in solver.duration = {duration}", key="outputs.sample_dt")

    ubr = merged["load.unbalanced_r_a"].strip().lower()
    unbalanced = None if ubr in ("off", "none", "") else _parse_float(merged, "load.unbalanced_r_a")
    blr = merged["load.balanced_l"].strip().lower()
    balanced_l = None if blr in ("off", "none", "") else _parse_float(merged, "load.balanced_l")

    cfg = ScenarioConfig(
        name=merged["scenario.name"].strip(),
        dt=dt,
        control_period=control_period,
        duration=duration,
        startup_ramp=_parse_float(merged, "solver.startup_ramp"),
        omega=omega,
        v_amp=v_amp,
        pll_kp=_parse_float(merged, "pll.kp"),
        pll_ki=_parse_float(merged, "pll.ki"),
        pll_band=band,
        dgs=dgs,
        balanced_r=_parse_float(merged, "load.balanced_r"),
        balanced_l=balanced_l,
        unbalanced_r_a=unbalanced,
        harmonics=_parse_harmonics(merged, "load.harmonics"),
        load_step_time=_parse_optional_time(merged, "load.step_time"),
        load_step_scale=_parse_float(merged, "load.step_scale"),
        vcc_enable_at=_parse_optional_time(merged, "vcc.enable_at"),
        vcc_period=vcc_period,
        vuf_ref=_parse_float(merged, "vcc.vuf_ref"),
        hd_ref=_parse_float(merged, "vcc.hd_ref"),
        extraction_cutoff_hz=_parse_float(merged, "vcc.extraction_cutoff_hz"),
        extraction_damping=_parse_float(merged, "vcc.extraction_damping"),
        vcc_gains={
            -1: _parse_pair(merged, "vcc.pi_neg1"),
            3: _parse_pair(merged, "vcc.pi_h3"),
            -5: _parse_pair(merged, "vcc.pi_h5"),
            7: _parse_pair(merged, "vcc.pi_h7"),
            -11: _parse_pair(merged, "vcc.pi_h11"),
        },
        vcc_output_limit=_parse_float(merged, "vcc.output_limit"),
        vcc_effort_limit=_parse_float(merged, "vcc.effort_limit"),
        vcc_comm_delay=_parse_float(merged, "vcc.comm_delay"),
        irradiance_events=_parse_irradiance_events(merged, "events.irradiance", len(dgs)),
        sample_dt=sample_dt,
        channels=_parse_channels(merged, "outputs.channels", channel_names(len(dgs))),
        raw=merged,
    )
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
