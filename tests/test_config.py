import importlib.util
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvisland import cli
from pvisland.config import (
    DEFAULTS,
    GROUPS,
    KEYS,
    UNIT_GROUPS,
    UNIT_KEYS,
    UNIT_PREFIXES,
    DgConfig,
    ScenarioConfig,
    channel_names,
    echo,
    from_mapping,
    load_config,
    parse_text,
)
from pvisland.errors import ConfigurationError
from pvisland.params import HARMONIC_ORDERS, ViParams
from pvisland.runner import build_compensator, build_controllers, build_plant

_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).resolve().with_name("make_golden.py"))
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


class TestParsing:
    def test_empty_text_is_the_calibrated_baseline(self):
        cfg = parse_text("")
        assert cfg.name == "baseline"
        assert cfg.dt == 50e-6
        assert cfg.omega == 370.0
        assert cfg.v_amp == pytest.approx(math.sqrt(2.0) * 120.0)
        assert cfg.dgs[0].droop.m_p == pytest.approx(12e-4)
        assert cfg.dgs[1].droop.m_p == pytest.approx(6e-4)
        assert cfg.dgs[0].droop.n_p == pytest.approx(2.0 * cfg.dgs[1].droop.n_p)

    def test_scientific_notation_values_parse(self):
        cfg = parse_text("dg1.droop.n_p = 1e-3\n")
        assert cfg.dgs[0].droop.n_p == 1e-3

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_text("# comment\n\nsolver.duration = 2.5  # trailing\n")
        assert cfg.duration == 2.5

    def test_unknown_key_rejected_by_path(self):
        with pytest.raises(ConfigurationError) as err:
            parse_text("dg1.droop.zeta = 3\n")
        assert "dg1.droop.zeta" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_text("solver.dt = 1e-4\nsolver.dt = 2e-4\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_text("solver.dt 1e-4\n")

    def test_step_not_dividing_control_period_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            from_mapping({"solver.dt": "3e-6"})
        assert "control.period" in str(err.value)

    def test_control_period_not_dividing_tracker_period_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            from_mapping({"solver.dt": "30e-6", "control.period": "30e-6"})
        assert "mppt.period" in str(err.value)

    def test_step_not_dividing_compensator_period_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            from_mapping({"solver.dt": "50e-6", "vcc.period": "1.25e-4"})
        assert "vcc.period" in str(err.value)

    def test_bad_method_rejected(self):
        # the plant has one integration scheme; the old selector is an unknown key
        with pytest.raises(ConfigurationError) as err:
            from_mapping({"solver.method": "trapezoid"})
        assert err.value.key == "solver.method"

    def test_harmonics_list_parses(self):
        cfg = from_mapping({"load.harmonics": "-5:2.0:0.1, 7:1.0"})
        assert cfg.load.harmonics == [(-5, 2.0, 0.1), (7, 1.0, 0.0)]

    def test_zero_order_injection_rejected(self):
        with pytest.raises(ConfigurationError):
            from_mapping({"load.harmonics": "0:2.0"})

    def test_vcc_off_parses_to_none(self):
        cfg = from_mapping({"vcc.enable_at": "off"})
        assert cfg.vcc.enable_at is None

    def test_irradiance_events_parse(self):
        cfg = from_mapping({"events.irradiance": "1.0:1:0.9, 2.0:2:0.8"})
        assert cfg.irradiance_events == [(1.0, 0, 0.9), (2.0, 1, 0.8)]

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            from_mapping({"outputs.channels": "vpcc_a, bogus"})

    def test_channel_subset_accepted(self):
        cfg = from_mapping({"outputs.channels": "vpcc_a, dg1_p"})
        assert cfg.channels == ["vpcc_a", "dg1_p"]

    def test_resonator_orders_parse(self):
        cfg = from_mapping({"dg1.prv.orders": "1,3,5"})
        assert cfg.dgs[0].prv.orders == (1, 3, 5)

    def test_bad_resonator_orders_rejected(self):
        with pytest.raises(ConfigurationError):
            from_mapping({"dg1.prv.orders": "3,five"})

    @pytest.mark.parametrize("key, value", [
        ("solver.dt", "nan"),
        ("solver.duration", "inf"),
        ("system.v_rms", "-inf"),
        ("dg2.pv.irradiance", "nan"),
        ("vcc.pi_h3", "nan:15.0"),
        ("load.harmonics", "3:inf"),
        ("load.harmonics", "3:1.0:nan"),
        ("load.harmonics", "3:-1.0"),
        ("load.step_time", "nan"),
        ("vcc.enable_at", "inf"),
        ("events.irradiance", "nan:1:0.9"),
        ("events.irradiance", "1.0:1:inf"),
        ("events.irradiance", "1.0:1:-0.5"),
        ("events.irradiance", "1.0:0:0.9"),
        ("events.irradiance", "1.0:3:0.9"),
        ("outputs.sample_dt", "8.0"),    # one row in the 8 s default duration
        ("load.step_scale", "-1"),
        ("vcc.extraction_cutoff_hz", "0"),
        ("vcc.extraction_damping", "0"),
        ("vcc.comm_delay", "-1"),
        ("solver.startup_ramp", "-0.5"),
        ("dg1.mppt.duty_step", "-0.01"),
        ("pll.kp", "-5"),
        ("vcc.output_limit", "-3"),
        ("dg1.vi.bandwidth_gain", "0"),
        ("vcc.pi_h3", "-1:-1"),
        ("events.irradiance", "0.2:1:50"),    # 50 suns
        ("dg1.current_limit_factor", "0"),    # divided by zero in the voltage loop
        ("dg2.vr.v_dc_ref", "380.0"),         # not above pv.v_mp: negative boost duty
        ("dg1.vr.v_dc_ref", "6000"),          # beyond the plant's DC envelope
        ("dg1.pv.v_mp", "460.0"),             # above pv.v_oc
        ("dg2.pv.i_mp", "18.0"),              # above pv.i_sc
        ("dg1.pv.rated_w", "2000.0"),         # below the maximum-power point
        ("dg2.pri.orders", "1,3,200"),        # beyond the control Nyquist rate
        ("dg1.dc.l_boost", "1.5e-5"),         # rings with dc.c_pv at 0.91 rad per solver.dt
        ("dg1.dc.c_pv", "2e-6"),              # PV pole at 7.1 steps, past Heun's limit of 2
        ("dg2.dc.c_pv", "2e-6"),
        ("dg1.prv.orders", "1,3,3,5"),        # a repeat doubles that order's resonant gain
        ("dg1.pri.orders", "1,1"),
        ("vcc.extraction_cutoff_hz", "200"),  # too fast for vcc.period
        ("control.period", "1e308"),          # ratio to solver.dt is inf
        ("solver.duration", "1e308"),         # tick count is inf
        ("solver.duration", "1e9"),           # run table larger than physical memory
        ("solver.dt", "1e-15"),               # 5e10 substep offsets a tick, likewise
        ("solver.dt", "1e-200"),
        ("events.irradiance", "0.3:1:0.5, 0.3:1:0.9"),  # two values for one tick
        ("load.step_time", "0.30001"),        # off the control tick grid
        ("vcc.enable_at", "0.55001"),
        ("vcc.comm_delay", "1e-5"),
        ("dg1.mode.exit_hold", "0.10001"),
        ("events.irradiance", "0.30001:1:0.9"),
    ])
    def test_invalid_value_rejected_up_front(self, key, value, tmp_path, capsys):
        with pytest.raises(ConfigurationError) as err:
            from_mapping({key: value})
        assert err.value.key == key
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n")
        assert cli.main(["validate", str(path)]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("flat, key", [
        ({"dg1.pv.v_oc": "4.5e11"}, "dg1.pv.v_mp"),            # no diode-like curve
        ({"dg1.pv.v_oc": "1e7", "dg1.pv.v_mp": "9999990",      # fit needs expm1 past 709
          "dg1.pv.rated_w": "1e9"}, "dg1.pv.v_mp"),
        ({"dg1.filter.c": "25e-15"}, "solver.dt"),             # resonance near 24 MHz
        ({"system.omega": "3e4"}, "control.period"),           # extractor band 11
        ({"system.omega": "1.0", "control.period": "0.1", "dg1.mppt.period": "0.1",
          "dg2.mppt.period": "0.1", "vcc.period": "0.1", "outputs.sample_dt": "0.1",
          "vcc.extraction_cutoff_hz": "1.0"},
         "control.period"),                                    # the 2 Hz power filter
        ({"solver.duration": "0.4", "vcc.enable_at": "off",    # would alias onto a low order
          "load.harmonics": "-999:3.0:0.0"}, "load.harmonics"),
        ({"load.harmonics": "3:1.0, 170:1.0"}, "load.harmonics"),  # 3.145 rad per solver.dt
        ({"load.harmonics": "169:1.0", "system.omega": "372.0"}, "load.harmonics"),
        ({"dg1.pv.irradiance": "2", "dg1.dc.c_pv": "7.5e-6",   # PV pole at 3.8 steps
          "dg1.dc.l_boost": "1e-2"}, "dg1.dc.c_pv"),
        ({"events.irradiance": "0.1:1:2", "dg1.dc.c_pv": "7.5e-6",
          "dg1.dc.l_boost": "1e-2"}, "dg1.dc.c_pv"),
    ])
    def test_cross_key_rule_names_the_key_to_change(self, flat, key):
        # the rule names the key to change, which need not be the one set here
        with pytest.raises(ConfigurationError) as err:
            from_mapping(flat)
        assert err.value.key == key

    @pytest.mark.parametrize("flat", [
        {"dg1.dc.l_boost": "1.5e-4"},                        # 0.29 rad per solver.dt
        {"dg1.dc.c_pv": "7.5e-6", "dg1.dc.l_boost": "1e-2"},  # PV pole at 1.91 steps
        {"dg1.dc.c_pv": "7.5e-6", "dg1.dc.l_boost": "1e-2",   # the brighter unit is dg2
         "events.irradiance": "0.1:2:2"},
    ])
    def test_dc_side_the_step_resolves_is_accepted(self, flat):
        assert from_mapping(flat).dgs[0].dc.l_boost == float(flat["dg1.dc.l_boost"])

    def test_load_injection_below_the_solver_nyquist_rate_is_accepted(self):
        # order 169 at system.omega advances 3.127 rad per solver.dt, under pi
        cfg = from_mapping({"load.harmonics": "-169:1.0"})
        assert cfg.load.harmonics == [(-169, 1.0, 0.0)]


def _scaled(text: str, factor: float) -> str:
    """``text`` with every number in it multiplied by ``factor``."""
    return re.sub(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?",
                  lambda m: repr(float(m.group()) * factor), text)


@st.composite
def _key_and_value(draw):
    key = draw(st.sampled_from(sorted(DEFAULTS)))
    value = draw(st.one_of(
        st.text(),
        st.sampled_from([-1.0, 0.0, 1e-9, 1e9]).map(lambda f: _scaled(DEFAULTS[key], f)),
        st.sampled_from(["nan", "inf", "-inf"]),
    ))
    return key, value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_key_and_value())
def test_parsed_configuration_builds(key_value):
    # a configuration that parses needs no further check: validate builds nothing
    key, value = key_value
    try:
        cfg = from_mapping({key: value})
    except ConfigurationError as err:
        assert err.key in DEFAULTS
        return
    build_plant(cfg)
    build_controllers(cfg)
    build_compensator(cfg)


class TestUnitGroups:
    def test_group_records_spell_every_unit_key_once(self):
        # a record's fields are its group's key suffixes, and a unit is its records
        spelled = [f"{group}.{name}" for group, record in UNIT_GROUPS.items()
                   for name in record._fields]
        assert sorted(spelled + ["current_limit_factor"]) == sorted(UNIT_KEYS)
        assert list(DgConfig._fields) == [*UNIT_GROUPS, "current_limit_factor"]

    def test_shared_records_hold_each_key_once(self):
        # each pll.*, load.* and vcc.* key is one field of its group's record,
        # which holds the key's parsed value; no two values here are equal
        assert len({repr(value) for _, value in SHARED_VALUES.values()}) == len(SHARED_VALUES)
        cfg = from_mapping({key: text for key, (text, _) in SHARED_VALUES.items()})
        spelled = [f"{group}.{name}" for group, record in GROUPS.items()
                   for name in record._fields]
        assert sorted(spelled) == sorted(key for key in KEYS if key.split(".")[0] in GROUPS)
        assert sorted(spelled) == sorted(SHARED_VALUES)
        for key, (_, value) in SHARED_VALUES.items():
            group, name = key.split(".")
            assert getattr(getattr(cfg, group), name) == value, key
        assert [name for name in ScenarioConfig._fields if name in GROUPS] == list(GROUPS)
        assert cfg.load_step_time == 0.3

    def test_a_record_rejection_names_the_units_key(self):
        with pytest.raises(ConfigurationError) as err:
            from_mapping({"dg2.pv.i_mp": "18.0"})
        assert err.value.key == "dg2.pv.i_mp"
        assert str(err.value) == "dg2.pv.i_mp: must lie below pv.i_sc = 17.6"


#: Text and parsed value of every shared model key, no two values equal.
SHARED_VALUES = {
    "pll.kp": ("91.0", 91.0),
    "pll.ki": ("4231.0", 4231.0),
    "pll.band": ("0.45", 0.45),
    "load.balanced_r": ("10.5", 10.5),
    "load.balanced_l": ("0.061", 0.061),
    "load.unbalanced_r_a": ("14.5", 14.5),
    "load.harmonics": ("-5:2.0:0.1, 7:1.0", [(-5, 2.0, 0.1), (7, 1.0, 0.0)]),
    "load.step_time": ("0.3", 0.3),
    "load.step_scale": ("0.9", 0.9),
    "vcc.enable_at": ("0.2", 0.2),
    "vcc.period": ("2e-3", 2e-3),
    "vcc.vuf_ref": ("0.25", 0.25),
    "vcc.hd_ref": ("0.35", 0.35),
    "vcc.extraction_cutoff_hz": ("4.0", 4.0),
    "vcc.extraction_damping": ("2.0", 2.0),
    "vcc.pi_neg1": ("0.6:21.0", (0.6, 21.0)),
    "vcc.pi_h3": ("0.7:16.0", (0.7, 16.0)),
    "vcc.pi_h5": ("5.1:31.0", (5.1, 31.0)),
    "vcc.pi_h7": ("5.2:26.0", (5.2, 26.0)),
    "vcc.pi_h11": ("0.8:6.0", (0.8, 6.0)),
    "vcc.output_limit": ("81.0", 81.0),
    "vcc.effort_limit": ("251.0", 251.0),
    "vcc.comm_delay": ("1e-3", 1e-3),
}


class TestEcho:
    def test_round_trip_reproduces_config(self):
        cfg = from_mapping({"solver.duration": "2.0", "load.balanced_r": "7.5"})
        text = echo(cfg)
        again = parse_text(text)
        assert again.raw == cfg.raw

    @pytest.mark.parametrize("name", [*cli.PRESETS, *make_golden.workload_names()])
    def test_echo_reloads_every_shipped_scenario_record_for_record(self, name):
        # each preset, and each benchmark workload's seed-0 scenario
        cfg = (cli._load_scenario(name) if name in cli.PRESETS
               else make_golden.workload_config(name))
        assert parse_text(echo(cfg)) == cfg

    def test_echo_covers_every_key(self):
        cfg = parse_text("")
        text = echo(cfg)
        keys = {line.split("=")[0].strip() for line in text.splitlines()}
        assert keys == set(DEFAULTS)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.cfg")

    def test_file_loading(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("solver.duration = 1.25\n")
        assert load_config(path).duration == 1.25


class TestComponentTable:
    """The signed harmonic orders of ``params.HARMONIC_ORDERS`` name the keys and channels."""

    def test_compensator_channels_keep_their_csv_positions(self):
        names = channel_names(2)
        assert len(names) == 35
        assert names[25:31] == ["vcc_active", "vcc_vuf", "vcc_hd3", "vcc_hd5", "vcc_hd7",
                                "vcc_hd11"]

    def test_every_order_has_its_key_rows(self):
        for order in HARMONIC_ORDERS:
            assert f"vcc.pi_h{abs(order)}" in KEYS
            for prefix in UNIT_PREFIXES:
                assert f"{prefix}.vi.r_h{abs(order)}" in KEYS

    def test_each_order_reads_its_own_rows(self):
        flat = {f"vcc.pi_h{abs(o)}": f"{i}.5:{i}.25" for i, o in enumerate(HARMONIC_ORDERS)}
        flat.update({f"dg2.vi.r_h{abs(o)}": f"{i}.75" for i, o in enumerate(HARMONIC_ORDERS)})
        flat["vcc.hd_ref"] = "0.35"  # off the unbalance reference's default of 0.2
        cfg = from_mapping(flat)
        assert ([cfg.vcc.pi(c) for c in (-1, *HARMONIC_ORDERS)]
                == [(0.5, 20.0), *((i + 0.5, i + 0.25) for i, _ in enumerate(HARMONIC_ORDERS))])
        assert ([cfg.dgs[1].vi.r_harmonic(o) for o in HARMONIC_ORDERS]
                == [i + 0.75 for i, _ in enumerate(HARMONIC_ORDERS)])
        assert ([name for name in ViParams._fields if name.startswith("r_h")]
                == [f"r_h{abs(o)}" for o in HARMONIC_ORDERS])
        comp = build_compensator(cfg)
        assert comp.components == (-1,) + tuple(sorted(HARMONIC_ORDERS))
        # each loop's (component, reference, kp, ki), in summation order
        gains = {-1: (0.5, 20.0), **{o: (i + 0.5, i + 0.25) for i, o in enumerate(HARMONIC_ORDERS)}}
        refs = {-1: 0.2, **dict.fromkeys(HARMONIC_ORDERS, 0.35)}
        assert comp._loops == tuple((c, refs[c], *gains[c]) for c in comp.components)

    def test_echo_of_an_empty_scenario_is_unchanged(self):
        assert echo(parse_text("")) == DEFAULT_ECHO


#: ``echo`` of an empty scenario file, byte for byte: deriving the per-order
#: key names from the component table must not move a key or a default.
DEFAULT_ECHO = """\
control.period = 50e-6
dg1.current_limit_factor = 1.5
dg1.dc.c_dc = 2350e-6
dg1.dc.c_pv = 200e-6
dg1.dc.l_boost = 1.5e-3
dg1.droop.m_p = 12e-4
dg1.droop.n_p = 1e-3
dg1.feeder.l = 2.4e-3
dg1.feeder.r = 0.8
dg1.filter.c = 25e-6
dg1.filter.l = 1.8e-3
dg1.mode.enter_vr_margin = 5.0
dg1.mode.exit_hold = 0.1
dg1.mode.exit_vr_margin = 10.0
dg1.mppt.deadband = 0.005
dg1.mppt.duty_step = 0.002
dg1.mppt.period = 1e-3
dg1.pri.k1 = 600.0
dg1.pri.kh = 200.0
dg1.pri.kp = 7.0
dg1.pri.orders = 1,3,5,7,11
dg1.pri.wc = 2.0
dg1.prv.k1 = 50.0
dg1.prv.kh = 20.0
dg1.prv.kp = 0.05
dg1.prv.orders = 1,3,5,7,11
dg1.prv.wc = 2.0
dg1.pv.i_mp = 7.894736842105263
dg1.pv.i_sc = 8.8
dg1.pv.irradiance = 1.0
dg1.pv.rated_w = 3000.0
dg1.pv.v_mp = 380.0
dg1.pv.v_oc = 450.0
dg1.vi.bandwidth_gain = 1.0
dg1.vi.l_pos = 0.5e-3
dg1.vi.r_h11 = 0.5
dg1.vi.r_h3 = 3.0
dg1.vi.r_h5 = 1.0
dg1.vi.r_h7 = 1.0
dg1.vi.r_neg = 2.0
dg1.vi.r_pos = 0.3
dg1.vr.ki = 0.05
dg1.vr.kp = 0.002
dg1.vr.v_dc_ref = 600.0
dg2.current_limit_factor = 1.5
dg2.dc.c_dc = 2350e-6
dg2.dc.c_pv = 200e-6
dg2.dc.l_boost = 1.5e-3
dg2.droop.m_p = 6e-4
dg2.droop.n_p = 0.5e-3
dg2.feeder.l = 1.2e-3
dg2.feeder.r = 0.4
dg2.filter.c = 50e-6
dg2.filter.l = 0.9e-3
dg2.mode.enter_vr_margin = 5.0
dg2.mode.exit_hold = 0.1
dg2.mode.exit_vr_margin = 10.0
dg2.mppt.deadband = 0.005
dg2.mppt.duty_step = 0.002
dg2.mppt.period = 1e-3
dg2.pri.k1 = 600.0
dg2.pri.kh = 200.0
dg2.pri.kp = 7.0
dg2.pri.orders = 1,3,5,7,11
dg2.pri.wc = 2.0
dg2.prv.k1 = 50.0
dg2.prv.kh = 20.0
dg2.prv.kp = 0.05
dg2.prv.orders = 1,3,5,7,11
dg2.prv.wc = 2.0
dg2.pv.i_mp = 15.789473684210526
dg2.pv.i_sc = 17.6
dg2.pv.irradiance = 1.0
dg2.pv.rated_w = 6000.0
dg2.pv.v_mp = 380.0
dg2.pv.v_oc = 450.0
dg2.vi.bandwidth_gain = 1.0
dg2.vi.l_pos = 0.25e-3
dg2.vi.r_h11 = 0.25
dg2.vi.r_h3 = 1.5
dg2.vi.r_h5 = 0.5
dg2.vi.r_h7 = 0.5
dg2.vi.r_neg = 1.0
dg2.vi.r_pos = 0.15
dg2.vr.ki = 0.05
dg2.vr.kp = 0.002
dg2.vr.v_dc_ref = 600.0
events.irradiance = 
load.balanced_l = 0.060
load.balanced_r = 10.0
load.harmonics = -1:7.4:0.0, 3:3.1:0.0, -5:4.6:0.0, 7:2.75:0.0, -11:1.3:0.0
load.step_scale = 1.0
load.step_time = off
load.unbalanced_r_a = 14.0
outputs.channels = all
outputs.sample_dt = 1e-4
pll.band = 0.5
pll.ki = 4230.0
pll.kp = 92.0
scenario.name = baseline
solver.dt = 50e-6
solver.duration = 8.0
solver.startup_ramp = 0.25
system.omega = 370.0
system.v_rms = 120.0
vcc.comm_delay = 0.0
vcc.effort_limit = 250.0
vcc.enable_at = 2.0
vcc.extraction_cutoff_hz = 5.0
vcc.extraction_damping = 2.5
vcc.hd_ref = 0.2
vcc.output_limit = 80.0
vcc.period = 1e-3
vcc.pi_h11 = 0.5:5.0
vcc.pi_h3 = 0.5:15.0
vcc.pi_h5 = 5.0:30.0
vcc.pi_h7 = 5.0:25.0
vcc.pi_neg1 = 0.5:20.0
vcc.vuf_ref = 0.2
"""
