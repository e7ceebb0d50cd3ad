import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvisland import cli
from pvisland.config import (
    DEFAULTS,
    echo,
    from_mapping,
    load_config,
    parse_text,
)
from pvisland.errors import ConfigurationError
from pvisland.runner import build_compensator, build_controllers, build_plant


class TestParsing:
    def test_empty_text_is_the_calibrated_baseline(self):
        cfg = parse_text("")
        assert cfg.name == "baseline"
        assert cfg.dt == 50e-6
        assert cfg.omega == 370.0
        assert cfg.v_amp == pytest.approx(math.sqrt(2.0) * 120.0)
        assert cfg.dgs[0].m_p == pytest.approx(12e-4)
        assert cfg.dgs[1].m_p == pytest.approx(6e-4)
        assert cfg.dgs[0].n_p == pytest.approx(2.0 * cfg.dgs[1].n_p)

    def test_scientific_notation_values_parse(self):
        cfg = parse_text("dg1.droop.n_p = 1e-3\n")
        assert cfg.dgs[0].n_p == 1e-3

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
        assert cfg.harmonics == [(-5, 2.0, 0.1), (7, 1.0, 0.0)]

    def test_zero_order_injection_rejected(self):
        with pytest.raises(ConfigurationError):
            from_mapping({"load.harmonics": "0:2.0"})

    def test_vcc_off_parses_to_none(self):
        cfg = from_mapping({"vcc.enable_at": "off"})
        assert cfg.vcc_enable_at is None

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
        assert cfg.dgs[0].prv_orders == (1, 3, 5)

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
        ("dg1.pv.v_mp", "460.0"),             # above pv.v_oc
        ("dg2.pv.i_mp", "18.0"),              # above pv.i_sc
        ("dg1.pv.rated_w", "2000.0"),         # below the maximum-power point
        ("dg2.pri.orders", "1,3,200"),        # beyond the control Nyquist rate
        ("dg1.prv.orders", "1,3,3,5"),        # a repeat doubles that order's resonant gain
        ("dg1.pri.orders", "1,1"),
        ("vcc.extraction_cutoff_hz", "200"),  # too fast for vcc.period
        ("control.period", "1e308"),          # ratio to solver.dt is inf
        ("solver.duration", "1e308"),         # tick count is inf
        ("solver.duration", "1e9"),           # run table larger than physical memory
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
    ])
    def test_cross_key_rule_names_the_key_to_change(self, flat, key):
        # the rule names the key to change, which is not the one set here
        with pytest.raises(ConfigurationError) as err:
            from_mapping(flat)
        assert err.value.key == key


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


class TestEcho:
    def test_round_trip_reproduces_config(self):
        cfg = from_mapping({"solver.duration": "2.0", "load.balanced_r": "7.5"})
        text = echo(cfg)
        again = parse_text(text)
        assert again.raw == cfg.raw

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
