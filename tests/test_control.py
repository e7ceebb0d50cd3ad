import dataclasses
import math

import numpy as np
import pytest

from pvisland.control import (
    BoostController,
    CurrentLoop,
    DcLinkRegulator,
    DroopControl,
    IncrementalConductanceMppt,
    PowerCalculator,
    VoltageLoop,
    DUTY_MAX,
    DUTY_MIN,
    MODE_MPPT,
    MODE_VR,
    virtual_impedance,
)
from pvisland.config import from_mapping
from pvisland.plant import Plant
from pvisland.params import DroopParams, PrGains, PvParams, pv_current
from pvisland.runner import build_controllers
from pvisland.signals import SequenceExtractor, resonator_table

DT = 50e-6
V_AMP = math.sqrt(2.0) * 120.0


def _components(pos=(0.0, 0.0), neg=(0.0, 0.0), **harm):
    """Sequence components in the extractor's order, as its ``components`` gives them."""
    comps = {1: pos, -1: neg, 3: (0.0, 0.0), -5: (0.0, 0.0), 7: (0.0, 0.0), -11: (0.0, 0.0)}
    for key, val in harm.items():
        comps[int(key.replace("hm", "-").replace("hp", ""))] = val
    return [comps[order] for order in SequenceExtractor().orders]


#: Unit 1's tracker, link-regulator and mode settings in the default scenario.
_BOOST = build_controllers(from_mapping({}))[0].boost
MPPT, VR, MODE = _BOOST.mppt.params, _BOOST.vr_params, _BOOST.mode_params


def _pr(kp, k1, kh):
    """PR gains with 2 rad/s wide resonators at orders 1, 3, 5 and 7."""
    return PrGains(kp, k1, kh, 2.0, (1, 3, 5, 7))


def _rows(loop, omega=370.0):
    """A loop's resonator coefficients at ``omega``."""
    return loop.pr.coefficients(resonator_table(loop.pr.orders, omega, DT), omega)


class TestPowerCalculator:
    def test_instantaneous_products(self):
        pc = PowerCalculator(2.0, DT)
        pc.step(170.0, 0.0, 10.0, 0.0)
        assert pc.p_inst == pytest.approx(2550.0, rel=1e-12)
        assert pc.q_inst == pytest.approx(0.0, abs=1e-12)

    def test_zero_current(self):
        pc = PowerCalculator(2.0, DT)
        p, q = pc.step(170.0, 0.0, 0.0, 0.0)
        assert (p, q) == (0.0, 0.0)

    def test_quadrature_current_reads_as_reactive(self):
        # current lagging the rotating voltage by 90 degrees: averaged
        # active power vanishes, reactive settles at 1.5*V*I
        pc = PowerCalculator(2.0, DT)
        w = 370.0
        for i in range(int(1.0 / DT)):
            t = i * DT
            p, q = pc.step(170.0 * math.cos(w * t), 170.0 * math.sin(w * t),
                           10.0 * math.sin(w * t), -10.0 * math.cos(w * t))
        assert abs(p) < 0.01 * 2550.0
        assert q == pytest.approx(1.5 * 170.0 * 10.0, rel=0.01)


class TestDroop:
    def _droop(self):
        return DroopControl(DroopParams(m_p=12e-4, n_p=1e-3), V_AMP, 370.0)

    def test_no_load_point(self):
        droop = self._droop()
        out = droop.step(0.0, 0.0, DT)
        assert droop.omega_ref == 370.0
        assert math.hypot(*out) == pytest.approx(V_AMP, rel=1e-12)

    def test_active_power_lowers_frequency(self):
        droop = self._droop()
        droop.step(1000.0, 0.0, DT)
        assert droop.omega_ref == pytest.approx(368.8, rel=1e-12)

    def test_reactive_power_lowers_amplitude(self):
        droop = self._droop()
        out = droop.step(0.0, 500.0, DT)
        assert math.hypot(*out) == pytest.approx(V_AMP - 0.5, rel=1e-12)

    def test_amplitude_clamp_flags(self):
        droop = self._droop()
        droop.step(0.0, 1e6, DT)
        assert droop.clamped
        assert droop.v_ref == pytest.approx(0.5 * V_AMP)

    def test_phase_accumulates_at_reference_rate(self):
        droop = self._droop()
        droop.step(1000.0, 0.0, DT)
        theta0 = droop.theta
        droop.step(1000.0, 0.0, DT)
        assert (droop.theta - theta0) % (2.0 * math.pi) == pytest.approx(368.8 * DT, rel=1e-9)


class TestVirtualImpedance:
    # harmonic resistances follow the extractor's harmonics: 3, -5, 7, -11
    def test_zero_current_zero_drop(self):
        assert virtual_impedance(_components(), 0.3, 0.5e-3 * 370.0, 0.4,
                                 [3.0, 1.0, 1.0, 0.5]) == (0.0, 0.0)

    def test_positive_sequence_cross_coupling(self):
        # hand arithmetic with the published numbers taken literally:
        # R = 0.3, L*w_f = 0.5 * 370 = 185, i = (10, 0)
        va, vb = virtual_impedance(_components(pos=(10.0, 0.0)), 0.3, 0.5 * 370.0, 0.0,
                                   [0.0] * 4)
        assert va == pytest.approx(3.0, rel=1e-12)
        assert vb == pytest.approx(1850.0, rel=1e-12)

    def test_harmonic_branch_is_purely_resistive(self):
        out = virtual_impedance(_components(hm5=(1.2, -1.6)), 0.0, 0.0, 0.0,
                                [0.0, 1.0, 0.0, 0.0])
        assert math.hypot(*out) == pytest.approx(2.0, rel=1e-12)
        assert out == pytest.approx((1.2, -1.6), rel=1e-12)

    def test_negative_sequence_branch(self):
        out = virtual_impedance(_components(neg=(5.0, -2.0)), 0.0, 0.0, 0.4, [0.0] * 4)
        assert out == pytest.approx((2.0, -0.8), rel=1e-12)


class TestVoltageLoop:
    def test_zero_error_keeps_zero_output(self):
        loop = VoltageLoop(_pr(0.05, 50.0, 20.0), 370.0, DT, i_limit=17.7)
        assert loop.step(0.0, 0.0, 0.0, 0.0, _rows(loop)) == (0.0, 0.0)

    def test_reference_clamp_preserves_direction(self):
        loop = VoltageLoop(_pr(10.0, 0.0, 0.0), 370.0, DT, i_limit=5.0)
        ia, ib = loop.step(3.0, 4.0, 0.0, 0.0, _rows(loop))
        assert loop.clamped
        assert math.hypot(ia, ib) == pytest.approx(5.0, rel=1e-12)
        assert ib / ia == pytest.approx(4.0 / 3.0, rel=1e-9)


class TestCurrentLoop:
    def test_zero_error_zero_modulation(self):
        loop = CurrentLoop(_pr(7.0, 200.0, 200.0), 370.0, DT)
        assert loop.step(0.0, 0.0, 0.0, 0.0, 600.0, _rows(loop)) == (0.0, 0.0, 0.0)

    def test_output_scales_inversely_with_link_voltage(self):
        def first_command(v_dc):
            loop = CurrentLoop(_pr(7.0, 0.0, 0.0), 370.0, DT)
            return loop.step(1.0, 0.0, 0.0, 0.0, v_dc, _rows(loop))[0]

        assert first_command(600.0) == pytest.approx(2.0 * first_command(1200.0), rel=1e-12)

    def test_collapsed_link_forces_zero(self):
        loop = CurrentLoop(_pr(7.0, 200.0, 200.0), 370.0, DT)
        m = loop.step(10.0, 0.0, 0.0, 0.0, 30.0, _rows(loop))
        assert loop.locked_out
        assert m == (0.0, 0.0, 0.0)


class TestMppt:
    def _static_rig(self, pv, v_dc=600.0):
        # frozen plant: terminal voltage follows the duty directly
        def observe(duty):
            v = (1.0 - duty) * v_dc
            return v, pv_current(min(v, pv.v_oc), 1.0, pv)
        return observe

    def test_holds_at_exact_peak(self):
        pv = PvParams(3000.0, 450.0, 8.8, 380.0, 3000.0 / 380.0, 1.0)
        observe = self._static_rig(pv)
        # find the true peak duty by brute force first
        duties = np.linspace(0.05, 0.9, 4001)
        powers = [observe(d)[0] * observe(d)[1] for d in duties]
        d_star = duties[int(np.argmax(powers))]
        mppt = IncrementalConductanceMppt(MPPT, duty_init=d_star)
        v, i = observe(d_star)
        mppt.step(v, i)
        d_before = mppt.duty
        v, i = observe(mppt.duty)
        mppt.step(v, i)
        assert abs(mppt.duty - d_before) <= MPPT.duty_step + 1e-12

    def test_converges_to_brute_force_peak(self):
        pv = PvParams(3000.0, 450.0, 8.8, 380.0, 3000.0 / 380.0, 1.0)
        observe = self._static_rig(pv)
        duties = np.linspace(0.05, 0.9, 8001)
        powers = [observe(d)[0] * observe(d)[1] for d in duties]
        d_star = duties[int(np.argmax(powers))]
        mppt = IncrementalConductanceMppt(MPPT, duty_init=0.1)
        for _ in range(2000):  # 2 s of ticks at the 1 ms rate
            v, i = observe(mppt.duty)
            mppt.step(v, i)
        assert abs(mppt.duty - d_star) <= 2.0 * MPPT.duty_step

    def test_flat_voltage_branch_uses_current_only(self):
        mppt = IncrementalConductanceMppt(MPPT, duty_init=0.4)
        mppt.step(380.0, 7.0)
        mppt.step(380.0, 7.5)  # same voltage, more current: no division happens
        assert mppt.duty == pytest.approx(0.4 - MPPT.duty_step, rel=1e-12)

    def test_duty_respects_clamp(self):
        params = dataclasses.replace(MPPT, duty_step=0.2)
        mppt = IncrementalConductanceMppt(params, duty_init=0.9)
        for _ in range(10):
            mppt.step(380.0, 7.0)
            mppt.step(380.0, 8.0)
        assert DUTY_MIN <= mppt.duty <= DUTY_MAX


class TestDcLinkRegulator:
    def test_zero_error_keeps_integral(self):
        reg = DcLinkRegulator(VR, DT)
        reg.reset(0.4)
        duty = reg.step(600.0)
        assert duty == pytest.approx(0.4, rel=1e-12)

    def test_constant_error_integrates(self):
        reg = DcLinkRegulator(dataclasses.replace(VR, kp=0.0, ki=0.05), 1e-3)
        reg.reset(0.4)
        for _ in range(1000):
            duty = reg.step(590.0)
        assert duty == pytest.approx(0.4 + 0.05 * 10.0 * 1.0, rel=1e-9)

    def test_antiwindup_freezes_integral_at_clamp(self):
        reg = DcLinkRegulator(dataclasses.replace(VR, kp=0.0, ki=10.0), 1e-3)
        reg.reset(0.4)
        for _ in range(10000):
            reg.step(0.0)
        assert reg.integral <= DUTY_MAX + 1e-9

    def test_closed_loop_settles_on_link_model(self):
        # integrator plant: C dv/dt = p_in(duty) - p_load; array power grows
        # with duty on the curtailment side, so lowering the duty sheds power
        reg = DcLinkRegulator(VR, 1e-3)
        reg.reset(0.3)
        v = 620.0
        c = 2350e-6
        for _ in range(int(2.0 / 1e-3)):
            duty = reg.step(v)
            p_surplus = 3000.0 * duty / 0.45 - 2000.0
            v += 1e-3 * p_surplus / (c * v)
            v = max(v, 1.0)
        assert v == pytest.approx(600.0, rel=0.02)


class TestBoostModeMachine:
    def _controller(self, duty=0.37):
        return BoostController(MPPT, VR, MODE, duty, DT)

    def test_boots_in_regulation_then_hands_to_tracking(self):
        ctl = self._controller()
        t = 0.0
        for _ in range(5000):
            ctl.step(380.0, 7.0, 580.0, t)
            t += DT
        assert ctl.mode == MODE_MPPT
        assert ctl.transitions[0][1] == "VR->MPPT"

    def test_steady_link_below_threshold_stays_tracking(self):
        ctl = self._controller()
        t = 0.0
        for _ in range(5000):  # leave regulation first
            ctl.step(380.0, 7.0, 580.0, t)
            t += DT
        for _ in range(5000):
            ctl.step(380.0, 7.0, 590.0, t)
            t += DT
        assert ctl.mode == MODE_MPPT

    def test_overvoltage_enters_regulation(self):
        ctl = self._controller()
        t = 0.0
        for _ in range(5000):
            ctl.step(380.0, 7.0, 580.0, t)
            t += DT
        ctl.step(380.0, 7.0, 606.0, t)
        assert ctl.mode == MODE_VR
        assert ctl.transitions[-1][1] == "MPPT->VR"

    def test_chatter_across_reference_causes_no_transitions(self):
        ctl = self._controller()
        t = 0.0
        for _ in range(5000):
            ctl.step(380.0, 7.0, 580.0, t)
            t += DT
        n_before = len(ctl.transitions)
        for i in range(40000):  # 2 s of +-1 V wobble around the reference
            v_dc = 600.0 + math.sin(2.0 * math.pi * 7.0 * t)
            ctl.step(380.0, 7.0, v_dc, t)
            t += DT
        assert len(ctl.transitions) == n_before

    def test_transitions_respect_hold_time(self):
        ctl = self._controller()
        t = 0.0
        for _ in range(5000):
            ctl.step(380.0, 7.0, 580.0, t)
            t += DT
        # run a synthetic trace wandering across both thresholds
        for i in range(int(3.0 / DT)):
            v_dc = 600.0 + 15.0 * math.sin(2.0 * math.pi * 2.0 * t)
            ctl.step(380.0, 7.0, v_dc, t)
            t += DT
        times = [tt for tt, _ in ctl.transitions]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g >= 0.1 - 1e-9 for g in gaps)

    def test_exit_hold_lasts_exactly_its_ticks(self):
        # on the tick clock t = k * DT, the hand-over comes exit_hold / DT
        # ticks after the first tick below the threshold, whatever that tick
        hold = round(MODE.exit_hold / DT)
        assert hold == 2000
        held = {}
        for start in range(6000, 6041):
            ctl = self._controller()
            for k in range(start + 2 * hold):
                ctl.step(380.0, 7.0, 600.0 if k < start else 580.0, k * DT)
                if ctl.mode == MODE_MPPT:
                    break
            assert ctl.transitions == [(k * DT, "VR->MPPT")]
            held[start] = k - start
        assert held == {start: hold for start in held}


class TestCurrentLoopClosedLoop:
    def test_inductor_current_tracks_rotating_reference(self):
        # current loop alone against unit 1's default power stage and a resistive bank
        cfg = from_mapping({"load.balanced_r": "9.6", "load.balanced_l": "off",
                            "load.unbalanced_r_a": "off", "load.harmonics": ""})
        plant = Plant(dataclasses.replace(cfg, dgs=cfg.dgs[:1]))
        loop = CurrentLoop(_pr(7.0, 600.0, 200.0), 370.0, DT)
        w = 370.0
        amp_ref = 10.0
        # the fundamental resonator envelope settles with a 0.5 s constant
        for i in range(int(2.5 / DT)):
            t = i * DT
            (ila, ilb, _, _, _, _, v_dc, _, _), = plant.measurements(w * t)[1]
            m = loop.step(amp_ref * math.cos(w * t), amp_ref * math.sin(w * t),
                          ila, ilb, v_dc, _rows(loop, w))
            plant.step([1.0 - 380.0 / 600.0], [m], w * t)
        i_l = plant.network.inverter_current(0)
        assert math.hypot(*i_l) == pytest.approx(amp_ref, rel=0.02)
