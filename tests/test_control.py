import math
from collections import deque

import numpy as np
import pytest

from pvisland.control import (
    BoostController,
    CurrentLoop,
    VoltageLoop,
    DUTY_MAX,
    DUTY_MIN,
    MODE_MPPT,
    MODE_VR,
)
from pvisland import cli
from pvisland.config import channel_names, from_mapping, recorded_rows
from pvisland.plant import Plant
from pvisland.vcc import CentralCompensator, DqExtractionBank
from pvisland.params import HARMONIC_ORDERS, POWER_FILTER_HZ, PrGains, PvParams, pv_current, ticks
from pvisland.runner import (UNIT_FLAGS, VCC_FLAGS, FlagLog, build_compensator,
                             build_controllers, build_plant, run_simulation)
from pvisland.errors import SimulationDivergence
from pvisland.signals import (LowPass1, Pll, SequenceExtractor, clarke_xy, inverse_clarke_xy,
                              inverse_park_xy, table_kernel)

DT = 50e-6
OMEGA = 370.0
V_AMP = math.sqrt(2.0) * 120.0


def _drop(r_pos, x_pos, r_neg, r_harmonics, pos=(0.0, 0.0), neg=(0.0, 0.0), **harm):
    """The virtual-impedance drop an extractor step sums, its components set to the given pairs.

    ``r_harmonics`` follows the extractor's harmonics.  The band states are
    set so that each component reads its pair; a table of zero tangents
    then holds every band where it is, so the step, compiled with this
    impedance, reads the state as set.
    """
    comps = {1: pos, -1: neg, 3: (0.0, 0.0), -5: (0.0, 0.0), 7: (0.0, 0.0), -11: (0.0, 0.0)}
    for key, val in harm.items():
        comps[int(key.replace("hm", "-").replace("hp", ""))] = val
    ext = SequenceExtractor()
    (va, vb), (qa, qb) = ext._v, ext._q
    for order, (x, y) in comps.items():
        j, sign = ext.bands.index(abs(order)), math.copysign(1.0, order)
        va[j] += x
        vb[j] += y
        qa[j] += sign * y
        qb[j] -= sign * x
    hold = [(0.0, band, j, ()) for j, band in enumerate(ext.bands)]
    drop = [(r_pos, x_pos, r_neg)] + [(math.copysign(1.0, o), r)
                                      for o, r in zip(HARMONIC_ORDERS, r_harmonics)]
    za, zb = table_kernel(hold, (), 0.0, drop)(ext, 0.0, 0.0, 370.0, DT)
    seq = ext.sequences()
    held = {1: seq.fundamental_pos, -1: seq.fundamental_neg, **seq.harmonic}
    assert {order: tuple(pair) for order, pair in held.items()} == comps
    return za, zb


#: Unit 1's tracker, link-regulator and mode settings in the default scenario.
_DG = from_mapping({}).dgs[0]
MPPT, VR, MODE = _DG.mppt, _DG.vr, _DG.mode


def _pr(kp, k1, kh):
    """PR gains with 2 rad/s wide resonators at orders 1, 3, 5 and 7."""
    return PrGains(kp, k1, kh, 2.0, (1, 3, 5, 7))


def _rows(loop, omega=370.0):
    """A loop's resonator transitions at ``omega``."""
    return loop.pr.transitions(omega, DT)


#: No virtual impedance and no start-up ramp: a unit's voltage reference is its droop output.
_BARE = {"solver.startup_ramp": "0", "dg1.vi.r_pos": "0", "dg1.vi.l_pos": "0",
         "dg1.vi.r_neg": "0", "dg1.vi.r_h3": "0", "dg1.vi.r_h5": "0", "dg1.vi.r_h7": "0",
         "dg1.vi.r_h11": "0"}


def _bare_unit():
    """Unit 1 (droop 12e-4 / 1e-3 at 370 rad/s and ``V_AMP``) with the ``_BARE`` settings."""
    return build_controllers(from_mapping(_BARE))[0]


def _row(voa=0.0, vob=0.0, ioa=0.0, iob=0.0):
    """A measurement row with the given output voltage and current pairs, the link at 600 V."""
    return (0.0, 0.0, voa, vob, ioa, iob, 600.0, 380.0, 7.0)


def _droop_output(ctl, row):
    """Step the bare unit ``ctl`` on ``row``; returns the droop's output pair.

    With no drop and no correction, the voltage loop's error is that pair
    minus the measured output voltage.
    """
    ctl.step(row, (0.0, 0.0), 0.0)
    ea, eb = ctl.voltage_loop.pr._e_prev
    return ea + row[2], eb + row[3]


def _at_powers(ctl, p, q):
    """Step the bare unit ``ctl`` at averaged powers ``p`` and ``q``; returns the droop output.

    The filters start settled at ``p`` and ``q``, and the row's
    instantaneous powers are ``p`` and ``q`` too.
    """
    ctl.p_avg = ctl.p_inst = p
    ctl.q_avg = ctl.q_inst = q
    return _droop_output(ctl, _row(100.0, 0.0, p / 150.0, -q / 150.0))


class TestPowerCalculator:
    """The unit step's power products and their 2 Hz averaging filters."""

    def test_instantaneous_products(self):
        ctl = _bare_unit()
        ctl.step(_row(170.0, 0.0, 10.0, 0.0), (0.0, 0.0), 0.0)
        assert ctl.p_inst == pytest.approx(2550.0, rel=1e-12)
        assert ctl.q_inst == pytest.approx(0.0, abs=1e-12)

    def test_zero_current(self):
        ctl = _bare_unit()
        ctl.step(_row(170.0, 0.0, 0.0, 0.0), (0.0, 0.0), 0.0)
        assert (ctl.p_avg, ctl.q_avg) == (0.0, 0.0)

    def test_quadrature_current_reads_as_reactive(self):
        # current lagging the rotating voltage by 90 degrees: averaged
        # active power vanishes, reactive settles at 1.5*V*I
        ctl = _bare_unit()
        w = 370.0
        for i in range(int(1.0 / DT)):
            t = i * DT
            ctl.step(_row(170.0 * math.cos(w * t), 170.0 * math.sin(w * t),
                          10.0 * math.sin(w * t), -10.0 * math.cos(w * t)), (0.0, 0.0), t)
        assert abs(ctl.p_avg) < 0.01 * 2550.0
        assert ctl.q_avg == pytest.approx(1.5 * 170.0 * 10.0, rel=0.01)


class TestDroop:
    """The unit step's droop: frequency and amplitude from the averaged powers."""

    def test_no_load_point(self):
        ctl = _bare_unit()
        out = _droop_output(ctl, _row())
        assert ctl.omega_ref == 370.0
        assert math.hypot(*out) == pytest.approx(V_AMP, rel=1e-12)

    def test_active_power_lowers_frequency(self):
        ctl = _bare_unit()
        _at_powers(ctl, 1000.0, 0.0)
        assert ctl.omega_ref == pytest.approx(368.8, rel=1e-12)

    def test_reactive_power_lowers_amplitude(self):
        out = _at_powers(_bare_unit(), 0.0, 500.0)
        assert math.hypot(*out) == pytest.approx(V_AMP - 0.5, rel=1e-12)

    def test_amplitude_clamp_flags(self):
        ctl = _bare_unit()
        _at_powers(ctl, 0.0, 1e6)
        assert ctl.droop_clamped
        assert ctl.v_ref == pytest.approx(0.5 * V_AMP)
        _at_powers(ctl, 0.0, -1e6)
        assert ctl.droop_clamped
        assert ctl.v_ref == pytest.approx(1.2 * V_AMP)
        _at_powers(ctl, 0.0, 500.0)
        assert not ctl.droop_clamped

    def test_phase_accumulates_at_reference_rate(self):
        ctl = _bare_unit()
        _at_powers(ctl, 1000.0, 0.0)
        theta0 = ctl.theta
        _at_powers(ctl, 1000.0, 0.0)
        assert (ctl.theta - theta0) % (2.0 * math.pi) == pytest.approx(368.8 * DT, rel=1e-9)


class TestVirtualImpedance:
    # harmonic resistances follow the extractor's harmonics: 3, -5, 7, -11
    def test_zero_current_zero_drop(self):
        assert _drop(0.3, 0.5e-3 * 370.0, 0.4, [3.0, 1.0, 1.0, 0.5]) == (0.0, 0.0)

    def test_positive_sequence_cross_coupling(self):
        # hand arithmetic with the published numbers taken literally:
        # R = 0.3, L*w_f = 0.5 * 370 = 185, i = (10, 0)
        va, vb = _drop(0.3, 0.5 * 370.0, 0.0, [0.0] * 4, pos=(10.0, 0.0))
        assert va == pytest.approx(3.0, rel=1e-12)
        assert vb == pytest.approx(1850.0, rel=1e-12)

    def test_harmonic_branch_is_purely_resistive(self):
        out = _drop(0.0, 0.0, 0.0, [0.0, 1.0, 0.0, 0.0], hm5=(1.2, -1.6))
        assert math.hypot(*out) == pytest.approx(2.0, rel=1e-12)
        assert out == pytest.approx((1.2, -1.6), rel=1e-12)

    def test_negative_sequence_branch(self):
        out = _drop(0.0, 0.0, 0.4, [0.0] * 4, neg=(5.0, -2.0))
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


def _tracker(duty, mppt=MPPT):
    """A boost machine whose tracker the test drives through ``_track``."""
    return BoostController(mppt, VR, MODE, duty, DT)


def _regulating(vr=VR, duty=0.4, dt=DT):
    """A boost machine that stays in regulation: no link is below an infinite exit margin."""
    return BoostController(MPPT, vr, MODE._replace(exit_vr_margin=math.inf),
                           duty, dt)


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
        mppt = _tracker(d_star)
        v, i = observe(d_star)
        mppt._track(v, i)
        d_before = mppt.duty
        v, i = observe(mppt.duty)
        mppt._track(v, i)
        assert abs(mppt.duty - d_before) <= MPPT.duty_step + 1e-12

    def test_converges_to_brute_force_peak(self):
        pv = PvParams(3000.0, 450.0, 8.8, 380.0, 3000.0 / 380.0, 1.0)
        observe = self._static_rig(pv)
        duties = np.linspace(0.05, 0.9, 8001)
        powers = [observe(d)[0] * observe(d)[1] for d in duties]
        d_star = duties[int(np.argmax(powers))]
        mppt = _tracker(0.1)
        for _ in range(2000):  # 2 s of ticks at the 1 ms rate
            v, i = observe(mppt.duty)
            mppt._track(v, i)
        assert abs(mppt.duty - d_star) <= 2.0 * MPPT.duty_step

    def test_flat_voltage_branch_uses_current_only(self):
        mppt = _tracker(0.4)
        mppt._track(380.0, 7.0)
        mppt._track(380.0, 7.5)  # same voltage, more current: no division happens
        assert mppt.duty == pytest.approx(0.4 - MPPT.duty_step, rel=1e-12)

    def test_duty_respects_clamp(self):
        params = MPPT._replace(duty_step=0.2)
        mppt = _tracker(0.9, params)
        for _ in range(10):
            mppt._track(380.0, 7.0)
            mppt._track(380.0, 8.0)
        assert DUTY_MIN <= mppt.duty <= DUTY_MAX


class TestDcLinkRegulator:
    # A string at 0 V puts the entry floor at 50 V, so the ceiling is
    # 1 - 50 / v_dc: above every duty these tests reach but the anti-windup
    # test's, which it clamps.

    def test_zero_error_keeps_integral(self):
        reg = _regulating()
        duty = reg.step(0.0, 0.0, 600.0, 0.0)
        assert duty == pytest.approx(0.4, rel=1e-12)

    def test_constant_error_integrates(self):
        reg = _regulating(VR._replace(kp=0.0, ki=0.05), dt=1e-3)
        for k in range(1000):
            duty = reg.step(0.0, 0.0, 590.0, k * 1e-3)
        assert reg.mode == MODE_VR
        assert duty == pytest.approx(0.4 + 0.05 * 10.0 * 1.0, rel=1e-9)

    def test_antiwindup_freezes_integral_at_clamp(self):
        # each step would add 0.1 to the duty: it stops at the ceiling, and
        # the integrator at the last duty under it
        reg = _regulating(VR._replace(kp=0.0, ki=10.0), dt=1e-3)
        for k in range(10000):
            duty = reg.step(0.0, 0.0, 590.0, k * 1e-3)
        assert duty == 1.0 - 50.0 / 590.0
        assert reg._integral == pytest.approx(0.9, rel=1e-12)
        assert reg._integral <= duty <= DUTY_MAX

    def test_closed_loop_settles_on_link_model(self):
        # integrator plant: C dv/dt = p_in(duty) - p_load; array power grows
        # with duty on the curtailment side, so lowering the duty sheds power
        reg = _regulating(duty=0.3, dt=1e-3)
        v = 620.0
        c = 2350e-6
        for k in range(int(2.0 / 1e-3)):
            duty = reg.step(0.0, 0.0, v, k * 1e-3)
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

    def test_hand_overs_carry_the_duty(self):
        # a drooping string, so that the tracker has a gradient to move on
        ctl = self._controller()
        k = 0

        def tick(v_dc):
            nonlocal k
            ctl.step(380.0 - 0.01 * k, 7.0, v_dc, k * DT)
            k += 1

        for _ in range(2):  # the second round hands over with a sample from before
            while ctl.mode == MODE_VR:  # a sagging link hands over to tracking
                last = ctl.duty
                tick(580.0)
            # the tracker's first sample only records; its first move is one
            # step from the regulator's last duty
            for _ in range(ctl._mppt_every):
                tick(580.0)
                assert ctl.duty == last
            while ctl.duty == last:
                tick(580.0)
            assert ctl.duty in (last - MPPT.duty_step, last + MPPT.duty_step)
            for _ in range(200):
                tick(580.0)
            # an overvolted link: the integrator starts from the tracker's last duty
            last = ctl.duty
            v_dc = VR.v_dc_ref + MODE.enter_vr_margin + 1.0
            e = VR.v_dc_ref - v_dc
            tick(v_dc)
            assert ctl.transitions[-1] == ((k - 1) * DT, "MPPT->VR")
            assert ctl.duty == VR.kp * e + (last + VR.ki * e * DT)
            assert ctl._integral == last + VR.ki * e * DT
        assert [what for _, what in ctl.transitions] == ["VR->MPPT", "MPPT->VR"] * 2

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
        plant = Plant(cfg._replace(dgs=cfg.dgs[:1]))
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
        i_l = plant.network.x[0:2]  # the filter inductor current
        assert math.hypot(*i_l) == pytest.approx(amp_ref, rel=0.02)


class TestDgController:
    def test_droop_frequency_out_of_range_is_a_divergence(self):
        # a row no network produces: the droop frequency falls through zero at tick 11
        ctl = build_controllers(from_mapping({}))[0]
        row = (0.0, 0.0, 300.0, 0.0, 1e5, 0.0, 600.0, 300.0, 10.0)
        with pytest.raises(SimulationDivergence, match="dg1 droop frequency") as err:
            for tick in range(100):
                ctl.step(row, (0.0, 0.0), tick * DT)
        assert tick == 11
        assert ctl.omega_ref == pytest.approx(-18.8, abs=0.05)
        assert err.value.t_last_good == pytest.approx(10 * DT, rel=1e-12)


# ---------------------------------------------------------------------------
# Oracle: the block chain the unit step, the PLL, the corrections and the
# plant step were written through from.  Each piece below is the call-based
# code they replaced, with its min/max clamps; the comparisons are by repr,
# so a NaN or a signed zero that differs shows.
# ---------------------------------------------------------------------------

class _PowerCalculator:
    def __init__(self, cutoff_hz, dt):
        self._p_filt = LowPass1(cutoff_hz, dt)
        self._q_filt = LowPass1(cutoff_hz, dt)
        self.p_inst = 0.0
        self.q_inst = 0.0

    def step(self, va, vb, ia, ib):
        self.p_inst = 1.5 * (va * ia + vb * ib)
        self.q_inst = 1.5 * (vb * ia - va * ib)
        return self._p_filt.step(self.p_inst), self._q_filt.step(self.q_inst)


class _DroopControl:
    def __init__(self, params, v_amp, omega):
        self.params = params
        self.v_amp = v_amp
        self.omega = omega
        self.theta = 0.0
        self.omega_ref = omega
        self.v_ref = v_amp
        self.clamped = False

    def step(self, p_avg, q_avg, dt):
        par = self.params
        v_amp = self.v_amp
        self.omega_ref = self.omega - par.m_p * p_avg
        v_ref = v_amp - par.n_p * q_avg
        lo, hi = 0.5 * v_amp, 1.2 * v_amp
        self.clamped = not (lo <= v_ref <= hi)
        self.v_ref = min(max(v_ref, lo), hi)
        self.theta = (self.theta + self.omega_ref * dt) % (2.0 * math.pi)
        return self.v_ref * math.cos(self.theta), self.v_ref * math.sin(self.theta)


def _voltage_loop_step(loop, ref_a, ref_b, va, vb, rows):
    ia, ib = loop.pr.step_pair(ref_a - va, ref_b - vb, rows)
    mag = math.hypot(ia, ib)
    loop.clamped = mag > loop.i_limit
    if loop.clamped:
        scale = loop.i_limit / mag
        ia *= scale
        ib *= scale
    return ia, ib


def _current_loop_step(loop, ref_a, ref_b, ia, ib, v_dc, rows):
    va, vb = loop.pr.step_pair(ref_a - ia, ref_b - ib, rows)
    loop.locked_out = v_dc < loop.V_DC_LOCKOUT
    if loop.locked_out:
        return 0.0, 0.0, 0.0
    half = v_dc / 2.0
    return inverse_clarke_xy(va / half, vb / half)


def _regulator_step(boost, v_dc, ceiling, seen=None):
    """The regulation in ``BoostController.step``; adds the branch it takes to ``seen``."""
    kp, ki, ref, _, _ = boost._consts
    hi = min(DUTY_MAX, ceiling)
    e = ref - v_dc
    candidate = boost._integral + ki * e * boost.dt
    duty = kp * e + candidate
    if DUTY_MIN <= duty <= hi:
        boost._integral = candidate
        branch = "in range"
    else:
        duty = min(max(duty, DUTY_MIN), hi)
        branch = "at the floor" if duty == DUTY_MIN else "at the ceiling"
    if seen is not None:
        seen.add(branch)
        if hi < DUTY_MAX:
            seen.add("ceiling below the range's top")
    return duty


def _boost_step(boost, v_pv, i_pv, v_dc, t, seen=None):
    _, _, ref, enter_margin, exit_margin = boost._consts
    if boost.mode == MODE_MPPT:
        if v_dc > ref + enter_margin:
            boost.mode = MODE_VR
            boost._integral = boost.duty
            boost._vr_vpv_floor = max(v_pv - boost.VPV_FLOOR_MARGIN, 50.0)
            boost.transitions.append((t, f"{MODE_MPPT}->{MODE_VR}"))
    else:
        boost._below = boost._below + 1 if v_dc < ref - exit_margin else 0
        if boost._below > boost._hold:
            boost.mode = MODE_MPPT
            boost._v_prev = None
            boost.transitions.append((t, f"{MODE_VR}->{MODE_MPPT}"))
            boost._below = 0
    if boost.mode == MODE_MPPT:
        boost._mppt_count = (boost._mppt_count + 1) % boost._mppt_every
        if boost._mppt_count == 0:
            boost._track(v_pv, i_pv)
    else:
        if boost._vr_vpv_floor is None:
            boost._vr_vpv_floor = max(v_pv - boost.VPV_FLOOR_MARGIN, 50.0)
        ceiling = max(1.0 - boost._vr_vpv_floor / max(v_dc, 50.0), DUTY_MIN)
        if seen is not None and ceiling == DUTY_MIN:
            seen.add("ceiling at the range's floor")
        boost.duty = _regulator_step(boost, v_dc, ceiling, seen)
    return boost.duty


class _BlockChain:
    """A unit step as the chain of block calls, on a second controller of the same unit."""

    def __init__(self, ctl, cfg, dg):
        self.ctl = ctl
        self.power = _PowerCalculator(POWER_FILTER_HZ, ctl.dt)
        self.droop = _DroopControl(dg.droop, cfg.v_amp, cfg.omega)
        self.seen = set()

    def step(self, row, v_c, t):
        c = self.ctl
        dt = c.dt
        ila, ilb, voa, vob, ioa, iob, v_dc, v_pv, i_pv = row
        p_avg, q_avg = self.power.step(voa, vob, ioa, iob)
        da, db = self.droop.step(p_avg, q_avg, dt)
        if t < c.startup_ramp:
            ramp = t / c.startup_ramp
            da *= ramp
            db *= ramp
        za, zb, v_rows, i_rows = c.extractor._rebuild(ioa, iob, self.droop.omega_ref, dt)
        ra, rb = da - za + v_c[0], db - zb + v_c[1]
        ia, ib = _voltage_loop_step(c.voltage_loop, ra, rb, voa, vob, v_rows)
        m = _current_loop_step(c.current_loop, ia, ib, ila, ilb, v_dc, i_rows)
        return _boost_step(c.boost, v_pv, i_pv, v_dc, t, self.seen), m

    def state(self):
        pc, dr = self.power, self.droop
        return (pc._p_filt._y, pc._q_filt._y, pc.p_inst, pc.q_inst,
                dr.omega_ref, dr.v_ref, dr.theta, dr.clamped)


def _unit_state(ctl):
    return (ctl.p_avg, ctl.q_avg, ctl.p_inst, ctl.q_inst,
            ctl.omega_ref, ctl.v_ref, ctl.theta, ctl.droop_clamped)


def _block_states(ctl):
    """Every state the unit's blocks hold."""
    ext, vl, cl, boost = ctl.extractor, ctl.voltage_loop, ctl.current_loop, ctl.boost
    return (ext._u_prev, ext._v, ext._q,
            vl.clamped, vl.pr._e_prev, vl.pr._x1, vl.pr._x2,
            cl.locked_out, cl.pr._e_prev, cl.pr._x1, cl.pr._x2,
            boost.mode, boost.duty, boost._integral, boost._below, boost._vr_vpv_floor,
            boost.transitions, boost._v_prev, boost._i_prev)


def _pll_step(pll, v, dt):
    x, y = v
    amp = math.hypot(x, y)
    if amp < pll.AMP_FLOOR:
        pll._e_prev = 0.0
        pll.theta = (pll.theta + pll.omega * dt) % (2.0 * math.pi)
        return pll.theta, pll.omega
    sin_t = math.sin(pll.theta)
    cos_t = math.cos(pll.theta)
    e = (-x * sin_t + y * cos_t) / amp
    pll._integral += 0.5 * pll.ki * dt * (e + pll._e_prev)
    pll._e_prev = e
    omega = pll._omega_ff + pll.kp * e + pll._integral
    omega = min(max(omega, pll.omega_min), pll.omega_max)
    pll.omega = omega
    pll.theta = (pll.theta + omega * dt) % (2.0 * math.pi)
    return pll.theta, pll.omega


def _pll_state(pll):
    return pll.theta, pll.omega, pll._integral, pll._e_prev


def _correction_from(comp, efforts, theta):
    a = 0.0
    b = 0.0
    for c, (d, q) in efforts.items():
        if d == 0.0 and q == 0.0:
            continue
        x, y = inverse_park_xy(d, q, c * theta)
        a += x
        b += y
    lim = comp._output_limit
    out = []
    for share in comp.shares:
        ua = a * share
        ub = b * share
        if not (-lim <= ua <= lim and -lim <= ub <= lim):
            comp.clamped = True
            ua, ub = min(max(ua, -lim), lim), min(max(ub, -lim), lim)
        out.append((ua, ub))
    return out


def _feeder_loss(net, x):
    p = 0.0
    for d, (_, fdr) in enumerate(net.stages):
        b = net.STATES_PER_DG * d + 4
        fda, fdb = x[b], x[b + 1]
        p += fdr.r * (fda * fda + fdb * fdb)
    return 1.5 * p


def _plant_step(plant, duties, modulations, theta_load):
    dt = plant.dt
    net = plant.network
    sides = plant.dc_sides
    n = net.STATES_PER_DG
    ih = net.inject(theta_load)
    v_inv_ab = []
    for d, (ma, mb, mc) in enumerate(modulations):
        sat = not (-1.0 <= ma <= 1.0 and -1.0 <= mb <= 1.0 and -1.0 <= mc <= 1.0)
        if sat:
            ma, mb, mc = (min(max(m, -1.0), 1.0) for m in (ma, mb, mc))
        plant.saturated[d] = sat
        v_dc = sides[d].v_dc
        va, vb, vc = ma * v_dc / 2.0, mb * v_dc / 2.0, mc * v_dc / 2.0
        v_inv_ab.append(clarke_xy(va, vb, vc))
    x = net.x
    bus = net.bus(x, ih)
    y00, y01, y10, y11 = net._y2
    i_res = y00 * bus[0] + y01 * bus[1], y10 * bus[0] + y11 * bus[1]
    residual = net.kcl_residual(bus, i_res)
    if residual > plant.max_kcl_residual:
        plant.max_kcl_residual = residual
    p_res, p_harm = net.load_power(bus, i_res, ih)
    p_feed = _feeder_loss(net, x)
    p_in = 0.0
    for side in sides:
        p_in += side.v_pv * side.i_pv
    p_out = p_res + p_harm + p_feed
    if plant._p_in_prev is not None:
        plant.energy_in += 0.5 * dt * (p_in + plant._p_in_prev)
        plant.energy_out += 0.5 * dt * (p_out + plant._p_out_prev)
    else:
        plant.energy_in += dt * p_in
        plant.energy_out += dt * p_out
    plant._p_in_prev = p_in
    plant._p_out_prev = p_out
    x1 = net.step([v for pair in v_inv_ab for v in pair], ih)
    plant.steps += 1
    for d, side in enumerate(sides):
        b = n * d
        ila = 0.5 * (x1[b] + x[b])
        ilb = 0.5 * (x1[b + 1] + x[b + 1])
        va, vb = v_inv_ab[d]
        side.step(duties[d], 1.5 * (va * ila + vb * ilb), dt)
    plant._check_bounds(x1)


def _plant_state(plant):
    return (plant.network.x, plant.saturated, plant.max_kcl_residual, plant.energy_in,
            plant.energy_out, [(s.v_pv, s.i_boost, s.v_dc, s.i_pv) for s in plant.dc_sides])


def _old_run(cfg):
    """What ``run_simulation`` records for ``cfg``, through the tick's old glue.

    The sample row calls ``inverse_clarke_xy``, every unit's flags go to
    ``FlagLog.update`` on every tick, and the plant steps through
    ``_plant_step``; no CSV is written.  Returns the table, the flag log,
    its dropped edges, the mode transitions, the energy audit in percent
    and the largest KCL residual.
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
    dt_ctl = cfg.control_period
    n_sub = ticks(dt_ctl, cfg.dt)
    n_ticks = ticks(cfg.duration, dt_ctl)
    vcc_every = ticks(vcc.period, dt_ctl)
    sample_every = ticks(cfg.sample_dt, dt_ctl)
    enable_tick = n_ticks if vcc.enable_at is None else ticks(vcc.enable_at, dt_ctl)
    load_tick = n_ticks if cfg.load.step_time is None else ticks(cfg.load.step_time, dt_ctl)
    events = deque(sorted((ticks(t, dt_ctl), d, g) for t, d, g in cfg.irradiance_events))
    delay_ticks = ticks(vcc.comm_delay, dt_ctl)
    table = np.zeros((recorded_rows(cfg), 1 + len(channel_names(len(cfg.dgs)))))
    flags = FlagLog({"vcc": VCC_FLAGS, **{ctl.name: UNIT_FLAGS for ctl in controllers}})
    zero_vcs = [(0.0, 0.0)] * len(controllers)
    duties = [0.0] * len(controllers)
    mods = [(0.0, 0.0, 0.0)] * len(controllers)
    in_flight = deque()
    efforts = None
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
        if vcc_tick or sample_tick:
            v_pcc_abc = inverse_clarke_xy(*v_pcc_ab)
        if vcc_tick:
            extracted = bank.step(v_pcc_abc, theta, vcc.period)
            if vcc_active:
                in_flight.append((tick + delay_ticks, comp.step(extracted)))
            else:
                comp.measure(extracted)
        while in_flight and in_flight[0][0] <= tick:
            efforts = in_flight.popleft()[1]
        vc_log = zero_vcs if efforts is None else comp.correction_from(efforts, theta)
        if vcc_active and vcc_tick:
            flags.update(t, "vcc", (comp.clamped, not comp.indices_valid))
            comp.clamped = False
        for d, (ctl, row, v_c) in enumerate(zip(controllers, rows, vc_log)):
            duties[d], mods[d] = ctl.step(row, v_c, t)
        if sample_tick:
            values = [t, *v_pcc_abc]
            for ctl, row, duty in zip(controllers, rows, duties):
                _, _, _, _, ioa, iob, v_dc, v_pv, _ = row
                values += (ctl.p_avg, ctl.q_avg, v_dc, v_pv, duty,
                           1.0 if ctl.boost.mode == MODE_VR else 0.0, ctl.omega_ref,
                           *inverse_clarke_xy(ioa, iob))
            values += [row[7] * row[8] for row in rows]
            values += (1.0 if vcc_active else 0.0, comp.indices[-1],
                       *map(comp.indices.__getitem__, HARMONIC_ORDERS))
            for v_c in vc_log:
                values += v_c
            table[tick // sample_every] = values
        pll.step(v_pcc_ab, dt_ctl)
        for sub in range(n_sub):
            _plant_step(plant, duties, mods, theta + omega * ((sub + 0.5) * cfg.dt))
        for ctl, saturated in zip(controllers, plant.saturated):
            flags.update(t, ctl.name, (ctl.droop_clamped, ctl.voltage_loop.clamped,
                                       ctl.current_loop.locked_out, saturated))
    mode_transitions = sorted((t_switch, ctl.name, what) for ctl in controllers
                              for t_switch, what in ctl.boost.transitions)
    return (table, flags.events, flags.dropped, mode_transitions,
            100.0 * plant.energy_audit_error(), plant.max_kcl_residual)


def _run_against_the_old_glue(cfg):
    """Runs ``cfg`` both ways, asserts every output equal; returns the old run's outputs."""
    result = run_simulation(cfg)
    old = _old_run(cfg)
    table = np.column_stack([result.times, *result.channels.values()])
    assert table.tobytes() == old[0].tobytes()
    assert repr((result.flags, result.flags_dropped, result.mode_transitions,
                 result.energy_audit_percent, result.max_kcl_residual)) == repr(old[1:])
    return old


#: Each preset's scheduled changes, moved into a 0.25 s run.
_EARLY_EVENTS = {"baseline": {"vcc.enable_at": "0.1"},
                 "loadstep": {"load.step_time": "0.15",
                              "events.irradiance": "0.1:1:0.5, 0.1:2:0.5"},
                 "sharing": {"vcc.enable_at": "0.1"}}


#: A start-up ramp that ends at tick 600 of the oracle's 2400.
_RAMPED = {"solver.startup_ramp": "0.03"}


def _unit_and_chain(keys=_RAMPED):
    cfg = from_mapping(keys)
    ctl, other = (build_controllers(cfg)[0] for _ in range(2))
    return ctl, _BlockChain(other, cfg, cfg.dgs[0])


def _assert_same(ctl, chain, got, want):
    assert repr(got) == repr(want)
    assert repr(_unit_state(ctl)) == repr(chain.state())
    assert repr(_block_states(ctl)) == repr(_block_states(chain.ctl))


class TestWrittenThrough:
    def test_unit_step_equals_the_block_chain(self):
        # 8 stretches of 300 ticks: a quiet unit under its start-up ramp, a
        # large lagging then leading current that drives the droop to both
        # clamps and the current reference to its limit, a collapsed link
        # (lockout, and a regulator ceiling at the range's floor), a link
        # above and below its reference (the regulator at its floor and at
        # its ceiling), then noisy rows
        ctl, chain = _unit_and_chain()
        rng = np.random.default_rng(3)
        currents = (10.0, 3000.0, -6000.0, 10.0, 10.0, 10.0, 30.0, 300.0)
        links = (600.0, 600.0, 600.0, 30.0, 700.0, 560.0, None, None)
        seen = set()
        for tick in range(2400):
            t = tick * DT
            stretch = tick // 300
            c, s = math.cos(OMEGA * t), math.sin(OMEGA * t)
            n = rng.normal(0.0, 1.0, 10).tolist()
            amp = currents[stretch]
            v_dc = 600.0 + 20.0 * n[8] if links[stretch] is None else links[stretch]
            row = (amp * s + n[4], -amp * c + n[5], 170.0 * c + n[0], 170.0 * s + n[1],
                   amp * s + n[2], -amp * c + n[3], v_dc, 380.0 + n[9], 7.0)
            v_c = (5.0 * n[6], 5.0 * n[7])
            _assert_same(ctl, chain, ctl.step(row, v_c, t), chain.step(row, v_c, t))
            droop = "low" if ctl.v_ref < V_AMP else "high"
            seen |= {("ramp", t < ctl.startup_ramp), ("current clamp", ctl.voltage_loop.clamped),
                     ("droop clamp", droop if ctl.droop_clamped else None),
                     ("lockout", ctl.current_loop.locked_out)}
        assert seen == {(what, flag) for what in ("ramp", "current clamp", "lockout")
                        for flag in (False, True)} | {("droop clamp", side)
                                                      for side in (None, "low", "high")}
        assert chain.seen == {"in range", "at the floor", "at the ceiling",
                              "ceiling below the range's top", "ceiling at the range's floor"}

    @pytest.mark.parametrize("case", ["droop", "link", "string at entry"])
    def test_nan_reaches_the_unit_clamps_as_min_max_does(self, case):
        ctl, chain = _unit_and_chain()
        row = _row(170.0, 0.0, 10.0, 0.0)
        if case == "droop":  # a NaN reactive average: the amplitude clamp sees NaN
            ctl.q_avg = chain.power._q_filt._y = math.nan
        elif case == "link":  # the ceiling's max, then the regulator's min and max see NaN
            row = row[:6] + (math.nan,) + row[7:]
        for tick in range(3):
            if case == "string at entry":  # a NaN floor: the ceiling is NaN, the link is not
                row = row[:7] + ((math.nan if tick == 0 else 380.0),) + row[8:]
            _assert_same(ctl, chain, ctl.step(row, (0.0, 0.0), tick * DT),
                         chain.step(row, (0.0, 0.0), tick * DT))
        assert math.isnan({"droop": ctl.v_ref, "link": ctl.boost.duty,
                           "string at entry": ctl.boost._vr_vpv_floor}[case])

    @pytest.mark.parametrize("v_dc", [600.0, 590.0, 700.0, 0.0, -math.inf, math.inf, math.nan])
    @pytest.mark.parametrize("ceiling", [None, 0.5, 2.0, DUTY_MIN, 0.0, -0.0, math.nan])
    def test_regulator_clamp_equals_min_max(self, v_dc, ceiling):
        # ``ceiling`` is 1 - floor / max(v_dc, 50) on a finite link, before
        # the machine lifts it to at least DUTY_MIN: the entry floor is set
        # to give it (None: no floor yet, so the first regulation tick takes
        # one from the string).  The zeros are lifted to DUTY_MIN, 2.0 is
        # above the range's top, and on an infinite or NaN link the ceiling
        # is NaN.
        boost, ref = (_regulating() for _ in range(2))
        if ceiling is not None:
            for b in (boost, ref):
                b._vr_vpv_floor = (1.0 - ceiling) * max(v_dc, 50.0)
        for tick in range(3):
            assert repr(boost.step(380.0, 7.0, v_dc, tick * DT)) == repr(
                _boost_step(ref, 380.0, 7.0, v_dc, tick * DT))
            assert repr(boost._integral) == repr(ref._integral)

    @pytest.mark.parametrize("v", [(170.0, 0.0), (math.nan, 0.0), (math.inf, 0.0),
                                   (0.0, -math.inf), (170.0, math.nan)])
    @pytest.mark.parametrize("band", [(370.0, 300.0, 400.0), (370.0, 370.0, 370.0),
                                      (370.0, math.nan, 400.0), (370.0, 300.0, math.nan),
                                      (0.0, 0.0, -0.0), (0.0, -0.0, 0.0)])
    def test_pll_clamp_equals_min_max(self, v, band):
        # (initial frequency, lower bound, upper bound): from 0 rad/s the
        # frequency falls below the signed-zero bands
        pll, ref = (Pll(50.0, 2000.0, *band) for _ in range(2))
        for tick in range(4):
            x, y = v if tick % 2 else (170.0 * math.cos(tick), -170.0 * math.sin(tick))
            assert repr(pll.step((x, y), DT)) == repr(_pll_step(ref, (x, y), DT))
            assert repr(_pll_state(pll)) == repr(_pll_state(ref))

    def test_zero_efforts_are_skipped_even_at_a_nan_angle(self):
        # rotated, a zero effort at a NaN angle would make every correction NaN
        comp, ref = (build_compensator(from_mapping({})) for _ in range(2))
        efforts = dict.fromkeys(comp.components, (0.0, 0.0))
        comp._effort_dq.update(efforts)
        got = comp.correction_from(comp._snapshot(), math.nan)
        assert repr(got) == repr(_correction_from(ref, efforts, math.nan))
        assert got == [(0.0, 0.0)] * len(comp.shares)

    def test_plant_pll_and_corrections_equal_the_old_calls(self):
        # two copies of the default system, closed loop, one stepped through
        # the old calls; effort snapshots vary, some components are zero, some
        # corrections clamp, and on every 50th tick the bridges saturate
        cfg = from_mapping({})
        plants = [build_plant(cfg) for _ in range(2)]
        units = [build_controllers(cfg) for _ in range(2)]
        comps = [build_compensator(cfg) for _ in range(2)]
        plls = [Pll(cfg.pll.kp, cfg.pll.ki, cfg.omega, cfg.omega * (1.0 - cfg.pll.band),
                    cfg.omega * (1.0 + cfg.pll.band)) for _ in range(2)]
        # (correction_from, Pll.step, Plant.step) as they are, then as they were
        calls = ((CentralCompensator.correction_from, Pll.step, Plant.step),
                 (_correction_from, _pll_step, _plant_step))
        rng = np.random.default_rng(9)
        dt = cfg.control_period
        clamps = saturations = 0
        for tick in range(2000):
            t = tick * dt
            efforts = {c: (0.0, 0.0) if rng.random() < 0.3 else
                       tuple(rng.normal(0.0, 60.0, 2).tolist()) for c in comps[0].components}
            comps[0]._effort_dq.update(efforts)
            outs = []
            for plant, ctls, comp, pll, held, (correction_from, pll_step, plant_step) in zip(
                    plants, units, comps, plls, (comps[0]._snapshot(), efforts), calls):
                theta = pll.theta
                v_pcc, rows = plant.measurements(theta)
                comp.clamped = False
                v_cs = correction_from(comp, held, theta)
                steps = [ctl.step(row, v_c, t) for ctl, row, v_c in zip(ctls, rows, v_cs)]
                duties = [duty for duty, _ in steps]
                mods = [(ma + 1.5, mb, mc - 1.5) if tick % 50 == 25 else (ma, mb, mc)
                        for _, (ma, mb, mc) in steps]
                pll_out = pll_step(pll, v_pcc, dt)
                plant_step(plant, duties, mods, theta)
                outs.append(repr((v_pcc, rows, v_cs, comp.clamped, pll_out, _pll_state(pll),
                                  steps, _plant_state(plant))))
            assert outs[0] == outs[1]
            clamps += comps[0].clamped
            saturations += any(plants[0].saturated)
        assert 0 < clamps < 2000
        assert saturations >= 20

    @pytest.mark.parametrize("dt", ["50e-6", "25e-6"])
    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_run_equals_the_old_tick_glue(self, preset, dt):
        # the table, logs and audit of a short run, its scheduled changes
        # inside it, at one and at two plant substeps per control tick
        raw = cli._load_scenario(preset).raw
        cfg = from_mapping({**raw, **_EARLY_EVENTS[preset], "solver.duration": "0.25",
                            "solver.dt": dt})
        _, flags, _, transitions, _, _ = _run_against_the_old_glue(cfg)
        if preset == "baseline":  # the compensator's output clamp, the units' current clamps
            assert flags
        if preset == "loadstep":  # the irradiance dip sends both units to tracking
            assert transitions

    @pytest.mark.parametrize("keys", [{}, {"dg2.pv.v_mp": "300", "dg2.pv.v_oc": "360",
                                           "dg2.vr.v_dc_ref": "340"}],
                             ids=["baseline", "low-dg2-link"])
    def test_flag_heavy_run_equals_the_old_tick_glue(self, monkeypatch, keys):
        # the compensator on during the start-up ramp flags on most of its
        # ticks: a low cap has the log fill up and drop the rest; on a 340 V
        # link, from 0.11 s, both bridges' modulation clamps flag too
        monkeypatch.setattr(FlagLog, "LIMIT", 25)
        cfg = from_mapping({"solver.duration": "0.3", "vcc.enable_at": "0.02", **keys})
        _, flags, dropped, _, _, _ = _run_against_the_old_glue(cfg)
        assert len(flags) == 25
        assert dropped > 0

    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_feeder_loss_equals_the_old_walk(self, preset):
        # bit for bit on random states: the audit's sums absorb a feeder
        # loss that rounds differently, so a whole run does not show it
        net = build_plant(cli._load_scenario(preset)).network
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.normal(0.0, 50.0, len(net.x)).tolist()
            assert repr(net.feeder_loss(x)) == repr(_feeder_loss(net, x))
