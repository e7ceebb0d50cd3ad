"""Per-unit controller stack.

Each generating unit runs, at the control period: power calculation with
slow averaging filters, frequency/voltage droop, sequence-selective virtual
impedance, and the cascaded proportional-resonant voltage and current
loops.  The boost duty cycle comes from one mode machine that switches
between maximum-power tracking and DC-link voltage regulation.

A unit's step is written through: :meth:`DgController.step` does the
power products, both filters, the droop and the start-up ramp as float
operations, then calls the extractor's kernel (through the counted
``SequenceExtractor._rebuild``), each loop's step, which calls its
resonator kernel, and the boost machine's step, which regulates in place
and calls its tracker once per tracking period.  The clamps on the tick
are conditional expressions: ``c if c > a else a`` is ``max(a, c)`` and
``c if c < a else a`` is ``min(a, c)``, NaN and -0.0 included.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import ConfigurationError, SimulationDivergence
from .params import HARMONIC_ORDERS, POWER_FILTER_HZ, ticks
from .signals import _SQRT3_OVER_2, LowPass1, ProportionalResonant, SequenceExtractor

if TYPE_CHECKING:
    from .config import DgConfig, ScenarioConfig
    from .params import ModeParams, MpptParams, PrGains, VrParams

#: The boost duty range, for the tracker and the link regulator alike.
DUTY_MIN, DUTY_MAX = 0.02, 0.95


# ---------------------------------------------------------------------------
# Cascaded PR loops
# ---------------------------------------------------------------------------

class VoltageLoop:
    """PR regulation of the filter capacitor voltage, both axes in one pass."""

    def __init__(self, gains: PrGains, omega_nominal: float, dt: float,
                 i_limit: float):
        self.pr = ProportionalResonant(gains.kp, gains.terms(), omega_nominal, dt)
        self.i_limit = i_limit
        self.clamped = False

    def step(self, ref_a: float, ref_b: float, va: float, vb: float,
             rows: tuple[float, ...]) -> tuple[float, float]:
        """Inductor current reference from the voltage reference and measurement."""
        pr = self.pr
        ia, ib = pr._kernel(pr, ref_a - va, ref_b - vb, rows)
        mag = math.hypot(ia, ib)
        self.clamped = mag > self.i_limit
        if self.clamped:
            scale = self.i_limit / mag
            ia *= scale
            ib *= scale
        return ia, ib


class CurrentLoop:
    """PR regulation of the filter inductor current, both axes in one pass.

    The controller output is normalized by half the DC-link voltage to form
    per-phase modulation commands (the inverse Clarke transform written
    out); a collapsed link forces the commands to zero rather than dividing
    by a vanishing voltage.
    """

    V_DC_LOCKOUT = 50.0

    def __init__(self, gains: PrGains, omega_nominal: float, dt: float):
        self.pr = ProportionalResonant(gains.kp, gains.terms(), omega_nominal, dt)
        self.locked_out = False

    def step(self, ref_a: float, ref_b: float, ia: float, ib: float, v_dc: float,
             rows: tuple[float, ...]) -> tuple[float, float, float]:
        """Per-phase modulation commands from the current reference and measurement."""
        pr = self.pr
        va, vb = pr._kernel(pr, ref_a - ia, ref_b - ib, rows)
        self.locked_out = v_dc < self.V_DC_LOCKOUT
        if self.locked_out:
            return 0.0, 0.0, 0.0
        half = v_dc / 2.0
        x = va / half
        y = vb / half
        return x, -0.5 * x + _SQRT3_OVER_2 * y, -0.5 * x - _SQRT3_OVER_2 * y


# ---------------------------------------------------------------------------
# Boost duty control: maximum-power tracking and link-voltage regulation
# ---------------------------------------------------------------------------

MODE_MPPT = "MPPT"
MODE_VR = "VR"


class BoostController:
    """Mode machine holding the boost duty: maximum-power tracking or link regulation.

    Each step covers the ``dt`` the machine was built with.  Tracking runs
    decimated at its own period; regulation runs every step.  Both the
    decimation and the exit hold count whole steps of ``dt``.
    Transitions are hysteretic and are recorded with timestamps.  The
    machine boots in regulation mode: on startup the AC side is not loaded
    yet, so the link would immediately overvolt under tracking; regulation
    hands over to tracking through the normal exit hysteresis once demand
    exceeds the array maximum.

    Tracking hill-climbs the PV curve by the incremental-conductance test:
    ``dP/dV = i + v * di/dv`` is positive below the peak voltage, so the
    duty falls to raise the terminal voltage.  It compares each sample with
    the last, so its first sample after a hand-over only records.

    Regulation is a PI loop on the link voltage whose integrator starts from
    the duty at entry.  Anti-windup freezes the integrator while the duty
    sits on a clamp.  Regulation only has authority on the curtailment side
    of the array curve, so its ceiling keeps the duty from pushing the
    terminal voltage more than ``VPV_FLOOR_MARGIN`` below where it was at
    entry: during a deficit more duty would shed power instead of
    recovering the link.  The ceiling is never under the duty range.
    """

    def __init__(self, mppt: MpptParams, vr: VrParams, mode: ModeParams,
                 duty_init: float, dt: float):
        # the regulator's gains and reference, the mode margins, then the tracker's step and band
        self._consts = (vr.kp, vr.ki, vr.v_dc_ref, mode.enter_vr_margin, mode.exit_vr_margin)
        self._track_consts = (mppt.duty_step, mppt.deadband)
        self.dt = dt
        self.mode = MODE_VR
        self.duty = duty_init
        self._integral = duty_init  # the regulator's integrator
        self._v_prev = self._i_prev = None  # the tracker's last sample
        self.transitions: list[tuple[float, str]] = []
        self._mppt_every = ticks(mppt.period, dt)
        self._mppt_count = 0
        self._hold = max(ticks(mode.exit_hold, dt), 1)  # a zero hold still waits a step
        self._below = 0     # consecutive steps with the link below the exit threshold
        self._vr_vpv_floor = None   # taken from the terminal voltage at entry

    VPV_FLOOR_MARGIN = 25.0  # volts below the entry point regulation may push

    def _track(self, v_pv: float, i_pv: float):
        """One incremental-conductance move of the duty on the sample ``(v_pv, i_pv)``."""
        duty_step, deadband = self._track_consts
        if self._v_prev is None:
            self._v_prev, self._i_prev = v_pv, i_pv
            return
        dv = v_pv - self._v_prev
        di = i_pv - self._i_prev
        self._v_prev, self._i_prev = v_pv, i_pv
        duty = self.duty
        if i_pv < 1e-3 and v_pv > 1.0:
            # Dead zone past open circuit: no current, no usable gradient;
            # walk the terminal voltage back down until current flows.
            self.duty = min(duty + duty_step, DUTY_MAX)
            return
        if abs(dv) < 1e-9:
            # Voltage unchanged; use the current movement alone, no division.
            if di > 1e-9:
                duty -= duty_step
            elif di < -1e-9:
                duty += duty_step
        else:
            mismatch = di / dv + i_pv / max(v_pv, 1e-6)
            if abs(mismatch) * v_pv >= deadband * max(i_pv, 1e-6):
                if mismatch > 0.0:
                    duty -= duty_step   # raise the PV voltage
                else:
                    duty += duty_step
        self.duty = min(max(duty, DUTY_MIN), DUTY_MAX)

    def step(self, v_pv: float, i_pv: float, v_dc: float, t: float) -> float:
        kp, ki, ref, enter_margin, exit_margin = self._consts
        if self.mode == MODE_MPPT:
            if v_dc > ref + enter_margin:
                self.mode = MODE_VR
                self._integral = self.duty
                self._vr_vpv_floor = None  # retaken from this sample below
                self.transitions.append((t, f"{MODE_MPPT}->{MODE_VR}"))
        else:
            self._below = self._below + 1 if v_dc < ref - exit_margin else 0
            if self._below > self._hold:
                self.mode = MODE_MPPT
                self._v_prev = None
                self.transitions.append((t, f"{MODE_VR}->{MODE_MPPT}"))
                self._below = 0

        if self.mode == MODE_MPPT:
            self._mppt_count = (self._mppt_count + 1) % self._mppt_every
            if self._mppt_count == 0:
                self._track(v_pv, i_pv)
            return self.duty
        if self._vr_vpv_floor is None:
            self._vr_vpv_floor = max(v_pv - self.VPV_FLOOR_MARGIN, 50.0)
        # never under the duty range: a link sagged below the floor gets the least duty
        ceiling = 1.0 - self._vr_vpv_floor / (50.0 if 50.0 > v_dc else v_dc)
        ceiling = DUTY_MIN if DUTY_MIN > ceiling else ceiling
        hi = ceiling if ceiling < DUTY_MAX else DUTY_MAX  # a NaN ceiling is the range's top
        e = ref - v_dc
        candidate = self._integral + ki * e * self.dt
        duty = kp * e + candidate
        if DUTY_MIN <= duty <= hi:
            self._integral = candidate
        else:  # min(max(duty, DUTY_MIN), hi)
            duty = DUTY_MIN if DUTY_MIN > duty else duty
            duty = hi if hi < duty else duty
        self.duty = duty
        return duty


# ---------------------------------------------------------------------------
# Whole per-unit controller
# ---------------------------------------------------------------------------

class DgController:
    """Primary control stack of the unit ``name``, built from its ``dgN.*`` records.

    Each step covers one ``control.period``.  The instantaneous two-axis
    powers ``p_inst``/``q_inst`` (amplitude-invariant pairs, hence the 3/2
    factor) are averaged by two first-order :class:`~pvisland.signals.LowPass1`
    filters at ``POWER_FILTER_HZ`` into ``p_avg``/``q_avg``.  The droop sets
    ``omega_ref`` and the amplitude ``v_ref`` from them, clamped to
    0.5-1.2 of the no-load amplitude (``droop_clamped`` flags a clamp), and
    advances its own phase ``theta``.  Then comes one resonance pass at the
    droop frequency, the extractor's kernel, which also gives both loops
    their rows; the extractor's band update sums the virtual impedance's
    drop, its reactance taken at the no-load frequency.  The boost starts at
    the duty that lifts the array's maximum-power voltage to the link
    reference.
    """

    def __init__(self, cfg: ScenarioConfig, dg: DgConfig, name: str):
        self.name = name
        self.dt = dt = cfg.control_period
        self.startup_ramp = cfg.startup_ramp
        power_filter = LowPass1(POWER_FILTER_HZ, dt)
        # the droop's constants, and the coefficients both power filters share
        self._consts = (dg.droop.m_p, dg.droop.n_p, cfg.v_amp, cfg.omega,
                        0.5 * cfg.v_amp, 1.2 * cfg.v_amp, power_filter._a, power_filter._b)
        self.p_inst = self.q_inst = 0.0
        self.p_avg = self.q_avg = 0.0
        self.omega_ref = cfg.omega
        self.v_ref = cfg.v_amp
        self.theta = 0.0
        self.droop_clamped = False
        rated_current = dg.pv.rated_w / (1.5 * cfg.v_amp)
        self.voltage_loop = VoltageLoop(dg.prv, cfg.omega, dt,
                                        dg.current_limit_factor * rated_current)
        self.current_loop = CurrentLoop(dg.pri, cfg.omega, dt)
        self.extractor = SequenceExtractor(gain=dg.vi.bandwidth_gain, impedance=(
            dg.vi.r_pos, cfg.omega * dg.vi.l_pos, dg.vi.r_neg,
            {order: dg.vi.r_harmonic(order) for order in HARMONIC_ORDERS}),
            loops=(self.voltage_loop.pr.terms, self.current_loop.pr.terms))
        self.boost = BoostController(dg.mppt, dg.vr, dg.mode,
                                     1.0 - dg.pv.v_mp / dg.vr.v_dc_ref, dt)

    def step(self, row: tuple[float, ...], v_c: tuple[float, float], t: float
             ) -> tuple[float, tuple[float, float, float]]:
        """Advance the control period starting at ``t``; returns (boost duty, modulation).

        ``row`` is the unit's row of :meth:`~pvisland.plant.Plant.measurements`.
        """
        dt = self.dt
        ila, ilb, voa, vob, ioa, iob, v_dc, v_pv, i_pv = row
        m_p, n_p, v_amp, omega, lo, hi, a, b = self._consts

        p_inst = 1.5 * (voa * ioa + vob * iob)
        q_inst = 1.5 * (vob * ioa - voa * iob)
        self.p_avg = p_avg = a * self.p_avg + b * (p_inst + self.p_inst)
        self.q_avg = q_avg = a * self.q_avg + b * (q_inst + self.q_inst)
        self.p_inst = p_inst
        self.q_inst = q_inst

        self.omega_ref = omega_ref = omega - m_p * p_avg
        v_ref = v_amp - n_p * q_avg
        self.droop_clamped = clamped = not (lo <= v_ref <= hi)
        if clamped:  # min(max(v_ref, lo), hi)
            v_ref = lo if lo > v_ref else v_ref
            v_ref = hi if hi < v_ref else v_ref
        self.v_ref = v_ref
        self.theta = theta = (self.theta + omega_ref * dt) % (2.0 * math.pi)
        da = v_ref * math.cos(theta)
        db = v_ref * math.sin(theta)
        if t < self.startup_ramp:
            ramp = t / self.startup_ramp
            da *= ramp
            db *= ramp
        try:
            za, zb, v_rows, i_rows = self.extractor._rebuild(ioa, iob, omega_ref, dt)
        except ConfigurationError as exc:  # the droop moved it there, not a setting
            raise SimulationDivergence(f"{self.name} droop frequency at t={t:.6f} s: {exc}",
                                       t_last_good=t - dt) from exc
        # reference: droop minus virtual drop plus central correction
        ra, rb = da - za + v_c[0], db - zb + v_c[1]
        ia, ib = self.voltage_loop.step(ra, rb, voa, vob, v_rows)
        m = self.current_loop.step(ia, ib, ila, ilb, v_dc, i_rows)
        duty = self.boost.step(v_pv, i_pv, v_dc, t)
        return duty, m
