"""Per-unit controller stack.

Each generating unit runs, at the control period: power calculation with
slow averaging filters, frequency/voltage droop, sequence-selective virtual
impedance, and the cascaded proportional-resonant voltage and current
loops.  The boost duty cycle comes from a mode machine that switches
between maximum-power tracking and DC-link voltage regulation.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import ConfigurationError, SimulationDivergence
from .signals import (
    HARMONIC_ORDERS,
    LowPass1,
    ProportionalResonant,
    SequenceExtractor,
    inverse_clarke_xy,
    ticks,
)

if TYPE_CHECKING:
    from .config import DgConfig, ScenarioConfig
    from .params import DroopParams, ModeParams, MpptParams, PrGains, VrParams

#: Cutoff of every unit's power-averaging filters.
POWER_FILTER_HZ = 2.0
#: The boost duty range, for the tracker and the link regulator alike.
DUTY_MIN, DUTY_MAX = 0.02, 0.95


# ---------------------------------------------------------------------------
# Power calculation
# ---------------------------------------------------------------------------

class PowerCalculator:
    """Instantaneous two-axis power, averaged by first-order filters.

    Inputs are amplitude-invariant stationary-frame pairs, hence the 3/2
    factor on both powers.
    """

    def __init__(self, cutoff_hz: float, dt: float):
        self._p_filt = LowPass1(cutoff_hz, dt)
        self._q_filt = LowPass1(cutoff_hz, dt)
        self.p_inst = 0.0
        self.q_inst = 0.0

    def step(self, va: float, vb: float, ia: float, ib: float) -> tuple[float, float]:
        self.p_inst = 1.5 * (va * ia + vb * ib)
        self.q_inst = 1.5 * (vb * ia - va * ib)
        return self._p_filt.step(self.p_inst), self._q_filt.step(self.q_inst)


# ---------------------------------------------------------------------------
# Droop
# ---------------------------------------------------------------------------

class DroopControl:
    """Frequency/active and voltage/reactive droop with its own phase accumulator,
    from the no-load voltage amplitude ``v_amp`` and angular frequency ``omega``."""

    def __init__(self, params: DroopParams, v_amp: float, omega: float):
        self.params = params
        self.v_amp = v_amp
        self.omega = omega
        self.theta = 0.0
        self.omega_ref = omega
        self.v_ref = v_amp
        self.clamped = False

    def step(self, p_avg: float, q_avg: float, dt: float) -> tuple[float, float]:
        par = self.params
        v_amp = self.v_amp
        self.omega_ref = self.omega - par.m_p * p_avg
        v_ref = v_amp - par.n_p * q_avg
        lo, hi = 0.5 * v_amp, 1.2 * v_amp
        self.clamped = not (lo <= v_ref <= hi)
        self.v_ref = min(max(v_ref, lo), hi)
        self.theta = (self.theta + self.omega_ref * dt) % (2.0 * math.pi)
        return self.v_ref * math.cos(self.theta), self.v_ref * math.sin(self.theta)


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
        ia, ib = self.pr.step_pair(ref_a - va, ref_b - vb, rows)
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
    per-phase modulation commands; a collapsed link forces the commands to
    zero rather than dividing by a vanishing voltage.
    """

    V_DC_LOCKOUT = 50.0

    def __init__(self, gains: PrGains, omega_nominal: float, dt: float):
        self.pr = ProportionalResonant(gains.kp, gains.terms(), omega_nominal, dt)
        self.locked_out = False

    def step(self, ref_a: float, ref_b: float, ia: float, ib: float, v_dc: float,
             rows: tuple[float, ...]) -> tuple[float, float, float]:
        """Per-phase modulation commands from the current reference and measurement."""
        va, vb = self.pr.step_pair(ref_a - ia, ref_b - ib, rows)
        self.locked_out = v_dc < self.V_DC_LOCKOUT
        if self.locked_out:
            return 0.0, 0.0, 0.0
        half = v_dc / 2.0
        return inverse_clarke_xy(va / half, vb / half)


# ---------------------------------------------------------------------------
# Boost duty control: maximum-power tracking and link-voltage regulation
# ---------------------------------------------------------------------------

class IncrementalConductanceMppt:
    """Hill climbing on the PV curve via the incremental-conductance test."""

    def __init__(self, params: MpptParams, duty_init: float):
        self.params = params
        self.duty = min(max(duty_init, DUTY_MIN), DUTY_MAX)
        self._v_prev = None
        self._i_prev = None

    def step(self, v_pv: float, i_pv: float) -> float:
        p = self.params
        if self._v_prev is None:
            self._v_prev, self._i_prev = v_pv, i_pv
            return self.duty
        dv = v_pv - self._v_prev
        di = i_pv - self._i_prev
        self._v_prev, self._i_prev = v_pv, i_pv
        if i_pv < 1e-3 and v_pv > 1.0:
            # Dead zone past open circuit: no current, no usable gradient;
            # walk the terminal voltage back down until current flows.
            self.duty = min(self.duty + p.duty_step, DUTY_MAX)
            return self.duty
        if abs(dv) < 1e-9:
            # Voltage unchanged; use the current movement alone, no division.
            if di > 1e-9:
                self.duty -= p.duty_step
            elif di < -1e-9:
                self.duty += p.duty_step
        else:
            # dP/dV = i + v * di/dv; positive means below the peak voltage.
            mismatch = di / dv + i_pv / max(v_pv, 1e-6)
            if abs(mismatch) * v_pv >= p.deadband * max(i_pv, 1e-6):
                if mismatch > 0.0:
                    self.duty -= p.duty_step   # raise the PV voltage
                else:
                    self.duty += p.duty_step
        self.duty = min(max(self.duty, DUTY_MIN), DUTY_MAX)
        return self.duty


class DcLinkRegulator:
    """PI regulation of the DC-link voltage through the boost duty cycle.

    Anti-windup freezes the integrator while the duty sits on a clamp.
    Regulation only has authority on the curtailment side of the array
    curve; the caller may pass a dynamic ceiling that keeps the duty from
    pushing the terminal voltage below the tracking point during a deficit,
    where more duty would shed power instead of recovering the link.
    """

    def __init__(self, params: VrParams, dt: float):
        self.params = params
        self.dt = dt
        self.integral = 0.0

    def reset(self, duty: float):
        self.integral = duty

    def step(self, v_dc: float, duty_ceiling: float | None = None) -> float:
        """One step of ``dt`` on the link voltage ``v_dc``; returns the duty."""
        p = self.params
        hi = DUTY_MAX if duty_ceiling is None else min(DUTY_MAX, duty_ceiling)
        e = p.v_dc_ref - v_dc
        candidate = self.integral + p.ki * e * self.dt
        duty = p.kp * e + candidate
        if DUTY_MIN <= duty <= hi:
            self.integral = candidate
        else:
            duty = min(max(duty, DUTY_MIN), hi)
        return duty


MODE_MPPT = "MPPT"
MODE_VR = "VR"


class BoostController:
    """Mode machine owning the tracker and the link regulator.

    Each step covers the ``dt`` the machine was built with.  Tracking runs
    decimated at its own period; regulation runs every step.  Both the
    decimation and the exit hold count whole steps of ``dt``.
    Transitions are hysteretic and are recorded with timestamps.  The
    machine boots in regulation mode: on startup the AC side is not loaded
    yet, so the link would immediately overvolt under tracking; regulation
    hands over to tracking through the normal exit hysteresis once demand
    exceeds the array maximum.
    """

    def __init__(self, mppt: MpptParams, vr: VrParams, mode: ModeParams,
                 duty_init: float, dt: float):
        self.mppt = IncrementalConductanceMppt(mppt, duty_init)
        self.vr = DcLinkRegulator(vr, dt)
        self.mode_params = mode
        self.vr_params = vr
        self.mode = MODE_VR
        self.vr.reset(duty_init)
        self.duty = duty_init
        self.transitions: list[tuple[float, str]] = []
        self._mppt_every = ticks(mppt.period, dt)
        self._mppt_count = 0
        self._hold = max(ticks(mode.exit_hold, dt), 1)  # a zero hold still waits a step
        self._below = 0     # consecutive steps with the link below the exit threshold
        self._vr_vpv_floor = None   # taken from the terminal voltage at entry

    VPV_FLOOR_MARGIN = 25.0  # volts below the entry point regulation may push

    def step(self, v_pv: float, i_pv: float, v_dc: float, t: float) -> float:
        ref = self.vr_params.v_dc_ref
        mp = self.mode_params
        if self.mode == MODE_MPPT:
            if v_dc > ref + mp.enter_vr_margin:
                self.mode = MODE_VR
                self.vr.reset(self.duty)
                self._vr_vpv_floor = max(v_pv - self.VPV_FLOOR_MARGIN, 50.0)
                self.transitions.append((t, f"{MODE_MPPT}->{MODE_VR}"))
        else:
            self._below = self._below + 1 if v_dc < ref - mp.exit_vr_margin else 0
            if self._below > self._hold:
                self.mode = MODE_MPPT
                self.mppt.duty = self.duty
                self.mppt._v_prev = None
                self.transitions.append((t, f"{MODE_VR}->{MODE_MPPT}"))
                self._below = 0

        if self.mode == MODE_MPPT:
            self._mppt_count = (self._mppt_count + 1) % self._mppt_every
            if self._mppt_count == 0:
                self.duty = self.mppt.step(v_pv, i_pv)
        else:
            if self._vr_vpv_floor is None:
                self._vr_vpv_floor = max(v_pv - self.VPV_FLOOR_MARGIN, 50.0)
            # never under the duty range: a link sagged below the floor gets the least duty
            ceiling = max(1.0 - self._vr_vpv_floor / max(v_dc, 50.0), DUTY_MIN)
            self.duty = self.vr.step(v_dc, ceiling)
        return self.duty


# ---------------------------------------------------------------------------
# Whole per-unit controller
# ---------------------------------------------------------------------------

class DgController:
    """Primary control stack of the unit ``name``, built from its ``dgN.*`` records.

    Each step covers one ``control.period`` and makes one resonance pass at
    the droop frequency, the extractor's kernel, which also gives both loops
    their rows; the extractor's band update sums the virtual impedance's
    drop, its reactance taken at the no-load frequency.  The boost starts at
    the duty that lifts the array's maximum-power voltage to the link
    reference.
    """

    def __init__(self, cfg: ScenarioConfig, dg: DgConfig, name: str):
        self.name = name
        self.dt = dt = cfg.control_period
        self.startup_ramp = cfg.startup_ramp
        self.power = PowerCalculator(POWER_FILTER_HZ, dt)
        self.droop = DroopControl(dg.droop, cfg.v_amp, cfg.omega)
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
        self.p_avg = 0.0
        self.q_avg = 0.0

    def step(self, row: tuple[float, ...], v_c: tuple[float, float], t: float
             ) -> tuple[float, tuple[float, float, float]]:
        """Advance the control period starting at ``t``; returns (boost duty, modulation).

        ``row`` is the unit's row of :meth:`~pvisland.plant.Plant.measurements`.
        """
        dt = self.dt
        ila, ilb, voa, vob, ioa, iob, v_dc, v_pv, i_pv = row

        self.p_avg, self.q_avg = self.power.step(voa, vob, ioa, iob)
        da, db = self.droop.step(self.p_avg, self.q_avg, dt)
        if t < self.startup_ramp:
            ramp = t / self.startup_ramp
            da *= ramp
            db *= ramp
        try:
            za, zb, v_rows, i_rows = self.extractor.advance(ioa, iob, self.droop.omega_ref, dt)
        except ConfigurationError as exc:  # the droop moved it there, not a setting
            raise SimulationDivergence(f"{self.name} droop frequency at t={t:.6f} s: {exc}",
                                       t_last_good=t - dt) from exc
        # reference: droop minus virtual drop plus central correction
        ra, rb = da - za + v_c[0], db - zb + v_c[1]
        ia, ib = self.voltage_loop.step(ra, rb, voa, vob, v_rows)
        m = self.current_loop.step(ia, ib, ila, ilb, v_dc, i_rows)
        duty = self.boost.step(v_pv, i_pv, v_dc, t)
        return duty, m
