"""Parameter records, one per key group of ``config.UNIT_GROUPS`` and ``config.GROUPS``.

A record's fields are its group's key suffixes (``dgN.vr.kp`` is
``VrParams.kp``, ``vcc.period`` is ``VccParams.period``) and have no
defaults.  A record that rejects its values names the field; the parser
names the key.  Plain floats and no NumPy, so the parser builds every
record, the PV curve included, without the models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .signals import ResonantTerm

#: The DC link voltage beyond which a run is taken to have diverged, volts.
V_DC_LIMIT = 5e3


@dataclass
class PvParams:
    """Single-diode-shaped PV source, calibrated to its datasheet corners.

    The diode voltage scale is solved at construction so the curve passes
    through (v_mp, i_mp); the curve then peaks at the rated power within a
    fraction of a percent.  ``irradiance`` is the array's irradiance at the
    start of a run, in suns.
    """

    rated_w: float
    v_oc: float
    i_sc: float
    v_mp: float
    i_mp: float
    irradiance: float

    _v_scale: float = field(init=False, repr=False)
    _i_dark: float = field(init=False, repr=False)

    def __post_init__(self):
        if not self.v_mp < self.v_oc:
            raise ConfigurationError(f"must lie below pv.v_oc = {self.v_oc}", key="v_mp")
        if not self.i_mp < self.i_sc:
            raise ConfigurationError(f"must lie below pv.i_sc = {self.i_sc}", key="i_mp")
        if not self.v_mp * self.i_mp <= self.rated_w * 1.001:
            raise ConfigurationError("lies below the maximum-power point pv.v_mp * pv.i_mp",
                                     key="rated_w")
        lo, hi = 1e-2, 1e4

        def residual(scale):
            # i(v_mp) - i_mp with the dark current pinned by i(v_oc) = 0
            x_mp = self.v_mp / scale
            x_oc = self.v_oc / scale
            if x_oc > 500.0:
                ratio = math.exp(x_mp - x_oc)  # large-argument limit of expm1 ratio
            else:
                ratio = math.expm1(x_mp) / math.expm1(x_oc)
            return self.i_sc - self.i_sc * ratio - self.i_mp

        if residual(lo) < 0.0 or residual(hi) > 0.0:
            raise ConfigurationError("PV datasheet corners do not describe a diode-like curve",
                                     key="v_mp")
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if residual(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        self._v_scale = math.sqrt(lo * hi)
        if self.v_oc > 700.0 * self._v_scale:  # expm1 overflows past 709.78
            raise ConfigurationError("PV datasheet corners give a curve too steep to evaluate",
                                     key="v_mp")
        self._i_dark = self.i_sc / math.expm1(self.v_oc / self._v_scale)


def pv_current(v_pv: float, irradiance: float, p: PvParams) -> float:
    """Terminal current of the PV string at a given voltage and irradiance.

    Past open circuit the diode conducts and the string sinks current.
    """
    if v_pv < 0.0:
        raise ConfigurationError("PV terminal voltage must be non-negative")
    return irradiance * p.i_sc - p._i_dark * math.expm1(v_pv / p._v_scale)


@dataclass
class DcLinkParams:
    c_pv: float
    l_boost: float
    c_dc: float


@dataclass
class VrParams:
    kp: float
    ki: float
    v_dc_ref: float


@dataclass
class MpptParams:
    period: float
    duty_step: float
    deadband: float             # relative conductance mismatch treated as converged


@dataclass
class ModeParams:
    enter_vr_margin: float     # volts above the link reference
    exit_vr_margin: float      # volts below the link reference
    exit_hold: float           # seconds the exit condition must persist


@dataclass
class DroopParams:
    m_p: float          # (rad/s) per watt
    n_p: float          # volt per var


@dataclass
class ViParams:
    """Virtual impedance: resistive-inductive on the positive sequence,
    resistive on the negative sequence and on each harmonic."""

    r_pos: float
    l_pos: float
    r_neg: float
    r_h3: float
    r_h5: float
    r_h7: float
    r_h11: float
    bandwidth_gain: float       # scales the sequence extractor's bands

    def r_harmonic(self, order: int) -> float:
        """The resistance of harmonic ``order`` (signed), from its ``vi.r_h<n>`` key."""
        return getattr(self, f"r_h{abs(order)}")


@dataclass
class PrGains:
    kp: float
    k1: float                   # fundamental resonant gain
    kh: float                   # harmonic resonant gain
    wc: float                   # rad/s resonant bandwidth
    orders: tuple[int, ...]

    def terms(self) -> list[ResonantTerm]:
        return [ResonantTerm(k, self.k1 if k == 1 else self.kh, self.wc) for k in self.orders]


@dataclass
class FilterParams:
    """The inverter's LC output filter."""

    l: float
    c: float

    def resonance_hz(self) -> float:
        return 1.0 / (2.0 * math.pi * math.sqrt(self.l * self.c))


@dataclass
class FeederParams:
    """The series R-L feeder from a unit's filter to the coupling bus."""

    r: float
    l: float


@dataclass
class PllParams:
    kp: float
    ki: float
    band: float                 # the frequency band either side, a fraction of system.omega


@dataclass
class LoadParams:
    """The coupling-bus load: a floating-star resistive bank, an optional extra
    resistor on phase a, an optional parallel inductive bank (henries per
    phase) and current sources locked to the system angle, one ``(order,
    amplitude, phase)`` each; a positive order rotates with the fundamental,
    a negative one against it.  At ``step_time`` every element scales by ``step_scale``."""

    balanced_r: float
    balanced_l: float | None
    unbalanced_r_a: float | None
    harmonics: list[tuple[int, float, float]]
    step_time: float | None
    step_scale: float

    def conductances(self, scale: float = 1.0) -> tuple[float, float, float]:
        g = scale / self.balanced_r
        ga = g + (scale / self.unbalanced_r_a if self.unbalanced_r_a else 0.0)
        return ga, g, g


@dataclass
class VccParams:
    enable_at: float | None
    period: float
    vuf_ref: float              # percent
    hd_ref: float               # percent, for every harmonic order
    extraction_cutoff_hz: float
    extraction_damping: float
    pi_neg1: tuple[float, float]
    pi_h3: tuple[float, float]
    pi_h5: tuple[float, float]
    pi_h7: tuple[float, float]
    pi_h11: tuple[float, float]
    output_limit: float         # volts per axis at each unit
    effort_limit: float         # bound on each PI output
    comm_delay: float

    def pi(self, component: int) -> tuple[float, float]:
        """``(kp, ki)`` of component -1 or a signed harmonic order, from its ``vcc.pi_*`` key."""
        return getattr(self, "pi_neg1" if component == -1 else f"pi_h{abs(component)}")
