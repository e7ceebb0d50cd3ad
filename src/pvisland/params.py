"""Parameter records, one per key group of ``config.UNIT_GROUPS`` and ``config.GROUPS``.

Records are immutable named tuples, but for ``PvParams``, a slotted class
that also stores its solved curve constants.  A record's fields
(``_fields``) are its group's key suffixes (``dgN.vr.kp`` is
``VrParams.kp``, ``vcc.period`` is ``VccParams.period``) and have no
defaults.  A record that rejects its values names the field; the parser
names the key.  Plain floats and no NumPy, so the parser builds every
record, the PV curve included, without the models.  The model constants
that a parser rule checks live here too: ``V_DC_LIMIT``,
``POWER_FILTER_HZ``, the step rules the blocks and the report share with
the scenario checks, the component table (``DEFAULT_SEQUENCE_ORDERS``,
``HARMONIC_ORDERS``) and ``ResonantTerm``, one resonant branch of a
:class:`~pvisland.signals.ProportionalResonant`, which ``PrGains.terms``
builds.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConfigurationError

#: The DC link voltage beyond which a run is taken to have diverged, volts.
V_DC_LIMIT = 5e3
#: Cutoff of every unit's power-averaging filters.
POWER_FILTER_HZ = 2.0

#: The signed orders the extractors separate: both fundamental sequences,
#: then the harmonics the virtual impedance and the compensator act on.
DEFAULT_SEQUENCE_ORDERS = (1, -1, 3, -5, 7, -11)
HARMONIC_ORDERS = DEFAULT_SEQUENCE_ORDERS[2:]


# Step rules: what a step must resolve.  The scenario checks call the same
# rules as the blocks and the report that rely on them.

#: Highest harmonic order :func:`pvisland.analysis.spectrum` resolves and
#: :func:`pvisland.analysis.thd` sums.
MAX_HARMONIC_ORDER = 50

#: Whole fundamental cycles :func:`pvisland.analysis.steady_window` needs before it searches.
MIN_STEADY_CYCLES = 20


#: Heun's method is stable on a real pole ``-p`` while ``p * dt`` stays below this.
HEUN_REAL_LIMIT = 2.0


def max_filter_step(l_filter: float, c_filter: float) -> float:
    """Coarsest step that samples an LC filter's resonance 20 times per period."""
    return 2.0 * math.pi * math.sqrt(l_filter * c_filter) / 20.0


def too_coarse_for_low_pass(cutoff_hz: float, dt: float) -> bool:
    """Whether a step of ``dt`` is too long for a low-pass filter at ``cutoff_hz``."""
    return dt * 2.0 * math.pi * cutoff_hz >= 1.0


def beyond_nyquist(order: float, omega: float, dt: float) -> bool:
    """Whether a resonance at ``order * omega`` reaches the Nyquist rate of ``dt``."""
    return order * omega >= math.pi / dt


def ticks(span: float, dt: float) -> int:
    """Whole steps of ``dt`` in ``span``: the tick of a time on the step grid."""
    return int(round(span / dt))


class ResonantTerm(NamedTuple):
    """One resonant branch of a proportional-resonant controller."""

    order: int
    gain: float
    cutoff: float  # rad/s bandwidth of the resonant peak


class PvParams:
    """Single-diode-shaped PV source, calibrated to its datasheet corners.

    The diode voltage scale is solved at construction so the curve passes
    through (v_mp, i_mp); the curve then peaks at the rated power within a
    fraction of a percent.  ``irradiance`` is the array's irradiance at the
    start of a run, in suns.  Not a named tuple: it stores the solved
    constants beside its fields, and compares by its fields.
    """

    _fields = ("rated_w", "v_oc", "i_sc", "v_mp", "i_mp", "irradiance")
    __slots__ = (*_fields, "_v_scale", "_i_dark")

    def __init__(self, rated_w: float, v_oc: float, i_sc: float, v_mp: float, i_mp: float,
                 irradiance: float):
        self.rated_w, self.v_oc, self.i_sc = rated_w, v_oc, i_sc
        self.v_mp, self.i_mp, self.irradiance = v_mp, i_mp, irradiance
        if not v_mp < v_oc:
            raise ConfigurationError(f"must lie below pv.v_oc = {v_oc}", key="v_mp")
        if not i_mp < i_sc:
            raise ConfigurationError(f"must lie below pv.i_sc = {i_sc}", key="i_mp")
        if not v_mp * i_mp <= rated_w * 1.001:
            raise ConfigurationError("lies below the maximum-power point pv.v_mp * pv.i_mp",
                                     key="rated_w")
        lo, hi = 1e-2, 1e4

        def residual(scale):
            # i(v_mp) - i_mp with the dark current pinned by i(v_oc) = 0
            x_mp = v_mp / scale
            x_oc = v_oc / scale
            if x_oc > 500.0:
                ratio = math.exp(x_mp - x_oc)  # large-argument limit of expm1 ratio
            else:
                ratio = math.expm1(x_mp) / math.expm1(x_oc)
            return i_sc - i_sc * ratio - i_mp

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
        if v_oc > 700.0 * self._v_scale:  # expm1 overflows past 709.78
            raise ConfigurationError("PV datasheet corners give a curve too steep to evaluate",
                                     key="v_mp")
        self._i_dark = i_sc / math.expm1(v_oc / self._v_scale)

    def __eq__(self, other):
        if type(other) is not PvParams:
            return NotImplemented
        return ([getattr(self, f) for f in self._fields]
                == [getattr(other, f) for f in self._fields])

    def __repr__(self) -> str:
        return f"PvParams({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def open_circuit_conductance(self, irradiance: float) -> float:
        """The string's incremental conductance ``-di/dv`` at its open-circuit
        voltage under ``irradiance``: the steepest between short and open circuit."""
        return (self._i_dark + irradiance * self.i_sc) / self._v_scale


def pv_current(v_pv: float, irradiance: float, p: PvParams) -> float:
    """Terminal current of the PV string at a given voltage and irradiance.

    Past open circuit the diode conducts and the string sinks current.
    """
    if v_pv < 0.0:
        raise ConfigurationError("PV terminal voltage must be non-negative")
    return irradiance * p.i_sc - p._i_dark * math.expm1(v_pv / p._v_scale)


class DcLinkParams(NamedTuple):
    """The boost stage: the PV-side capacitor, the boost inductor and the DC link capacitor."""

    c_pv: float
    l_boost: float
    c_dc: float


class VrParams(NamedTuple):
    """The DC link regulator: its PI gains and the link voltage it holds."""

    kp: float
    ki: float
    v_dc_ref: float


class MpptParams(NamedTuple):
    """The incremental-conductance tracker: its period, duty step and convergence band."""

    period: float
    duty_step: float
    deadband: float             # relative conductance mismatch treated as converged


class ModeParams(NamedTuple):
    """When the boost leaves tracking for link regulation, and when it returns."""

    enter_vr_margin: float     # volts above the link reference
    exit_vr_margin: float      # volts below the link reference
    exit_hold: float           # seconds the exit condition must persist


class DroopParams(NamedTuple):
    """The P-omega and Q-V droop slopes."""

    m_p: float          # (rad/s) per watt
    n_p: float          # volt per var


class ViParams(NamedTuple):
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


class PrGains(NamedTuple):
    """A proportional-resonant loop's gains and the orders of its resonant terms."""

    kp: float
    k1: float                   # fundamental resonant gain
    kh: float                   # harmonic resonant gain
    wc: float                   # rad/s resonant bandwidth
    orders: tuple[int, ...]

    def terms(self) -> list[ResonantTerm]:
        return [ResonantTerm(k, self.k1 if k == 1 else self.kh, self.wc) for k in self.orders]


class FilterParams(NamedTuple):
    """The inverter's LC output filter."""

    l: float
    c: float

    def resonance_hz(self) -> float:
        return 1.0 / (2.0 * math.pi * math.sqrt(self.l * self.c))


class FeederParams(NamedTuple):
    """The series R-L feeder from a unit's filter to the coupling bus."""

    r: float
    l: float


class PllParams(NamedTuple):
    """The phase-locked loop's PI gains and its frequency band."""

    kp: float
    ki: float
    band: float                 # the frequency band either side, a fraction of system.omega


class LoadParams(NamedTuple):
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


class VccParams(NamedTuple):
    """The central compensator: its schedule, references, extraction filter and PI gains."""

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
