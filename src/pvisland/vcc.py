"""Central voltage-quality compensation.

A single controller watches the coupling-bus voltage through its own
rotating-frame extraction bank, measures the unbalance factor and the
per-order harmonic distortion, and broadcasts correction phasors to every
generating unit, scaled by rated power.  Corrections only ever push a
quality index down toward its reference: a component whose index is
already at or below the reference contributes nothing.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .params import DEFAULT_SEQUENCE_ORDERS, HARMONIC_ORDERS
from .signals import DQ, FrameVector, LowPass2, ThreePhaseSample, clarke_xy, park_xy

if TYPE_CHECKING:
    from .config import ScenarioConfig

#: Volts of positive sequence below which the quality indices are unusable.
POS_SEQ_FLOOR = 1.0


class DqExtractionBank:
    """Rotating-frame extraction of selected voltage components.

    Each component is observed in a frame spinning at its own signed
    multiple of the tracked angle; slow second-order filters on both axes
    leave the component's phasor as a near-DC pair.
    """

    def __init__(self, dt: float, cutoff_hz: float = 5.0, damping: float = 2.5):
        self._filters = {
            c: (LowPass2(cutoff_hz, damping, dt), LowPass2(cutoff_hz, damping, dt))
            for c in DEFAULT_SEQUENCE_ORDERS
        }

    def step(self, v_pcc: ThreePhaseSample, theta: float, dt: float
             ) -> dict[int, FrameVector]:
        """Filtered phasors of the phase voltages ``v_pcc`` (any a, b, c triple)."""
        x, y = clarke_xy(*v_pcc)
        out = {}
        for c, (fd, fq) in self._filters.items():
            d, q = park_xy(x, y, c * theta)
            out[c] = FrameVector(fd.step(d), fq.step(q), DQ, c * theta)
        return out


def quality_index(mag: float, pos_mag: float) -> tuple[float, bool]:
    """One component's magnitude in percent of the positive sequence.

    The unbalance factor (negative sequence) or one order's harmonic
    distortion; flags a positive sequence below :data:`POS_SEQ_FLOOR` as unusable.
    """
    if pos_mag < POS_SEQ_FLOOR:
        return 0.0, False
    return 100.0 * mag / pos_mag, True


class CentralCompensator:
    """Quality-index PI loops and the power-ratio broadcast of corrections.

    Built from the ``vcc.*`` record and the units' ``pv.rated_w``, with its
    extraction ``bank``; steps over ``vcc.period``.  ``indices`` holds the
    unbalance (key -1) and each order's distortion, in channel order.

    The effort phasors are held in their rotating frames between ticks;
    :meth:`correction_from` rebuilds every unit's stationary-frame pair at
    any angle from a snapshot of the nonzero ones (:meth:`correction_for`,
    one unit's from the live phasors), so fast-rotating components are not
    staircased by the slower tick rate.
    """

    def __init__(self, cfg: ScenarioConfig):
        vcc = cfg.vcc
        self.bank = DqExtractionBank(vcc.period, vcc.extraction_cutoff_hz, vcc.extraction_damping)
        self._period = vcc.period
        self._output_limit = vcc.output_limit  # read on every tick
        self._effort_floor = -vcc.effort_limit
        total = sum(dg.pv.rated_w for dg in cfg.dgs)
        self.shares = tuple(dg.pv.rated_w / total for dg in cfg.dgs)
        self.components = (-1,) + tuple(sorted(HARMONIC_ORDERS))
        self._loops = tuple((c, vcc.vuf_ref if c == -1 else vcc.hd_ref, *vcc.pi(c))
                            for c in self.components)  # (c, reference, kp, ki)
        self._integral = dict.fromkeys(self.components, 0.0)
        self._effort_dq = dict.fromkeys(self.components, (0.0, 0.0))
        self.indices = dict.fromkeys((-1, *HARMONIC_ORDERS), 0.0)
        self.indices_valid = False
        self.clamped = False

    def measure(self, extracted: dict[int, FrameVector]) -> bool:
        """Update ``indices`` (0 below the positive-sequence floor); returns ``indices_valid``."""
        pos_mag = extracted[1].magnitude()
        indices = self.indices
        for c in indices:
            indices[c], valid = quality_index(extracted[c].magnitude(), pos_mag)
        self.indices_valid = valid
        return valid

    def step(self, extracted: dict[int, FrameVector]) -> tuple[tuple[int, float, float], ...]:
        """One controller tick from extracted components; returns the snapshot of its efforts."""
        if self.measure(extracted):
            indices, integral, effort = self.indices, self._integral, self._effort_dq
            floor, dt = self._effort_floor, self._period
            for c, ref, kp, ki in self._loops:
                err = ref - indices[c]
                if err >= 0.0:
                    # At or better than its reference: never inject to raise it.  A loop with
                    # no accumulated effort contributes exactly zero; a converged one holds its
                    # effort, since chopping it at the tick rate would spray sidebands.
                    if integral[c] == 0.0:
                        effort[c] = (0.0, 0.0)
                    continue
                integral[c] = max(integral[c] + ki * err * dt, floor)
                u = max(kp * err + integral[c], floor)
                comp = extracted[c]
                effort[c] = (u * comp.x, u * comp.y)
        return self._snapshot()

    def _snapshot(self) -> tuple[tuple[int, float, float], ...]:
        """``(c, d, q)`` of every nonzero effort phasor, in ``components`` order."""
        return tuple((c, d, q) for c, (d, q) in self._effort_dq.items() if d != 0.0 or q != 0.0)

    def correction_for(self, unit: int, theta: float) -> tuple[float, float]:
        """Stationary-frame correction for one unit at fundamental angle theta."""
        return self.correction_from(self._snapshot(), theta)[unit]

    def correction_from(self, efforts: tuple[tuple[int, float, float], ...],
                        theta: float) -> list[tuple[float, float]]:
        """Every unit's correction at angle theta from a snapshot of effort phasors.

        The components are rotated back and summed once; each unit then
        takes its rated-power share, clamped per axis.
        """
        a = 0.0
        b = 0.0
        for c, d, q in efforts:
            angle = c * theta
            cos_c = math.cos(angle)
            sin_c = math.sin(angle)
            a += d * cos_c - q * sin_c
            b += d * sin_c + q * cos_c
        lim = self._output_limit
        out = []
        for share in self.shares:
            ua = a * share
            ub = b * share
            if not (-lim <= ua <= lim and -lim <= ub <= lim):
                self.clamped = True  # sticky until the caller clears it
                ua, ub = min(max(ua, -lim), lim), min(max(ub, -lim), lim)
            out.append((ua, ub))
        return out
