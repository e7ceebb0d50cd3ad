"""Central voltage-quality compensation.

A single controller watches the coupling-bus voltage, measures the
unbalance factor and the per-order harmonic distortion from rotating-frame
extractions, and broadcasts correction phasors to every generating unit,
scaled by rated power.  Corrections only ever push a quality index down
toward its reference: a component whose index is already at or below the
reference contributes nothing.
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

    Built from the ``vcc.*`` record and the units' ``pv.rated_w``.

    The per-component correction phasors are held in their rotating frames
    between controller ticks; consumers rebuild the stationary-frame pairs
    of every unit at any angle via :meth:`correction_from` on a snapshot of
    the effort phasors (or :meth:`correction_for`, one unit from the live
    phasors), so fast-rotating components do not get staircased by the
    slower tick rate.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.params = cfg.vcc
        total = sum(dg.pv.rated_w for dg in cfg.dgs)
        self.shares = tuple(dg.pv.rated_w / total for dg in cfg.dgs)
        self.components = (-1,) + tuple(sorted(HARMONIC_ORDERS))
        self._integral = {c: 0.0 for c in self.components}
        self._effort_dq = {c: (0.0, 0.0) for c in self.components}
        self.vuf = 0.0
        self.hd = {c: 0.0 for c in HARMONIC_ORDERS}  # in channel order
        self.indices_valid = False
        self.clamped = False

    def measure(self, extracted: dict[int, FrameVector]) -> bool:
        """Update the unbalance and distortion indices from extracted components.

        Below the positive-sequence floor every index reads 0 and the
        indices are flagged invalid; returns ``indices_valid``.
        """
        pos_mag = extracted[1].magnitude()
        self.vuf, self.indices_valid = quality_index(extracted[-1].magnitude(), pos_mag)
        for c in self.hd:
            self.hd[c] = quality_index(extracted[c].magnitude(), pos_mag)[0]
        return self.indices_valid

    def step(self, extracted: dict[int, FrameVector], dt: float
             ) -> dict[int, tuple[float, float]]:
        """One controller tick from freshly extracted components.

        Returns a snapshot of the effort phasors, for :meth:`correction_from`.
        """
        p = self.params
        if self.measure(extracted):
            for c in self.components:
                idx, ref = (self.vuf, p.vuf_ref) if c == -1 else (self.hd[c], p.hd_ref)
                err = ref - idx
                kp, ki = p.pi(c)
                if err >= 0.0:
                    # Index at or better than its reference: never inject to
                    # raise it.  With no accumulated effort the contribution
                    # is exactly zero; once the loop has converged onto the
                    # reference the standing effort is held instead, since
                    # chopping it at the controller rate would spray
                    # sidebands into the network.
                    if self._integral[c] == 0.0:
                        self._effort_dq[c] = (0.0, 0.0)
                    continue
                self._integral[c] = max(self._integral[c] + ki * err * dt, -p.effort_limit)
                u = max(kp * err + self._integral[c], -p.effort_limit)
                comp = extracted[c]
                self._effort_dq[c] = (u * comp.x, u * comp.y)
        return dict(self._effort_dq)

    def correction_for(self, unit: int, theta: float) -> tuple[float, float]:
        """Stationary-frame correction for one unit at fundamental angle theta."""
        return self.correction_from(self._effort_dq, theta)[unit]

    def correction_from(self, efforts: dict[int, tuple[float, float]],
                        theta: float) -> list[tuple[float, float]]:
        """Every unit's correction at angle theta from a snapshot of effort phasors.

        The components are rotated back and summed once; each unit then
        takes its rated-power share, clamped per axis.
        """
        a = 0.0
        b = 0.0
        for c, (d, q) in efforts.items():
            if d == 0.0 and q == 0.0:
                continue
            angle = c * theta
            cos_c = math.cos(angle)
            sin_c = math.sin(angle)
            a += d * cos_c - q * sin_c
            b += d * sin_c + q * cos_c
        lim = self.params.output_limit
        out = []
        for share in self.shares:
            ua = a * share
            ub = b * share
            if not (-lim <= ua <= lim and -lim <= ub <= lim):
                self.clamped = True  # sticky until the caller clears it
                ua, ub = min(max(ua, -lim), lim), min(max(ub, -lim), lim)
            out.append((ua, ub))
        return out
