"""PV string curve, calibrated to its datasheet corners.

Plain Python floats, so the scenario checks can build every unit's curve
without loading the plant or NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ConfigurationError

if TYPE_CHECKING:
    from .config import PvConfig


@dataclass
class PvParams:
    """Single-diode-shaped PV source, calibrated to its datasheet corners.

    The diode voltage scale is solved at construction so the curve passes
    through (v_mp, i_mp); the curve then peaks at the rated power within a
    fraction of a percent.
    """

    rated_w: float
    v_oc: float
    i_sc: float
    v_mp: float
    i_mp: float

    _v_scale: float = field(init=False, repr=False)
    _i_dark: float = field(init=False, repr=False)

    def __post_init__(self):
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
            raise ConfigurationError("PV datasheet corners do not describe a diode-like curve")
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if residual(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        self._v_scale = math.sqrt(lo * hi)
        if self.v_oc > 700.0 * self._v_scale:  # expm1 overflows past 709.78
            raise ConfigurationError("PV datasheet corners give a curve too steep to evaluate")
        self._i_dark = self.i_sc / math.expm1(self.v_oc / self._v_scale)


def pv_params(pv: PvConfig) -> PvParams:
    """The curve of one unit's ``pv.*`` keys."""
    return PvParams(pv.rated_w, pv.v_oc, pv.i_sc, pv.v_mp, pv.i_mp)


def pv_current(v_pv: float, irradiance: float, p: PvParams) -> float:
    """Terminal current of the PV string at a given voltage and irradiance.

    Past open circuit the diode conducts and the string sinks current.
    """
    if v_pv < 0.0:
        raise ConfigurationError("PV terminal voltage must be non-negative")
    return irradiance * p.i_sc - p._i_dark * math.expm1(v_pv / p._v_scale)
