"""Post-processing: spectra, distortion and unbalance metrics, sharing ratios.

Everything here is a pure function of recorded time series; identical
inputs give identical reports.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .params import MAX_HARMONIC_ORDER, MIN_STEADY_CYCLES


@dataclass
class TimeSeries:
    name: str
    unit: str
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.dt <= 0.0:
            raise AnalysisError(f"{self.name}: sampling step must be positive")


@dataclass
class SpectrumResult:
    fundamental_hz: float
    orders: np.ndarray          # 1..max_order
    magnitudes: np.ndarray      # peak amplitude per order
    phasors: np.ndarray         # complex phasor per order (cosine reference)
    window_samples: int
    window_cycles: int


def spectrum(ts: TimeSeries, f1: float, cycles: int, max_order: int = MAX_HARMONIC_ORDER
             ) -> SpectrumResult:
    """Single-sided DFT magnitudes at integer multiples of the fundamental.

    Evaluated over the trailing window spanning a whole number of
    fundamental cycles, rectangular weighting; with the window locked to an
    integer cycle count the tone magnitudes are leakage-free.
    """
    if cycles < 5:
        raise AnalysisError("spectrum needs at least 5 fundamental cycles")
    if f1 <= 0.0:
        raise AnalysisError("fundamental frequency must be positive")
    n = int(round(cycles / (f1 * ts.dt)))
    if n > len(ts.samples):
        raise AnalysisError(
            f"{ts.name}: need {n} samples for {cycles} cycles at {f1:.2f} Hz, "
            f"have {len(ts.samples)}")
    window = ts.samples[len(ts.samples) - n:]
    f1_eff = cycles / (n * ts.dt)
    fft = np.fft.rfft(window)
    max_order = min(max_order, (n // (2 * cycles)))
    orders = np.arange(1, max_order + 1)
    bins = orders * cycles
    phasors = 2.0 * fft[bins] / n
    return SpectrumResult(
        fundamental_hz=f1_eff,
        orders=orders,
        magnitudes=np.abs(phasors),
        phasors=phasors,
        window_samples=n,
        window_cycles=cycles,
    )


def thd(sp: SpectrumResult) -> float:
    """Total harmonic distortion in percent of the fundamental, up to ``MAX_HARMONIC_ORDER``."""
    m1 = sp.magnitudes[0]
    if m1 < 1e-9:
        raise AnalysisError("fundamental magnitude too small for a distortion ratio")
    rest = sp.magnitudes[1:MAX_HARMONIC_ORDER]
    return 100.0 * math.sqrt(float(np.sum(rest * rest))) / m1


def symmetrical_components(va: complex, vb: complex, vc: complex
                           ) -> tuple[complex, complex, complex]:
    """Positive, negative and zero sequence of three phasors."""
    a = cmath.exp(2j * math.pi / 3.0)
    pos = (va + a * vb + a * a * vc) / 3.0
    neg = (va + a * a * vb + a * vc) / 3.0
    zero = (va + vb + vc) / 3.0
    return pos, neg, zero


def vuf_from_phasors(va: complex, vb: complex, vc: complex) -> float:
    pos, neg, _ = symmetrical_components(va, vb, vc)
    if abs(pos) < 1e-9:
        raise AnalysisError("positive sequence collapsed; unbalance undefined")
    return 100.0 * abs(neg) / abs(pos)


def vuf_measured(v_abc: tuple[TimeSeries, TimeSeries, TimeSeries], f1: float,
                 cycles: int) -> float:
    """Unbalance factor from measured waveforms, in percent.

    Fundamental phasors per phase by DFT over the trailing integer-cycle
    window, then the sequence decomposition.
    """
    phasors = []
    for ts in v_abc:
        sp = spectrum(ts, f1, cycles, max_order=1)
        phasors.append(complex(sp.phasors[0]))
    return vuf_from_phasors(*phasors)


@dataclass
class SharingRatios:
    p_ratio: float | None
    q_ratio: float | None


def sharing_ratio(first: float, second: float) -> float | None:
    """``first / second`` of two mean powers; None while ``second`` is negligible."""
    floor = 1e-3 * max(abs(first), abs(second), 1.0)
    return first / second if abs(second) > floor else None


def steady_window(ts: TimeSeries, rel_tol: float, f1: float,
                  min_cycles: int = 5) -> tuple[float, float]:
    """Trailing span over which the cycle RMS varies less than ``rel_tol`` percent.

    Returns (t_start, t_end).  Raises if no such span of at least
    ``min_cycles`` cycles exists.
    """
    n_cycle = int(round(1.0 / (f1 * ts.dt)))
    n_cycles = len(ts.samples) // n_cycle
    if n_cycles < MIN_STEADY_CYCLES:
        raise AnalysisError(
            f"{ts.name}: need at least {MIN_STEADY_CYCLES} cycles to detect steady state")
    tail = ts.samples[len(ts.samples) - n_cycles * n_cycle:]
    rms = np.sqrt(np.mean(tail.reshape(n_cycles, n_cycle) ** 2, axis=1))
    ref = rms[-1]
    if ref <= 0.0:
        raise AnalysisError(f"{ts.name}: zero signal, steady window undefined")
    lo = hi = ref
    start = n_cycles
    for i in range(n_cycles - 1, -1, -1):
        lo2 = min(lo, rms[i])
        hi2 = max(hi, rms[i])
        mid = 0.5 * (lo2 + hi2)
        if mid <= 0.0 or 100.0 * (hi2 - lo2) / mid > rel_tol:
            break
        lo, hi = lo2, hi2
        start = i
    if n_cycles - start < min_cycles:
        raise AnalysisError(
            f"{ts.name}: no steady window of {min_cycles} cycles at {rel_tol}% tolerance")
    offset = len(ts.samples) - n_cycles * n_cycle
    t_start = (offset + start * n_cycle) * ts.dt
    t_end = len(ts.samples) * ts.dt
    return t_start, t_end


@dataclass
class MetricsReport:
    """Steady-state quality and sharing summary of one run."""

    window: tuple[float, float]
    # False when no ten settled cycles follow the last event and the window
    # is the run's last ten cycles
    window_settled: bool
    fundamental_hz: float
    thd_percent: dict[str, float]
    vuf_percent: float
    p_watts: tuple[float, ...]
    q_vars: tuple[float, ...]
    sharing: SharingRatios
    v_dc_stats: list[dict[str, float]]
    curtailment_percent: float
    # Run-only quantities; None (printed as "unavailable") when the report is
    # rebuilt from recorded channels, which do not carry them.
    energy_audit_percent: float | None
    max_kcl_residual: float | None
    flags: list[tuple[float, str, str]] | None
    flags_dropped: int | None
    mode_transitions: list[tuple[float, str, str]] | None
    pre_window: tuple[float, float] | None
    pre_thd_percent: dict[str, float] | None
    pre_vuf_percent: float | None

    def lines(self) -> list[str]:
        out = []
        out.append(f"window_start_s = {self.window[0]:.6f}")
        out.append(f"window_end_s = {self.window[1]:.6f}")
        out.append(f"window_settled = {'true' if self.window_settled else 'false'}")
        out.append(f"fundamental_hz = {self.fundamental_hz:.6f}")
        for phase, value in self.thd_percent.items():
            out.append(f"thd_{phase}_percent = {value:.6f}")
        out.append(f"vuf_percent = {self.vuf_percent:.6f}")
        for i, (p, q) in enumerate(zip(self.p_watts, self.q_vars), start=1):
            out.append(f"dg{i}_p_watts = {p:.3f}")
            out.append(f"dg{i}_q_vars = {q:.3f}")
        for name, ratio in (("p", self.sharing.p_ratio), ("q", self.sharing.q_ratio)):
            out.append(f"{name}_sharing_ratio = "
                       + ("undefined" if ratio is None else f"{ratio:.6f}"))
        for i, st in enumerate(self.v_dc_stats, start=1):
            out.append(f"dg{i}_vdc_mean = {st['mean']:.3f}")
            out.append(f"dg{i}_vdc_min = {st['min']:.3f}")
            out.append(f"dg{i}_vdc_max = {st['max']:.3f}")
        out.append(f"curtailment_percent = {self.curtailment_percent:.4f}")
        out.append(f"energy_audit_percent = {_known(self.energy_audit_percent, '.6f')}")
        out.append(f"max_kcl_residual_amps = {_known(self.max_kcl_residual, '.3e')}")
        if self.pre_window is not None:
            out.append(f"pre_window_start_s = {self.pre_window[0]:.6f}")
            out.append(f"pre_window_end_s = {self.pre_window[1]:.6f}")
            for phase, value in (self.pre_thd_percent or {}).items():
                out.append(f"pre_thd_{phase}_percent = {value:.6f}")
            if self.pre_vuf_percent is not None:
                out.append(f"pre_vuf_percent = {self.pre_vuf_percent:.6f}")
        for name, events in (("mode_transition", self.mode_transitions),
                             ("flag", self.flags)):
            if events is None:
                out.append(f"{name}_count = unavailable")
                continue
            out.append(f"{name}_count = {len(events)}")
            for t, who, what in events:
                out.append(f"{name} = {t:.6f} {who} {what}")
        out.append(f"flag_dropped_count = {_known(self.flags_dropped, 'd')}")
        return out


def _known(value: float | None, spec: str) -> str:
    return "unavailable" if value is None else format(value, spec)
