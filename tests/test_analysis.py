import cmath
import math

import numpy as np
import pytest

from pvisland.analysis import (
    AnalysisError,
    SpectrumResult,
    TimeSeries,
    sharing_ratio,
    spectrum,
    steady_window,
    symmetrical_components,
    thd,
    vuf_from_phasors,
    vuf_measured,
)

DT = 1e-4
F1 = 60.0


def _series(samples, name="x", unit="V", dt=DT):
    return TimeSeries(name, unit, dt, np.asarray(samples))


def _tone(f, amp, phase=0.0, seconds=1.0, dt=DT):
    t = np.arange(int(seconds / dt)) * dt
    return amp * np.sin(2.0 * math.pi * f * t + phase)


class TestSpectrum:
    def test_single_tone_recovered(self):
        ts = _series(_tone(F1, 170.0))
        sp = spectrum(ts, F1, 20)
        assert sp.magnitudes[0] == pytest.approx(170.0, rel=1e-3)
        assert np.all(sp.magnitudes[1:] < 0.001 * 170.0)

    def test_two_tones_recovered(self):
        ts = _series(_tone(F1, 100.0) + _tone(5.0 * F1, 5.0, phase=0.7))
        sp = spectrum(ts, F1, 20)
        assert sp.magnitudes[0] == pytest.approx(100.0, rel=1e-3)
        assert sp.magnitudes[4] == pytest.approx(5.0, rel=1e-3)

    def test_zero_signal(self):
        sp = spectrum(_series(np.zeros(10000)), F1, 20)
        assert np.all(sp.magnitudes == 0.0)

    def test_uses_trailing_window(self):
        # first half garbage, second half a clean tone
        sig = np.concatenate([np.random.default_rng(0).normal(0, 50, 6000),
                              _tone(F1, 80.0, seconds=0.6)])
        sp = spectrum(_series(sig), F1, 20)
        assert sp.magnitudes[0] == pytest.approx(80.0, rel=1e-3)

    def test_rejects_short_series(self):
        with pytest.raises(AnalysisError):
            spectrum(_series(np.zeros(100)), F1, 20)

    def test_rejects_too_few_cycles(self):
        with pytest.raises(AnalysisError):
            spectrum(_series(np.zeros(10000)), F1, 3)


class TestThd:
    def test_single_tone_is_clean(self):
        sp = spectrum(_series(_tone(F1, 170.0)), F1, 20)
        assert thd(sp) < 0.1

    def test_hand_arithmetic_case(self):
        mags = np.zeros(50)
        mags[0] = 1.0
        mags[4] = 0.05
        mags[6] = 0.03
        sp = SpectrumResult(F1, np.arange(1, 51), mags, mags.astype(complex), 0, 0)
        expected = 100.0 * math.sqrt(0.05 ** 2 + 0.03 ** 2)
        assert expected == pytest.approx(5.8309518948453, rel=1e-12)
        assert thd(sp) == pytest.approx(expected, abs=1e-9)

    def test_scale_invariance(self):
        base = _tone(F1, 100.0) + _tone(5.0 * F1, 5.0) + _tone(7.0 * F1, 3.0)
        a = thd(spectrum(_series(base), F1, 20))
        b = thd(spectrum(_series(base * 7.3), F1, 20))
        assert a == pytest.approx(b, rel=1e-9)

    def test_flags_collapsed_fundamental(self):
        sp = SpectrumResult(F1, np.arange(1, 51), np.zeros(50),
                            np.zeros(50, dtype=complex), 0, 0)
        with pytest.raises(AnalysisError):
            thd(sp)


class TestSymmetricalComponents:
    def test_balanced_set_is_pure_positive(self):
        a = cmath.exp(2j * math.pi / 3.0)
        va = 1.0 + 0.0j
        pos, neg, zero = symmetrical_components(va, va / a, va / (a * a))
        assert abs(pos) == pytest.approx(1.0, rel=1e-12)
        assert abs(neg) < 1e-12 and abs(zero) < 1e-12

    def test_vuf_balanced_is_zero(self):
        a = cmath.exp(2j * math.pi / 3.0)
        assert vuf_from_phasors(1.0, 1.0 / a, 1.0 / (a * a)) == pytest.approx(0.0, abs=1e-9)

    def test_vuf_amplitude_bump_matches_brute_force(self):
        # brute-force oracle: explicit sequence transform of the phasors
        a = cmath.exp(2j * math.pi / 3.0)
        va, vb, vc = 1.1, 1.0 / a, 1.0 / (a * a)
        pos = (va + a * vb + a * a * vc) / 3.0
        neg = (va + a * a * vb + a * vc) / 3.0
        oracle = 100.0 * abs(neg) / abs(pos)
        assert oracle == pytest.approx(3.2258, rel=1e-4)
        assert vuf_from_phasors(va, vb, vc) == pytest.approx(oracle, rel=1e-9)

    def test_vuf_measured_matches_phasor_oracle(self):
        # 50 Hz on the 1e-4 s grid keeps every cycle an exact sample count,
        # so the window phasors are leakage-free
        f1 = 50.0
        rng = np.random.default_rng(9)
        for _ in range(10):
            mags = rng.uniform(80.0, 120.0, 3)
            phases = rng.uniform(-0.2, 0.2, 3)
            t = np.arange(int(1.0 / DT)) * DT
            w = 2.0 * math.pi * f1
            sa = mags[0] * np.cos(w * t + phases[0])
            sb = mags[1] * np.cos(w * t - 2.0 * math.pi / 3.0 + phases[1])
            sc = mags[2] * np.cos(w * t + 2.0 * math.pi / 3.0 + phases[2])
            measured = vuf_measured((_series(sa), _series(sb), _series(sc)), f1, 20)
            pa = mags[0] * cmath.exp(1j * phases[0])
            pb = mags[1] * cmath.exp(1j * (phases[1] - 2.0 * math.pi / 3.0))
            pc = mags[2] * cmath.exp(1j * (phases[2] + 2.0 * math.pi / 3.0))
            oracle = vuf_from_phasors(pa, pb, pc)
            assert measured == pytest.approx(oracle, abs=1e-6)


class TestSharing:
    def test_constant_ratio(self):
        assert sharing_ratio(1000.0, 2000.0) == pytest.approx(0.5, rel=1e-12)
        assert sharing_ratio(300.0, 600.0) == pytest.approx(0.5, rel=1e-12)

    def test_zero_window_flags_undefined(self):
        assert sharing_ratio(0.0, 0.0) is None

    def test_negligible_second_reads_undefined(self):
        # the floor is a thousandth of the larger magnitude, and at least 1e-3
        assert sharing_ratio(2000.0, 1.9) is None
        assert sharing_ratio(2000.0, 2.1) == pytest.approx(2000.0 / 2.1, rel=1e-12)
        assert sharing_ratio(0.5, 0.9e-3) is None
        assert sharing_ratio(0.5, -1.1e-3) == pytest.approx(0.5 / -1.1e-3, rel=1e-12)


class TestSteadyWindow:
    def test_constant_amplitude_spans_everything(self):
        ts = _series(_tone(F1, 100.0, seconds=1.0))
        t0, t1 = steady_window(ts, 1.0, F1)
        assert t0 < 0.05
        assert t1 == pytest.approx(1.0, rel=1e-3)

    def test_step_then_settle_detected_quickly(self):
        quiet = _tone(F1, 50.0, seconds=1.0)
        loud = 2.0 * _tone(F1, 50.0, seconds=1.0, dt=DT)
        ts = _series(np.concatenate([quiet, loud]))
        t0, t1 = steady_window(ts, 1.0, F1)
        assert t0 == pytest.approx(1.0, abs=2.0 / F1)
        assert t1 == pytest.approx(2.0, rel=1e-3)

    def test_monotone_ramp_has_no_steady_window(self):
        t = np.arange(int(1.0 / DT)) * DT
        ramp = (1.0 + 3.0 * t) * np.sin(2.0 * math.pi * F1 * t)
        with pytest.raises(AnalysisError):
            steady_window(_series(ramp), 1.0, F1)

    def test_needs_enough_cycles(self):
        with pytest.raises(AnalysisError):
            steady_window(_series(_tone(F1, 10.0, seconds=0.1)), 1.0, F1)
