import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvisland.config import from_mapping
from pvisland.errors import ConfigurationError, FrameError
from pvisland.runner import build_controllers
from pvisland.signals import (
    FrameVector,
    LowPass1,
    LowPass2,
    Pll,
    ProportionalResonant,
    ResonantTerm,
    SequenceExtractor,
    Sogi,
    ThreePhaseSample,
    clarke,
    inverse_clarke,
    inverse_clarke_xy,
    inverse_park,
    park,
    resonator_table,
)

DT = 50e-6
OMEGA = 370.0

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Reference-frame transforms
# ---------------------------------------------------------------------------

class TestClarke:
    def test_balanced_cosine_at_zero_angle(self):
        v = clarke(ThreePhaseSample(1.0, -0.5, -0.5))
        assert v.x == pytest.approx(1.0, abs=1e-15)
        assert v.y == pytest.approx(0.0, abs=1e-15)

    def test_zero_maps_to_zero(self):
        v = clarke(ThreePhaseSample(0.0, 0.0, 0.0))
        assert (v.x, v.y) == (0.0, 0.0)

    def test_amplitude_invariant_over_angle_sweep(self):
        # balanced 170 V set swept over the whole cycle keeps magnitude 170
        for theta in np.linspace(0.0, 2.0 * math.pi, 100):
            s = ThreePhaseSample(
                170.0 * math.cos(theta),
                170.0 * math.cos(theta - 2.0 * math.pi / 3.0),
                170.0 * math.cos(theta + 2.0 * math.pi / 3.0),
            )
            v = clarke(s)
            assert v.x * v.x + v.y * v.y == pytest.approx(170.0 ** 2, rel=1e-12)

    def test_inverse_of_unit_vector(self):
        s = inverse_clarke(FrameVector(1.0, 0.0))
        assert (s.a, s.b, s.c) == pytest.approx((1.0, -0.5, -0.5), abs=1e-15)

    def test_inverse_of_zero(self):
        s = inverse_clarke(FrameVector(0.0, 0.0))
        assert (s.a, s.b, s.c) == (0.0, 0.0, 0.0)

    def test_round_trip_on_random_zero_sum_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a, b = rng.uniform(-500.0, 500.0, 2)
            s = ThreePhaseSample(a, b, -a - b)
            back = inverse_clarke(clarke(s))
            assert abs(back.a - s.a) < 1e-12
            assert abs(back.b - s.b) < 1e-12
            assert abs(back.c - s.c) < 1e-12

    def test_inverse_rejects_rotating_frame(self):
        with pytest.raises(FrameError):
            inverse_clarke(FrameVector(1.0, 0.0, "dq"))


class TestPark:
    def test_identity_rotation(self):
        v = park(FrameVector(1.0, 0.0), 0.0)
        assert (v.x, v.y) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_quarter_turn(self):
        v = park(FrameVector(0.0, 1.0), math.pi / 2.0)
        assert (v.x, v.y) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_half_turn_inverse(self):
        v = inverse_park(FrameVector(1.0, 0.0, "dq"), math.pi)
        assert (v.x, v.y) == pytest.approx((-1.0, 0.0), abs=1e-12)

    @given(x=finite, y=finite, theta=angles)
    @settings(max_examples=200, deadline=None)
    def test_magnitude_preserved(self, x, y, theta):
        v = park(FrameVector(x, y), theta)
        assert math.hypot(v.x, v.y) == pytest.approx(math.hypot(x, y), abs=1e-9, rel=1e-12)

    @given(x=finite, y=finite, theta=angles)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, x, y, theta):
        v = inverse_park(park(FrameVector(x, y), theta), theta)
        assert abs(v.x - x) < 1e-9 + 1e-12 * abs(x)
        assert abs(v.y - y) < 1e-9 + 1e-12 * abs(y)

    def test_park_rejects_rotating_input(self):
        with pytest.raises(FrameError):
            park(FrameVector(1.0, 0.0, "dq"), 0.3)

    def test_inverse_park_rejects_stationary_input(self):
        with pytest.raises(FrameError):
            inverse_park(FrameVector(1.0, 0.0), 0.3)


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

class TestLowPass1:
    def test_settles_to_constant_input(self):
        f = LowPass1(2.0, DT)
        tau = 1.0 / (2.0 * math.pi * 2.0)
        y = 0.0
        for _ in range(int(10.0 * tau / DT)):
            y = f.step(5.0)
        assert y == pytest.approx(5.0, rel=1e-3)

    def test_zero_in_zero_out(self):
        f = LowPass1(2.0, DT)
        assert f.step(0.0) == 0.0

    def test_attenuation_of_fast_sinusoid(self):
        # analytic first-order response: |H| = 1/sqrt(1+(f/fc)^2)
        f_sig = 120.0
        expected = 1.0 / math.sqrt(1.0 + (f_sig / 2.0) ** 2)
        assert expected < 10.0 ** (-35.0 / 20.0)  # the 35 dB claim itself
        filt = LowPass1(2.0, DT)
        out = []
        n = int(1.0 / DT)
        for i in range(n):
            out.append(filt.step(math.sin(2.0 * math.pi * f_sig * i * DT)))
        tail = np.array(out[-int(1.0 / f_sig / DT):])
        amp = (tail.max() - tail.min()) / 2.0
        assert amp <= 10.0 ** (-35.0 / 20.0)

    def test_rejects_unstable_step(self):
        with pytest.raises(ConfigurationError):
            LowPass1(4000.0, 1e-3)


class TestLowPass2:
    def test_overdamped_step_settles_without_overshoot(self):
        f = LowPass2(5.0, 2.5, DT)
        ys = [f.step(1.0) for _ in range(int(2.0 / DT))]
        assert max(ys) <= 1.0 + 1e-9
        assert ys[-1] == pytest.approx(1.0, rel=1e-3)

    def test_zero_in_zero_out(self):
        f = LowPass2(5.0, 2.5, DT)
        assert f.step(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_attenuation_matches_analytic_magnitude(self):
        wn = 2.0 * math.pi * 5.0
        zeta = 2.5
        w = 2.0 * math.pi * 60.0
        h = wn * wn / math.sqrt((wn * wn - w * w) ** 2 + (2.0 * zeta * wn * w) ** 2)
        f = LowPass2(5.0, 2.5, DT)
        out = []
        for i in range(int(2.0 / DT)):
            out.append(f.step(math.sin(w * i * DT)))
        tail = np.array(out[-int(2.0 * math.pi / w / DT):])
        amp = (tail.max() - tail.min()) / 2.0
        assert amp == pytest.approx(h, rel=0.05)


# ---------------------------------------------------------------------------
# Quadrature generator and sequence extraction
# ---------------------------------------------------------------------------

class _PrewarpedSogi:
    """The quadrature generator with its own prewarped trapezoidal solve of
    ``v' = omega * (k * (u - v) - qv)``, ``qv' = omega * v``."""

    def __init__(self, gain=math.sqrt(2.0)):
        self.gain = gain
        self.v = 0.0
        self.qv = 0.0
        self.e_prev = 0.0

    def step(self, u, omega, dt):
        h = math.tan(0.5 * omega * dt) / omega  # effective half step
        kw = self.gain * omega
        v0, q0 = self.v, self.qv
        f1 = kw * (self.e_prev - v0) - omega * q0
        r1 = v0 + h * (f1 + kw * u)
        r2 = q0 + h * omega * v0
        # solve (I - h*A) x = r with A = [[-k*omega, -omega], [omega, 0]]
        a11 = 1.0 + h * kw
        a12 = h * omega
        det = a11 + a12 * a12
        self.v = (r1 - a12 * r2) / det
        self.qv = (a12 * r1 + a11 * r2) / det
        self.e_prev = u
        return self.v, self.qv


class TestSogi:
    def test_matches_prewarped_solve_under_drifting_frequency(self):
        # Oracle: the standalone prewarped solve, step by step over 2 s while
        # the center frequency drifts +-5 % around nominal and the input
        # carries a fundamental, a 5th harmonic and an offset.
        sog = Sogi()
        ref = _PrewarpedSogi()
        amplitude = 170.0
        worst = 0.0
        for i in range(int(2.0 / DT)):
            t = i * DT
            omega = OMEGA * (1.0 + 0.05 * math.sin(2.0 * math.pi * 0.7 * t))
            u = amplitude * (math.sin(OMEGA * t) + 0.1 * math.sin(5.0 * OMEGA * t) + 0.05)
            got = sog.step(u, omega, DT)
            want = ref.step(u, omega, DT)
            worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
        assert worst <= 1e-12 * amplitude

    def test_rejects_non_positive_frequency(self):
        with pytest.raises(ConfigurationError):
            Sogi().step(1.0, 0.0, DT)

    def test_tracks_center_frequency_with_quadrature_lag(self):
        sog = Sogi()
        cycles = int(10.0 * 2.0 * math.pi / OMEGA / DT)
        for i in range(cycles):
            sog.step(math.sin(OMEGA * i * DT), OMEGA, DT)
        n_cycle = int(round(2.0 * math.pi / OMEGA / DT))
        vs, qs = [], []
        for i in range(cycles, cycles + n_cycle):
            v, q = sog.step(math.sin(OMEGA * i * DT), OMEGA, DT)
            vs.append(v)
            qs.append(q)
        t = (cycles + np.arange(n_cycle)) * DT
        vs = np.array(vs)
        qs = np.array(qs)
        v_amp = math.hypot(2.0 * np.dot(vs, np.sin(OMEGA * t)) / n_cycle,
                           2.0 * np.dot(vs, np.cos(OMEGA * t)) / n_cycle)
        assert v_amp == pytest.approx(1.0, rel=0.02)
        # quadrature output: equal amplitude, 90 degrees behind
        qi = 2.0 * np.dot(qs, np.sin(OMEGA * t)) / n_cycle
        qq = 2.0 * np.dot(qs, np.cos(OMEGA * t)) / n_cycle
        assert math.hypot(qi, qq) == pytest.approx(1.0, rel=0.02)
        phase = math.atan2(qq, qi)
        assert abs(phase - (-math.pi / 2.0)) < math.radians(2.0)

    def test_rejects_constant_input(self):
        sog = Sogi()
        v = 0.0
        for _ in range(int(0.5 / DT)):
            v, _ = sog.step(1.0, OMEGA, DT)
        assert abs(v) < 1e-3

    def test_zero_state_zero_input(self):
        sog = Sogi()
        assert sog.step(0.0, OMEGA, DT) == (0.0, 0.0)


class TestSequenceExtractor:
    def test_pure_positive_sequence_leaves_others_empty(self):
        ext = SequenceExtractor()
        for i in range(int(0.5 / DT)):
            t = i * DT
            seq = ext.step(FrameVector(100.0 * math.cos(OMEGA * t),
                                       100.0 * math.sin(OMEGA * t)), OMEGA, DT)
        pos = seq.fundamental_pos.magnitude()
        assert pos == pytest.approx(100.0, rel=0.01)
        assert seq.fundamental_neg.magnitude() < 0.01 * pos
        for h in (3, -5, 7, -11):
            assert seq.harmonic[h].magnitude() < 0.01 * pos

    def test_composite_magnitudes_recovered(self):
        ext = SequenceExtractor()
        for i in range(int(1.0 / DT)):
            t = i * DT
            al = (100.0 * math.cos(OMEGA * t)
                  + 10.0 * math.cos(OMEGA * t + 0.5)
                  + 5.0 * math.cos(5.0 * OMEGA * t + 1.0))
            be = (100.0 * math.sin(OMEGA * t)
                  - 10.0 * math.sin(OMEGA * t + 0.5)
                  - 5.0 * math.sin(5.0 * OMEGA * t + 1.0))
            seq = ext.step(FrameVector(al, be), OMEGA, DT)
        assert seq.fundamental_pos.magnitude() == pytest.approx(100.0, rel=0.01)
        assert seq.fundamental_neg.magnitude() == pytest.approx(10.0, rel=0.01)
        assert seq.harmonic[-5].magnitude() == pytest.approx(5.0, rel=0.01)

    def test_zero_input_gives_zero_set(self):
        ext = SequenceExtractor()
        seq = ext.step(FrameVector(0.0, 0.0), OMEGA, DT)
        assert seq.fundamental_pos.magnitude() == 0.0
        assert seq.fundamental_neg.magnitude() == 0.0
        assert all(v.magnitude() == 0.0 for v in seq.harmonic.values())

    def test_requires_fundamental_orders(self):
        with pytest.raises(ConfigurationError):
            SequenceExtractor(orders=(1, 3))

    def test_closed_form_matches_matrix_solve(self):
        # Oracle: the coupled bank assembled as one matrix and advanced by an
        # exact trapezoidal solve at every step, for the frequency of that step.
        ext = SequenceExtractor()
        k = ext.gain
        bands = ext.bands
        n = 2 * len(bands)

        def trapezoid_step(x, u_sum, omega):
            a = np.zeros((n, n))
            b = np.zeros(n)
            for j, band in enumerate(bands):
                wj = (2.0 / DT) * math.tan(0.5 * band * omega * DT)
                for i in range(len(bands)):
                    a[2 * j, 2 * i] = -k * wj
                a[2 * j, 2 * j + 1] = -wj
                a[2 * j + 1, 2 * j] = wj
                b[2 * j] = k * wj
            eye = np.eye(n)
            rhs = (eye + 0.5 * DT * a) @ x + np.outer(0.5 * DT * b, u_sum)
            return np.linalg.solve(eye - 0.5 * DT * a, rhs)

        rng = np.random.default_rng(11)
        x = np.zeros((n, 2))                 # columns: alpha, beta
        u_prev = np.zeros(2)
        omega = OMEGA
        worst = 0.0
        for i in range(20000):
            omega += float(rng.normal(0.0, 0.02))   # droop ripple moves it every step
            t = i * DT
            u = np.array([100.0 * math.cos(OMEGA * t) + 8.0 * math.cos(5.0 * OMEGA * t),
                          100.0 * math.sin(OMEGA * t) - 8.0 * math.sin(5.0 * OMEGA * t)])
            u += rng.normal(0.0, 1.0, 2)
            seq = ext.step(FrameVector(*u.tolist()), omega, DT)
            x = trapezoid_step(x, u + u_prev, omega)
            u_prev = u
            got = [seq.fundamental_pos, seq.fundamental_neg, seq.harmonic[-5]]
            j1, j5 = 2 * bands.index(1), 2 * bands.index(5)
            want = [(0.5 * (x[j1, 0] - x[j1 + 1, 1]), 0.5 * (x[j1 + 1, 0] + x[j1, 1])),
                    (0.5 * (x[j1, 0] + x[j1 + 1, 1]), 0.5 * (x[j1, 1] - x[j1 + 1, 0])),
                    (0.5 * (x[j5, 0] + x[j5 + 1, 1]), 0.5 * (x[j5, 1] - x[j5 + 1, 0]))]
            for g, (wa, wb) in zip(got, want):
                worst = max(worst, abs(g.x - wa), abs(g.y - wb))
        assert worst <= 1e-10


# ---------------------------------------------------------------------------
# Phase-locked loop
# ---------------------------------------------------------------------------

def _pll():
    """The default scenario's loop: ``pll.kp``, ``pll.ki`` and ``pll.band`` at 370 rad/s."""
    return Pll(92.0, 4230.0, OMEGA, 0.5 * OMEGA, 1.5 * OMEGA)


class TestPll:
    def test_locks_onto_balanced_input(self):
        pll = _pll()
        w_true = 370.0
        n = int(0.5 / DT)
        for i in range(n):
            t = i * DT
            pll.step(FrameVector(170.0 * math.cos(w_true * t),
                                 170.0 * math.sin(w_true * t)), DT)
        assert abs(pll.omega - w_true) < 0.5

    def test_locks_from_detuned_start(self):
        pll = _pll()
        w_true = 355.0
        for i in range(int(0.5 / DT)):
            t = i * DT
            pll.step(FrameVector(170.0 * math.cos(w_true * t + 0.7),
                                 170.0 * math.sin(w_true * t + 0.7)), DT)
        assert abs(pll.omega - w_true) < 0.5

    def test_angle_advances_by_omega_dt_at_lock(self):
        pll = _pll()
        for i in range(int(0.5 / DT)):
            t = i * DT
            pll.step(FrameVector(math.cos(370.0 * t) * 170.0,
                                 math.sin(370.0 * t) * 170.0), DT)
        theta0 = pll.theta
        theta1, omega = pll.step(
            FrameVector(170.0 * math.cos(370.0 * (0.5)), 170.0 * math.sin(370.0 * 0.5)), DT)
        dtheta = (theta1 - theta0) % (2.0 * math.pi)
        assert dtheta == pytest.approx(omega * DT, rel=1e-6)

    def test_holds_frequency_without_signal(self):
        pll = _pll()
        for _ in range(1000):
            pll.step(FrameVector(0.0, 0.0), DT)
        assert pll.omega == 370.0

    def test_theta_stays_wrapped(self):
        pll = _pll()
        for i in range(5000):
            t = i * DT
            theta, _ = pll.step(FrameVector(170.0 * math.cos(370.0 * t),
                                            170.0 * math.sin(370.0 * t)), DT)
            assert 0.0 <= theta < 2.0 * math.pi


# ---------------------------------------------------------------------------
# Proportional-resonant controller
# ---------------------------------------------------------------------------

def _steady_gain(pr, order, omega, settle_s):
    # the resonant branch envelope settles with time constant 1/cutoff
    w = order * omega
    n = int(settle_s / DT)
    out = []
    for i in range(n):
        out.append(pr.step(math.sin(w * i * DT), omega, DT))
    n_cycle = int(round(2.0 * math.pi / w / DT))
    seg = np.array(out[-n_cycle:])
    t = (n - n_cycle + np.arange(n_cycle)) * DT
    a = 2.0 * np.dot(seg, np.sin(w * t)) / n_cycle
    b = 2.0 * np.dot(seg, np.cos(w * t)) / n_cycle
    return math.hypot(a, b)


class TestProportionalResonant:
    def test_degenerates_to_pure_gain(self):
        pr = ProportionalResonant(0.7, [ResonantTerm(k, 0.0, 2.0) for k in (1, 3, 5, 7)],
                                  OMEGA, DT)
        for e in (0.0, 1.0, -3.5, 0.25):
            assert pr.step(e, OMEGA, DT) == pytest.approx(0.7 * e, abs=1e-12)

    @pytest.mark.parametrize("order,kr", [(1, 50.0), (3, 20.0), (5, 20.0), (7, 20.0)])
    def test_gain_at_resonator_center(self, order, kr):
        pr = ProportionalResonant(0.05, [ResonantTerm(order, kr, 10.0)], OMEGA, DT)
        gain = _steady_gain(pr, order, OMEGA, settle_s=0.8)
        assert gain == pytest.approx(0.05 + kr, rel=0.02)

    def test_gain_at_center_with_narrow_band(self):
        pr = ProportionalResonant(0.05, [ResonantTerm(1, 50.0, 2.0)], OMEGA, DT)
        gain = _steady_gain(pr, 1, OMEGA, settle_s=3.0)
        assert gain == pytest.approx(50.05, rel=0.02)

    def test_zero_history_zero_output(self):
        pr = ProportionalResonant(0.05, [ResonantTerm(1, 50.0, 2.0)], OMEGA, DT)
        assert pr.step(0.0, OMEGA, DT) == 0.0

    def test_rejects_resonator_beyond_nyquist(self):
        with pytest.raises(ConfigurationError):
            ProportionalResonant(1.0, [ResonantTerm(99, 10.0, 2.0)], OMEGA, 1e-3)

    def test_center_tracks_moving_frequency(self):
        # detune the carrier; with the center argument following it the gain stays peaked
        pr = ProportionalResonant(0.0, [ResonantTerm(1, 50.0, 10.0)], OMEGA, DT)
        w2 = OMEGA * 1.02
        gain = _steady_gain(pr, 1, w2, settle_s=0.8)
        assert gain == pytest.approx(50.0, rel=0.02)


class TestPairedAxes:
    def test_pair_equals_two_scalar_controllers(self):
        terms = [ResonantTerm(1, 300.0, 2.0), ResonantTerm(3, 50.0, 2.0),
                 ResonantTerm(5, 50.0, 2.0), ResonantTerm(7, 50.0, 2.0)]
        pair = ProportionalResonant(0.05, terms, OMEGA, DT)
        alpha = ProportionalResonant(0.05, terms, OMEGA, DT)
        beta = ProportionalResonant(0.05, terms, OMEGA, DT)
        rng = np.random.default_rng(3)
        omega = OMEGA
        for _ in range(2000):
            omega += float(rng.normal(0.0, 0.05))  # moves every step
            ea, eb = rng.uniform(-20.0, 20.0, 2).tolist()
            rows = pair.coefficients(resonator_table(pair.orders, omega, DT), omega)
            got = pair.step_pair(ea, eb, rows)
            assert got == (alpha.step(ea, omega, DT), beta.step(eb, omega, DT))


# ---------------------------------------------------------------------------
# One resonator table per unit step
# ---------------------------------------------------------------------------

class _PerBlockExtractor:
    """The extractor step with its own per-band ``tan(0.5 * band * omega * dt)``."""

    def __init__(self, bands, gain):
        self.bands = bands
        self.gain = gain
        self.v = [[0.0] * len(bands), [0.0] * len(bands)]
        self.q = [[0.0] * len(bands), [0.0] * len(bands)]
        self.u_prev = (0.0, 0.0)

    def step(self, u, omega, dt):
        coefficients = []
        g_sum = 0.0
        for band in self.bands:
            a = math.tan(0.5 * band * omega * dt)
            n = 1.0 + a * a
            g = self.gain * a / n
            coefficients.append(((1.0 - a * a) / n, 2.0 * a / n, g, a))
            g_sum += g
        for axis in (0, 1):
            vs = self.v[axis]
            qs = self.q[axis]
            e = self.u_prev[axis] + u[axis] - sum(vs)
            ps = [c * vj - s * qj + g * e for (c, s, g, _), vj, qj in zip(coefficients, vs, qs)]
            total = sum(ps) / (1.0 + g_sum)
            for j, (_, _, g, a) in enumerate(coefficients):
                v_new = ps[j] - g * total
                qs[j] += a * (vs[j] + v_new)
                vs[j] = v_new
        self.u_prev = u


class _PerBlockPr:
    """The two-axis PR transition with its own ``tan(0.5 * wr * dt) / wr`` rows."""

    def __init__(self, pr):
        self.kp = pr.kp
        self.terms = pr.terms
        self.x1 = [[0.0] * len(self.terms), [0.0] * len(self.terms)]
        self.x2 = [[0.0] * len(self.terms), [0.0] * len(self.terms)]
        self.e_prev = [0.0, 0.0]

    def step(self, errors, omega, dt):
        coefficients = []
        for term in self.terms:
            wr = term.order * omega
            h = math.tan(0.5 * wr * dt) / wr
            hc = 2.0 * h * term.cutoff
            m12 = h * wr * wr
            det = 1.0 + hc + h * m12
            coefficients.append(((1.0 - hc - h * m12) / det, -2.0 * m12 / det, h / det, h,
                                 2.0 * term.gain * term.cutoff))
        out = []
        for k, e in enumerate(errors):
            x1 = self.x1[k]
            x2 = self.x2[k]
            s = self.e_prev[k] + e
            y = self.kp * e
            for i, (alpha, beta, gamma, h, g) in enumerate(coefficients):
                n = alpha * x1[i] + beta * x2[i] + gamma * s
                x2[i] += h * (x1[i] + n)
                x1[i] = n
                y += g * n
            self.e_prev[k] = e
            out.append(y)
        return out


class _ImplicitSolvePr(_PerBlockPr):
    """The two-axis PR step as a 2x2 implicit trapezoidal solve on every step."""

    def step(self, errors, omega, table):
        out = []
        for k, e in enumerate(errors):
            x1 = self.x1[k]
            x2 = self.x2[k]
            y = self.kp * e
            for i, term in enumerate(self.terms):
                wr = term.order * omega
                wc = term.cutoff
                h = table[term.order] / wr
                m11 = 1.0 + 2.0 * h * wc
                m12 = h * wr * wr
                det = m11 + h * m12
                a, b = x1[i], x2[i]
                r1 = a + h * (-2.0 * wc * a - wr * wr * b + self.e_prev[k] + e)
                r2 = b + h * a
                x1[i] = (r1 - m12 * r2) / det
                x2[i] = (h * r1 + m11 * r2) / det
                y += 2.0 * term.gain * wc * x1[i]
            self.e_prev[k] = e
            out.append(y)
        return out


class TestResonatorTable:
    @pytest.mark.parametrize("keys", [
        {},  # default loops: same orders and cutoff, so they share coefficient rows
        {"dg1.prv.orders": "1,3,9", "dg1.prv.wc": "2",
         "dg1.pri.orders": "1,5,7", "dg1.pri.wc": "5"},
    ], ids=["matching-loops", "mismatched-loops"])
    def test_bit_identical_to_per_block_tangents(self, keys):
        # Oracle: each block prewarping with its own tangents.  The unit's
        # controller is stepped on noisy measurements, so the droop frequency
        # moves on every step; the oracle blocks see the inputs it recorded.
        ctl = build_controllers(from_mapping(keys))[0]
        assert ctl.dt == DT  # a step covers one control period
        ext = _PerBlockExtractor(ctl.extractor.bands, ctl.extractor.gain)
        vpr = _PerBlockPr(ctl.voltage_loop.pr)
        ipr = _PerBlockPr(ctl.current_loop.pr)
        rng = np.random.default_rng(5)
        omegas = set()
        for tick in range(3000):
            t = tick * DT
            c, s = math.cos(OMEGA * t), math.sin(OMEGA * t)
            n = rng.normal(0.0, 1.0, 8).tolist()
            ila, ilb = 10.0 * c + n[4], 10.0 * s + n[5]
            row = (ila, ilb, 170.0 * c + n[0], 170.0 * s + n[1],
                   10.0 * c + 2.0 * math.cos(5.0 * OMEGA * t) + n[2],
                   10.0 * s - 2.0 * math.sin(5.0 * OMEGA * t) + n[3], 600.0, 380.0, 7.0)
            _, m = ctl.step(row, (n[6], n[7]), t)
            omega = ctl.droop.omega_ref
            omegas.add(omega)
            ext.step(ctl.extractor._u_prev, omega, DT)
            ia, ib = vpr.step(ctl.voltage_loop.pr._e_prev, omega, DT)
            va, vb = ipr.step(ctl.current_loop.pr._e_prev, omega, DT)
            assert [ext.v, ext.q] == [list(ctl.extractor._v), list(ctl.extractor._q)]
            for ref, pr in ((vpr, ctl.voltage_loop.pr), (ipr, ctl.current_loop.pr)):
                assert [ref.x1, ref.x2] == [list(pr._x1), list(pr._x2)]
            scale = min(ctl.voltage_loop.i_limit / math.hypot(ia, ib), 1.0)  # the clamp
            assert ctl.current_loop.pr._e_prev == (ia * scale - ila, ib * scale - ilb)
            assert m == inverse_clarke_xy(va / 300.0, vb / 300.0)
        assert len(omegas) > 2900

    def test_transition_tracks_the_implicit_solve(self):
        # Oracle: the same prewarped trapezoidal rule solved as a 2x2 system on
        # every step.  The transition form rounds differently, never by more
        # than 1e-9 of the state's or the output's size.
        terms = [ResonantTerm(1, 300.0, 2.0), ResonantTerm(3, 50.0, 2.0),
                 ResonantTerm(5, 50.0, 5.0), ResonantTerm(7, 50.0, 2.0),
                 ResonantTerm(11, 20.0, 2.0)]
        pr = ProportionalResonant(0.05, terms, OMEGA, DT)
        ref = _ImplicitSolvePr(pr)
        rng = np.random.default_rng(11)
        omega = OMEGA
        for tick in range(4000):
            omega += float(rng.normal(0.0, 0.05))  # moves every step
            t = tick * DT
            na, nb = rng.normal(0.0, 1.0, 2).tolist()
            ea = sum(math.cos(k * omega * t + k) for k in pr.orders) + na
            eb = sum(math.sin(k * omega * t - k) for k in pr.orders) + nb
            table = resonator_table(pr.orders, omega, DT)
            got = pr.step_pair(ea, eb, pr.coefficients(table, omega))
            want = ref.step((ea, eb), omega, table)
            for g, w in ((got, want), *zip((*pr._x1, *pr._x2), (*ref.x1, *ref.x2))):
                assert max(abs(p - q) for p, q in zip(g, w)) <= 1e-9 * max(map(abs, w))

    def test_rejects_frequency_outside_the_resonators_range(self):
        with pytest.raises(ConfigurationError):
            resonator_table([1, 3], 0.0, DT)
        with pytest.raises(ConfigurationError, match="order 11"):
            resonator_table([1, 11], 0.6 * math.pi / DT, DT)


class TestDeterminism:
    def test_block_chain_is_bit_identical(self):
        def run():
            sog = Sogi()
            pll = _pll()
            pr = ProportionalResonant(0.05, [ResonantTerm(1, 50.0, 2.0)], OMEGA, DT)
            acc = 0.0
            for i in range(2000):
                t = i * DT
                v, q = sog.step(math.sin(OMEGA * t), OMEGA, DT)
                theta, w = pll.step(FrameVector(170.0 * math.cos(OMEGA * t),
                                                170.0 * math.sin(OMEGA * t)), DT)
                acc += pr.step(v - q, OMEGA, DT) + theta + w
            return acc

        assert run() == run()
