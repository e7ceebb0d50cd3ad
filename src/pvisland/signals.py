"""Reference-frame transforms and discrete-time signal blocks.

Conventions used throughout the simulator:

* Clarke transform is amplitude-invariant (a balanced set of peak V maps to
  a rotating vector of magnitude V).  Every power expression downstream
  carries the matching 3/2 factor.
* All stateful blocks advance with trapezoidal (bilinear) integration.
  Resonant blocks (SOGI, PR resonators) are prewarped so that the discrete
  resonance lands exactly on the requested center frequency.
* Blocks are plain value objects: same state plus same input sequence gives
  bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError, FrameError

ALPHA_BETA = "ab"
DQ = "dq"

_SQRT3_OVER_2 = math.sqrt(3.0) / 2.0
_ONE_OVER_SQRT3 = 1.0 / math.sqrt(3.0)


@dataclass(slots=True)
class ThreePhaseSample:
    """Instantaneous per-phase values of one voltage or current."""

    a: float
    b: float
    c: float

    def __iter__(self):
        yield self.a
        yield self.b
        yield self.c


@dataclass(slots=True)
class FrameVector:
    """Two-axis vector tagged with its reference frame.

    ``frame`` is ``"ab"`` (stationary) or ``"dq"`` (rotating); rotating
    vectors carry the rotation angle ``theta`` used to produce them.
    """

    x: float
    y: float
    frame: str = ALPHA_BETA
    theta: float = 0.0

    def magnitude(self) -> float:
        return math.hypot(self.x, self.y)

    def __iter__(self):
        yield self.x
        yield self.y


def clarke(s: ThreePhaseSample) -> FrameVector:
    """abc -> alpha/beta, amplitude-invariant convention."""
    alpha = (2.0 / 3.0) * (s.a - 0.5 * s.b - 0.5 * s.c)
    beta = _ONE_OVER_SQRT3 * (s.b - s.c)
    return FrameVector(alpha, beta, ALPHA_BETA)


def inverse_clarke(v: FrameVector) -> ThreePhaseSample:
    """alpha/beta -> abc. Exact inverse of :func:`clarke` for zero-sum inputs."""
    if v.frame != ALPHA_BETA:
        raise FrameError(f"inverse_clarke expects an alpha/beta vector, got {v.frame!r}")
    a = v.x
    b = -0.5 * v.x + _SQRT3_OVER_2 * v.y
    c = -0.5 * v.x - _SQRT3_OVER_2 * v.y
    return ThreePhaseSample(a, b, c)


def park(v: FrameVector, theta: float) -> FrameVector:
    """Rotate a stationary-frame vector into a frame spinning at angle theta."""
    if v.frame != ALPHA_BETA:
        raise FrameError(f"park expects an alpha/beta vector, got {v.frame!r}")
    c = math.cos(theta)
    s = math.sin(theta)
    d = v.x * c + v.y * s
    q = -v.x * s + v.y * c
    return FrameVector(d, q, DQ, theta)


def inverse_park(v: FrameVector, theta: float) -> FrameVector:
    """Rotate a dq vector back to the stationary frame."""
    if v.frame != DQ:
        raise FrameError(f"inverse_park expects a dq vector, got {v.frame!r}")
    c = math.cos(theta)
    s = math.sin(theta)
    alpha = v.x * c - v.y * s
    beta = v.x * s + v.y * c
    return FrameVector(alpha, beta, ALPHA_BETA)


def too_coarse_for_low_pass(cutoff_hz: float, dt: float) -> bool:
    """Whether a step of ``dt`` is too long for a low-pass filter at ``cutoff_hz``."""
    return dt * 2.0 * math.pi * cutoff_hz >= 1.0


def beyond_nyquist(order: float, omega: float, dt: float) -> bool:
    """Whether a resonance at ``order * omega`` reaches the Nyquist rate of ``dt``."""
    return order * omega >= math.pi / dt


def ticks(span: float, dt: float) -> int:
    """Whole steps of ``dt`` in ``span``: the tick of a time on the step grid."""
    return int(round(span / dt))


class LowPass1:
    """First-order low-pass filter, unity DC gain, trapezoidal discretization."""

    __slots__ = ("cutoff_hz", "_a", "_b", "_y", "_x_prev", "_dt")

    def __init__(self, cutoff_hz: float, dt: float, initial: float = 0.0):
        if cutoff_hz <= 0.0:
            raise ConfigurationError("low-pass cutoff must be positive")
        if dt <= 0.0 or too_coarse_for_low_pass(cutoff_hz, dt):
            raise ConfigurationError(
                f"step {dt} s too large for {cutoff_hz} Hz low-pass filter"
            )
        wc = 2.0 * math.pi * cutoff_hz
        self.cutoff_hz = cutoff_hz
        self._dt = dt
        self._a = (2.0 - wc * dt) / (2.0 + wc * dt)
        self._b = wc * dt / (2.0 + wc * dt)
        self._y = initial
        self._x_prev = initial

    @property
    def value(self) -> float:
        return self._y

    def step(self, x: float) -> float:
        self._y = self._a * self._y + self._b * (x + self._x_prev)
        self._x_prev = x
        return self._y


class LowPass2:
    """Second-order low-pass filter with explicit damping ratio.

    Implemented as a transposed direct-form-II biquad from the bilinear
    transform; DC gain is exactly one for any cutoff/damping.
    """

    __slots__ = ("cutoff_hz", "damping", "_b0", "_b1", "_b2", "_a1", "_a2",
                 "_z1", "_z2")

    def __init__(self, cutoff_hz: float, damping: float, dt: float):
        wn = 2.0 * math.pi * cutoff_hz
        k = 2.0 / dt
        den = k * k + 2.0 * damping * wn * k + wn * wn
        self.cutoff_hz = cutoff_hz
        self.damping = damping
        self._b0 = wn * wn / den
        self._b1 = 2.0 * wn * wn / den
        self._b2 = wn * wn / den
        self._a1 = (2.0 * wn * wn - 2.0 * k * k) / den
        self._a2 = (k * k - 2.0 * damping * wn * k + wn * wn) / den
        self._z1 = 0.0
        self._z2 = 0.0

    def step(self, x: float) -> float:
        y = self._b0 * x + self._z1
        self._z1 = self._b1 * x - self._a1 * y + self._z2
        self._z2 = self._b2 * x - self._a2 * y
        return y


class Sogi:
    """Band-pass quadrature generator.

    Produces an in-phase output tracking the input component at the center
    frequency and a quadrature output lagging it by 90 degrees with equal
    amplitude.  The center frequency may move between steps (it follows the
    droop frequency in the controllers); the trapezoidal step is prewarped
    so the discrete resonance sits exactly on the requested frequency.
    """

    __slots__ = ("gain", "v", "qv", "_e_prev")

    def __init__(self, gain: float = math.sqrt(2.0)):
        self.gain = gain
        self.v = 0.0
        self.qv = 0.0
        self._e_prev = 0.0

    def peek(self, u: float, omega: float, dt: float) -> tuple[float, float]:
        """Candidate next state for input ``u``, without committing it."""
        if omega <= 0.0:
            raise ConfigurationError("SOGI center frequency must be positive")
        # Prewarped trapezoidal solve of
        #   v'  = omega*(k*(u - v) - qv)
        #   qv' = omega*v
        h = math.tan(0.5 * omega * dt) / omega  # effective half step
        kw = self.gain * omega
        v0, q0 = self.v, self.qv
        f1 = kw * (self._e_prev - v0) - omega * q0
        r1 = v0 + h * (f1 + kw * u)
        r2 = q0 + h * omega * v0
        # Solve (I - h*A) x = r with A = [[-k*omega, -omega], [omega, 0]]
        a11 = 1.0 + h * kw
        a12 = h * omega
        det = a11 + a12 * a12
        v1 = (r1 - a12 * r2) / det
        q1 = (a12 * r1 + a11 * r2) / det
        return v1, q1

    def step(self, u: float, omega: float, dt: float) -> tuple[float, float]:
        v1, q1 = self.peek(u, omega, dt)
        self.v = v1
        self.qv = q1
        self._e_prev = u
        return v1, q1


@dataclass(slots=True)
class SequenceSet:
    """Decomposition of an alpha/beta signal into rotating components.

    ``fundamental_pos``/``fundamental_neg`` are the two fundamental sequences;
    ``harmonic`` maps signed orders (positive order = positive sequence) to
    their alpha/beta vectors.
    """

    fundamental_pos: FrameVector
    fundamental_neg: FrameVector
    harmonic: dict[int, FrameVector] = field(default_factory=dict)


DEFAULT_SEQUENCE_ORDERS = (1, -1, 3, -5, 7, -11)


class SequenceExtractor:
    """Multi-band quadrature extractor with cross-feedback decoupling.

    One band-pass quadrature pair per distinct harmonic magnitude, run on
    both stationary axes.  Every band's input has the other bands' tracked
    outputs subtracted, so closely spaced components do not bias each other;
    the whole coupled bank is advanced by a single trapezoidal solve with
    each band frequency prewarped, which keeps steady-state extraction exact
    at the band centers.  The positive/negative split at each frequency
    comes from the quadrature outputs.

    Per axis and band ``j`` with in-phase/quadrature states ``v_j, q_j``
    (the multiple-SOGI network of Rodriguez et al., IEEE TIE 58(1), 2011)::

        v_j' = w_j * (k * (u - sum_i v_i) - q_j)
        q_j' = w_j * v_j

    Each band alone is a 2x2 rotation; the coupling is rank one (every band
    sees the same sum), so the trapezoidal step has an exact O(n) solution.
    With ``a_j = tan(band_j * omega * dt / 2)`` (the prewarped
    ``w_j * dt / 2``), ``g_j = k * a_j / (1 + a_j**2)`` and ``U`` the sum of
    the previous and the present input::

        P_j   = ((1 - a_j**2) * v_j - 2 * a_j * q_j) / (1 + a_j**2)
                + g_j * (U - sum_i v_i)
        S     = sum_j P_j / (1 + sum_j g_j)          # new sum of v
        v_j+  = P_j - g_j * S
        q_j+  = q_j + a_j * (v_j + v_j+)
    """

    def __init__(self, orders=DEFAULT_SEQUENCE_ORDERS, gain: float = math.sqrt(2.0)):
        orders = tuple(orders)
        if 1 not in orders or -1 not in orders:
            raise ConfigurationError("sequence extractor needs both fundamental sequences")
        self.orders = orders
        self.gain = gain
        self.bands = sorted({abs(o) for o in orders})
        self._band_index = {b: i for i, b in enumerate(self.bands)}
        n = len(self.bands)
        self._v = [[0.0] * n, [0.0] * n]    # per axis (alpha, beta), per band
        self._q = [[0.0] * n, [0.0] * n]
        self._u_prev = (0.0, 0.0)

    def _rebuild(self, omega: float, dt: float):
        """Per-band coefficients ``(c_j, s_j, g_j, a_j)`` and ``1 + sum_j g_j``.

        Computed on every step, as the droop frequency moves on nearly every
        one; the benchmark's ``control.extractor.rebuilds`` counter counts calls.
        """
        if omega <= 0.0 or dt <= 0.0:
            raise ConfigurationError("sequence extractor needs positive frequency and step")
        if beyond_nyquist(self.bands[-1], omega, dt):
            raise ConfigurationError(
                f"band at order {self.bands[-1]} exceeds the Nyquist rate for dt={dt}"
            )
        k = self.gain
        coefficients = []
        g_sum = 0.0
        for band in self.bands:
            a = math.tan(0.5 * band * omega * dt)
            n = 1.0 + a * a
            g = k * a / n
            coefficients.append(((1.0 - a * a) / n, 2.0 * a / n, g, a))
            g_sum += g
        return coefficients, 1.0 + g_sum

    def step(self, v: FrameVector, omega: float, dt: float) -> SequenceSet:
        if v.frame != ALPHA_BETA:
            raise FrameError("sequence extractor expects an alpha/beta input")
        coefficients, denominator = self._rebuild(omega, dt)
        u = (v.x, v.y)
        for axis in (0, 1):
            vs = self._v[axis]
            qs = self._q[axis]
            e = self._u_prev[axis] + u[axis] - sum(vs)
            ps = [c * vj - s * qj + g * e
                  for (c, s, g, _), vj, qj in zip(coefficients, vs, qs)]
            total = sum(ps) / denominator
            for j, (_, _, g, a) in enumerate(coefficients):
                v_new = ps[j] - g * total
                qs[j] += a * (vs[j] + v_new)
                vs[j] = v_new
        self._u_prev = u
        (va_s, vb_s), (qa_s, qb_s) = self._v, self._q

        def positive(band):
            i = self._band_index[band]
            return FrameVector(0.5 * (va_s[i] - qb_s[i]), 0.5 * (qa_s[i] + vb_s[i]), ALPHA_BETA)

        def negative(band):
            i = self._band_index[band]
            return FrameVector(0.5 * (va_s[i] + qb_s[i]), 0.5 * (vb_s[i] - qa_s[i]), ALPHA_BETA)

        harm = {}
        for order in self.orders:
            if order in (1, -1):
                continue
            harm[order] = positive(abs(order)) if order > 0 else negative(abs(order))
        return SequenceSet(positive(1), negative(1), harm)


class Pll:
    """Synchronous-reference-frame phase-locked loop.

    The quadrature error is normalized by the input magnitude so the loop
    bandwidth does not depend on signal amplitude; with the default gains the
    natural frequency is about 10 Hz with damping near 0.7.
    """

    __slots__ = ("kp", "ki", "omega_min", "omega_max", "theta", "omega",
                 "_omega_ff", "_integral", "_e_prev", "_amp_floor")

    def __init__(self, kp: float = 92.0, ki: float = 4230.0,
                 omega_init: float = 370.0,
                 omega_min: float = 0.5 * 370.0, omega_max: float = 1.5 * 370.0,
                 amp_floor: float = 1.0):
        self.kp = kp
        self.ki = ki
        self.omega_min = omega_min
        self.omega_max = omega_max
        self.theta = 0.0
        self.omega = omega_init
        self._omega_ff = omega_init
        self._integral = 0.0
        self._e_prev = 0.0
        self._amp_floor = amp_floor

    def step(self, v: FrameVector, dt: float) -> tuple[float, float]:
        amp = math.hypot(v.x, v.y)
        if amp < self._amp_floor:
            # No usable error signal; hold frequency and keep spinning.
            self._e_prev = 0.0
            self.theta = (self.theta + self.omega * dt) % (2.0 * math.pi)
            return self.theta, self.omega
        sin_t = math.sin(self.theta)
        cos_t = math.cos(self.theta)
        e = (-v.x * sin_t + v.y * cos_t) / amp
        self._integral += 0.5 * self.ki * dt * (e + self._e_prev)
        self._e_prev = e
        omega = self._omega_ff + self.kp * e + self._integral
        omega = min(max(omega, self.omega_min), self.omega_max)
        self.omega = omega
        self.theta = (self.theta + omega * dt) % (2.0 * math.pi)
        return self.theta, self.omega


@dataclass(frozen=True)
class ResonantTerm:
    """One resonant branch of a proportional-resonant controller."""

    order: int
    gain: float
    cutoff: float  # rad/s bandwidth of the resonant peak


class ProportionalResonant:
    """Proportional controller with resonant branches at selected harmonics.

    The transfer gain at each branch center equals ``kp + gain`` by
    construction; branch centers track the frequency passed to :meth:`step`
    so droop deviations do not detune them.  One controller may regulate
    several axes with identical gains (``axes``): :meth:`step_axes` advances
    all of them with one set of resonator coefficients per step,
    and each axis evolves exactly as a scalar controller would.
    """

    def __init__(self, kp: float, terms: list[ResonantTerm], omega_nominal: float, dt: float,
                 axes: int = 1):
        self.kp = kp
        self.terms = list(terms)
        for term in self.terms:
            if beyond_nyquist(term.order, omega_nominal, dt):
                raise ConfigurationError(
                    f"resonator at order {term.order} exceeds the Nyquist rate for dt={dt}"
                )
        # per axis: resonator states, one entry per term
        self._x1 = [[0.0] * len(self.terms) for _ in range(axes)]
        self._x2 = [[0.0] * len(self.terms) for _ in range(axes)]
        self._e_prev = [0.0] * axes

    def _coefficients(self, omega: float, dt: float) -> list[tuple]:
        # Prewarped trapezoidal solve of each resonator in control canonical
        # form:
        #   x1' = -2*wc*x1 - wr^2*x2 + e
        #   x2' = x1
        #   y   = 2*gain*wc*x1
        coefficients = []
        for term in self.terms:
            wr = term.order * omega
            wc = term.cutoff
            h = math.tan(0.5 * wr * dt) / wr
            m11 = 1.0 + 2.0 * h * wc
            m12 = h * wr * wr
            coefficients.append((h, -2.0 * wc, wr * wr, m11, m12, m11 + h * m12,
                                 2.0 * term.gain * wc))
        return coefficients

    def step_axes(self, errors, omega: float, dt: float) -> list[float]:
        """Advance every axis by one step; returns one output per axis."""
        kp = self.kp
        coefficients = self._coefficients(omega, dt)
        e_prev = self._e_prev
        out = []
        for k, e in enumerate(errors):
            ep = e_prev[k]
            x1 = self._x1[k]
            x2 = self._x2[k]
            y = kp * e
            for i, (h, c1, w2, m11, m12, det, g) in enumerate(coefficients):
                a = x1[i]
                b = x2[i]
                r1 = a + h * (c1 * a - w2 * b + ep + e)
                r2 = b + h * a
                a_new = (r1 - m12 * r2) / det
                x1[i] = a_new
                x2[i] = (h * r1 + m11 * r2) / det
                y += g * a_new
            e_prev[k] = e
            out.append(y)
        return out

    def step(self, e: float, omega: float, dt: float) -> float:
        """Single-axis step (a controller built with ``axes=1``)."""
        return self.step_axes((e,), omega, dt)[0]
