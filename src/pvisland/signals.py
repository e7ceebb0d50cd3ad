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


def clarke_xy(a: float, b: float, c: float) -> tuple[float, float]:
    """abc -> alpha/beta, amplitude-invariant convention."""
    return (2.0 / 3.0) * (a - 0.5 * b - 0.5 * c), _ONE_OVER_SQRT3 * (b - c)


def inverse_clarke_xy(x: float, y: float) -> tuple[float, float, float]:
    """alpha/beta -> abc. Exact inverse of :func:`clarke_xy` for zero-sum inputs."""
    return x, -0.5 * x + _SQRT3_OVER_2 * y, -0.5 * x - _SQRT3_OVER_2 * y


def park_xy(x: float, y: float, theta: float) -> tuple[float, float]:
    """Rotate a stationary-frame pair into a frame spinning at angle theta."""
    c = math.cos(theta)
    s = math.sin(theta)
    return x * c + y * s, -x * s + y * c


def inverse_park_xy(d: float, q: float, theta: float) -> tuple[float, float]:
    """Rotate a rotating-frame pair back to the stationary frame."""
    c = math.cos(theta)
    s = math.sin(theta)
    return d * c - q * s, d * s + q * c


def clarke(s: ThreePhaseSample) -> FrameVector:
    """Typed :func:`clarke_xy`."""
    return FrameVector(*clarke_xy(s.a, s.b, s.c), ALPHA_BETA)


def inverse_clarke(v: FrameVector) -> ThreePhaseSample:
    """Typed :func:`inverse_clarke_xy`; the input must be an alpha/beta vector."""
    if v.frame != ALPHA_BETA:
        raise FrameError(f"inverse_clarke expects an alpha/beta vector, got {v.frame!r}")
    return ThreePhaseSample(*inverse_clarke_xy(v.x, v.y))


def park(v: FrameVector, theta: float) -> FrameVector:
    """Typed :func:`park_xy`; the input must be an alpha/beta vector."""
    if v.frame != ALPHA_BETA:
        raise FrameError(f"park expects an alpha/beta vector, got {v.frame!r}")
    return FrameVector(*park_xy(v.x, v.y, theta), DQ, theta)


def inverse_park(v: FrameVector, theta: float) -> FrameVector:
    """Typed :func:`inverse_park_xy`; the input must be a dq vector."""
    if v.frame != DQ:
        raise FrameError(f"inverse_park expects a dq vector, got {v.frame!r}")
    return FrameVector(*inverse_park_xy(v.x, v.y, theta), ALPHA_BETA)


# Step rules: what a step must resolve.  The scenario checks call the same
# rules as the blocks and the report that rely on them.

#: Highest harmonic order :func:`pvisland.analysis.spectrum` resolves and
#: :func:`pvisland.analysis.thd` sums.
MAX_HARMONIC_ORDER = 50

#: Whole fundamental cycles :func:`pvisland.analysis.steady_window` needs before it searches.
MIN_STEADY_CYCLES = 20


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


class LowPass1:
    """First-order low-pass filter, unity DC gain, trapezoidal discretization."""

    __slots__ = ("_a", "_b", "_y", "_x_prev")

    def __init__(self, cutoff_hz: float, dt: float):
        if cutoff_hz <= 0.0:
            raise ConfigurationError("low-pass cutoff must be positive")
        if dt <= 0.0 or too_coarse_for_low_pass(cutoff_hz, dt):
            raise ConfigurationError(
                f"step {dt} s too large for {cutoff_hz} Hz low-pass filter"
            )
        wc = 2.0 * math.pi * cutoff_hz
        self._a = (2.0 - wc * dt) / (2.0 + wc * dt)
        self._b = wc * dt / (2.0 + wc * dt)
        self._y = 0.0
        self._x_prev = 0.0

    def step(self, x: float) -> float:
        self._y = self._a * self._y + self._b * (x + self._x_prev)
        self._x_prev = x
        return self._y


class LowPass2:
    """Second-order low-pass filter with explicit damping ratio.

    Implemented as a transposed direct-form-II biquad from the bilinear
    transform; DC gain is exactly one for any cutoff/damping.
    """

    __slots__ = ("_b0", "_b1", "_b2", "_a1", "_a2", "_z1", "_z2")

    def __init__(self, cutoff_hz: float, damping: float, dt: float):
        wn = 2.0 * math.pi * cutoff_hz
        k = 2.0 / dt
        den = k * k + 2.0 * damping * wn * k + wn * wn
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


def resonator_table(orders, omega: float, dt: float) -> dict[int, float]:
    """Prewarped half-step tangents ``tan(0.5 * k * omega * dt)``, one row per order.

    The extractor's bands and the proportional-resonant loops prewarp alike,
    so one table per step serves all of them.  ``orders`` is ascending.
    """
    if not (omega > 0.0 and dt > 0.0 and orders[-1] * omega < math.pi / dt):
        raise ConfigurationError(f"resonances up to order {orders[-1]} need a frequency "
                                 f"between 0 and the Nyquist rate of dt={dt}; got {omega}")
    return {k: math.tan(0.5 * k * omega * dt) for k in orders}


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


#: The signed orders the extractors separate: both fundamental sequences,
#: then the harmonics the virtual impedance and the compensator act on.
DEFAULT_SEQUENCE_ORDERS = (1, -1, 3, -5, 7, -11)
HARMONIC_ORDERS = DEFAULT_SEQUENCE_ORDERS[2:]


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

    The ``a_j`` come from a :func:`resonator_table` row per band, the same
    table that feeds the unit's proportional-resonant loops.
    """

    def __init__(self, orders=DEFAULT_SEQUENCE_ORDERS, gain: float = math.sqrt(2.0)):
        orders = tuple(orders)
        if 1 not in orders or -1 not in orders:
            raise ConfigurationError("sequence extractor needs both fundamental sequences")
        self.orders = orders
        self.gain = gain
        self.bands = sorted({abs(o) for o in orders})
        # each order's band and whether it is the band's positive sequence
        self._taps = [(self.bands.index(abs(o)), o > 0) for o in orders]
        n = len(self.bands)
        self._v = ([0.0] * n, [0.0] * n)    # per axis (alpha, beta), per band
        self._q = ([0.0] * n, [0.0] * n)
        self._u_prev = (0.0, 0.0)

    def _rebuild(self, table: dict[int, float]):
        """Per-band coefficients ``(c_j, s_j, g_j, a_j)`` and ``1 + sum_j g_j``.

        Refreshed from each step's resonator table, as the droop frequency
        moves on nearly every step; ``control.extractor.rebuilds`` counts calls.
        """
        k = self.gain
        coefficients = []
        g_sum = 0.0
        for band in self.bands:
            a = table[band]
            n = 1.0 + a * a
            g = k * a / n
            coefficients.append(((1.0 - a * a) / n, 2.0 * a / n, g, a))
            g_sum += g
        return coefficients, 1.0 + g_sum

    def advance(self, x: float, y: float, table: dict[int, float]):
        """One step on the alpha/beta input ``(x, y)``."""
        coefficients, denominator = self._rebuild(table)
        (ua, ub), (va, vb), (qa, qb) = self._u_prev, self._v, self._q
        ea, eb = ua + x - sum(va), ub + y - sum(vb)
        pa, pb = [], []
        for (c, s, g, _), vj, qj, vk, qk in zip(coefficients, va, qa, vb, qb):
            pa.append(c * vj - s * qj + g * ea)
            pb.append(c * vk - s * qk + g * eb)
        ta = sum(pa) / denominator
        tb = sum(pb) / denominator
        for j, (_, _, g, a) in enumerate(coefficients):
            v_new = pa[j] - g * ta
            qa[j] += a * (va[j] + v_new)
            va[j] = v_new
            v_new = pb[j] - g * tb
            qb[j] += a * (vb[j] + v_new)
            vb[j] = v_new
        self._u_prev = (x, y)

    def components(self) -> list[tuple[float, float]]:
        """Alpha/beta pair of each of ``orders``, in that order, as of the last step."""
        (va, vb), (qa, qb) = self._v, self._q
        out = []
        for i, positive in self._taps:
            if positive:
                out.append((0.5 * (va[i] - qb[i]), 0.5 * (qa[i] + vb[i])))
            else:
                out.append((0.5 * (va[i] + qb[i]), 0.5 * (vb[i] - qa[i])))
        return out

    def sequences(self) -> SequenceSet:
        """Every configured component as of the last step."""
        pairs = {o: FrameVector(*pair) for o, pair in zip(self.orders, self.components())}
        return SequenceSet(pairs.pop(1), pairs.pop(-1), pairs)

    def step(self, v: FrameVector, omega: float, dt: float) -> SequenceSet:
        if v.frame != ALPHA_BETA:
            raise FrameError("sequence extractor expects an alpha/beta input")
        self.advance(v.x, v.y, resonator_table(self.bands, omega, dt))
        return self.sequences()


class Sogi:
    """Band-pass quadrature generator: one band of :class:`SequenceExtractor` on one axis.

    Produces an in-phase output tracking the input component at the center
    frequency and a quadrature output lagging it by 90 degrees with equal
    amplitude.  The center frequency may move between steps.
    """

    __slots__ = ("_band",)

    def __init__(self, gain: float = math.sqrt(2.0)):
        self._band = SequenceExtractor((1, -1), gain)

    def step(self, u: float, omega: float, dt: float) -> tuple[float, float]:
        """In-phase and quadrature outputs after one step on input ``u``."""
        self._band.advance(u, 0.0, resonator_table((1,), omega, dt))
        (va, _), (qa, _) = self._band._v, self._band._q
        return va[0], qa[0]


class Pll:
    """Synchronous-reference-frame phase-locked loop.

    The quadrature error is normalized by the input magnitude so the loop
    bandwidth does not depend on signal amplitude; with the default ``pll.kp``
    and ``pll.ki`` the natural frequency is about 10 Hz with damping near 0.7.
    """

    __slots__ = ("kp", "ki", "omega_min", "omega_max", "theta", "omega",
                 "_omega_ff", "_integral", "_e_prev")

    #: Input magnitude below which the error is unusable and the loop coasts.
    AMP_FLOOR = 1.0

    def __init__(self, kp: float, ki: float, omega_init: float, omega_min: float,
                 omega_max: float):
        self.kp = kp
        self.ki = ki
        self.omega_min = omega_min
        self.omega_max = omega_max
        self.theta = 0.0
        self.omega = omega_init
        self._omega_ff = omega_init
        self._integral = 0.0
        self._e_prev = 0.0

    def step(self, v, dt: float) -> tuple[float, float]:
        """Advance on the alpha/beta pair ``v``; returns (angle, frequency)."""
        x, y = v
        amp = math.hypot(x, y)
        if amp < self.AMP_FLOOR:
            # No usable error signal; hold frequency and keep spinning.
            self._e_prev = 0.0
            self.theta = (self.theta + self.omega * dt) % (2.0 * math.pi)
            return self.theta, self.omega
        sin_t = math.sin(self.theta)
        cos_t = math.cos(self.theta)
        e = (-x * sin_t + y * cos_t) / amp
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
    construction; branch centers track the frequency the coefficients are
    taken at, so droop deviations do not detune them.  The controller
    regulates a pair of axes with identical gains; :meth:`step_pair`
    advances both with one set of resonator coefficients, and each axis
    evolves exactly as a scalar controller would.
    """

    def __init__(self, kp: float, terms: list[ResonantTerm], omega_nominal: float, dt: float):
        self.kp = kp
        self.terms = list(terms)
        for term in self.terms:
            if beyond_nyquist(term.order, omega_nominal, dt):
                raise ConfigurationError(
                    f"resonator at order {term.order} exceeds the Nyquist rate for dt={dt}"
                )
        self.orders = sorted({term.order for term in self.terms})
        self._gains = [2.0 * term.gain * term.cutoff for term in self.terms]
        # per axis (alpha, beta): resonator states, one entry per term
        self._x1 = ([0.0] * len(self.terms), [0.0] * len(self.terms))
        self._x2 = ([0.0] * len(self.terms), [0.0] * len(self.terms))
        self._e_prev = (0.0, 0.0)

    def coefficients(self, table: dict[int, float], omega: float) -> list[tuple]:
        """Per-term one-step transitions ``(alpha, beta, gamma, h)`` at ``omega``.

        Each resonator is ``x1' = -2*wc*x1 - wr^2*x2 + e``, ``x2' = x1``,
        ``y = 2*gain*wc*x1`` in control canonical form, stepped by the
        trapezoidal rule prewarped to ``wr``: ``h = tan(0.5*wr*dt) / wr``, the
        tangent read from a :func:`resonator_table`.  The rule's 2x2 implicit
        system is solved here, once per table, into a one-step transition::

            m12 = h * wr**2,   det = 1 + 2*h*wc + h*m12
            x1+ = alpha*x1 + beta*x2 + gamma*(e + e_prev)
            x2+ = x2 + h*(x1 + x1+)

        with ``alpha = (1 - 2*h*wc - h*m12) / det``, ``beta = -2*m12 / det``
        and ``gamma = h / det``.  Gains do not enter, so controllers with
        equal terms can share them.
        """
        coefficients = []
        for term in self.terms:
            wr = term.order * omega
            h = table[term.order] / wr
            hc = 2.0 * h * term.cutoff
            m12 = h * wr * wr
            det = 1.0 + hc + h * m12
            coefficients.append(((1.0 - hc - h * m12) / det, -2.0 * m12 / det, h / det, h))
        return coefficients

    def step_pair(self, ea: float, eb: float, coefficients: list[tuple]) -> tuple[float, float]:
        """Advance both axes by one step on errors ``(ea, eb)`` with :meth:`coefficients` rows."""
        (pa, pb), (x1a, x1b), (x2a, x2b) = self._e_prev, self._x1, self._x2
        sa, sb = pa + ea, pb + eb
        ya, yb = self.kp * ea, self.kp * eb
        for i, ((alpha, beta, gamma, h), g) in enumerate(zip(coefficients, self._gains)):
            a = x1a[i]
            x1a[i] = n = alpha * a + beta * x2a[i] + gamma * sa
            x2a[i] += h * (a + n)
            ya += g * n
            a = x1b[i]
            x1b[i] = n = alpha * a + beta * x2b[i] + gamma * sb
            x2b[i] += h * (a + n)
            yb += g * n
        self._e_prev = (ea, eb)
        return ya, yb

    def step(self, e: float, omega: float, dt: float) -> float:
        """Single-axis step: the alpha axis, with the beta axis idle."""
        table = resonator_table(self.orders, omega, dt)
        return self.step_pair(e, 0.0, self.coefficients(table, omega))[0]
