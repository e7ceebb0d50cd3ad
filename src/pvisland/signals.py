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

The step rules the blocks share with the scenario checks
(``too_coarse_for_low_pass``, ``beyond_nyquist``), the component table
(``DEFAULT_SEQUENCE_ORDERS``) and ``ResonantTerm`` are defined in
:mod:`pvisland.params`, so the parser checks a scenario without loading
this module; the blocks import them from there.  The tick rule ``ticks``
is importable from here too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .errors import ConfigurationError, FrameError
from .params import (DEFAULT_SEQUENCE_ORDERS, ResonantTerm, beyond_nyquist, ticks,
                     too_coarse_for_low_pass)

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


def _require_in_range(top: int, omega: float, dt: float):
    if not (omega > 0.0 and dt > 0.0 and not beyond_nyquist(top, omega, dt)):
        raise ConfigurationError(f"resonances up to order {top} need a frequency "
                                 f"between 0 and the Nyquist rate of dt={dt}; got {omega}")


def resonator_table(bands, *loops) -> tuple[list[tuple], list[list[int]]]:
    """The rows a :func:`table_kernel` walks, and where each loop's transitions fall.

    One row ``(0.5 * k, k, band, cutoffs)`` per distinct order ``k`` of the
    extractor ``bands`` and the loops' terms, ascending: ``band`` indexes
    ``bands`` or is None, ``cutoffs`` are the terms' distinct cutoffs at ``k``.
    Per loop: its terms' indices among the transitions.
    """
    slots = sorted({(t.order, t.cutoff) for terms in loops for t in terms})
    table = [(0.5 * k, k, bands.index(k) if k in bands else None,
              tuple(wc for order, wc in slots if order == k))
             for k in sorted({*bands, *(order for order, _ in slots)})]
    return table, [[slots.index((t.order, t.cutoff)) for t in terms] for terms in loops]


# Resonator kernels: a block's fixed table and constants written out as
# straight-line Python, with the float operations of a loop over the table in
# the same order.  A kernel's source holds only numbers, so blocks with equal
# tables and constants share one compiled kernel.  The plant's injection, bus
# and envelope kernels compile through the same cache.


def _literal(x) -> str:
    """Source text that evaluates to the number ``x``, bit for bit."""
    text = repr(x) if isinstance(x, int) else repr(float(x))
    if not math.isfinite(x):
        return f"float({text!r})"
    return f"({text})" if text.startswith("-") else text


def _names(prefix: str, indices) -> list[str]:
    return [f"{prefix}{i}" for i in indices]


def _chain(first: str, terms) -> str:
    """``first + t1 + t2 ...``: a running sum, added left to right."""
    return " + ".join([first, *terms])


@functools.lru_cache(maxsize=256)
def _compiled(source: str):
    """The function ``kernel`` that ``source`` defines, compiled once per distinct source."""
    namespace = {"cos": math.cos, "sin": math.sin, "tan": math.tan,
                 "_require_in_range": _require_in_range}
    exec(compile(source, "<generated kernel>", "exec"), namespace)
    return namespace["kernel"]


def table_kernel(table, index, gain: float = 0.0, drop=()):
    """One step over a :func:`resonator_table` at ``omega``, one tangent per order.

    Every band and resonator is a trapezoidal step prewarped to its center, so
    ``omega`` enters only through ``a = tan(0.5 * k * omega * dt)``.  A band
    row makes the :class:`SequenceExtractor` predictor ``P_j`` of both axes,
    and the band update sums the drop across the extractor's impedance
    ``drop``; a cutoff makes one :meth:`ProportionalResonant.transitions`
    row, and ``index`` places each loop's among them (as
    :func:`resonator_table` gives it).

    A table with bands gives ``kernel(ext, x, y, omega, dt)``, which steps the
    extractor ``ext`` of those bands, ``gain`` and ``drop`` on the input
    ``(x, y)`` and returns ``(za, zb, *rows)``; one without gives
    ``kernel(omega, dt)``, which returns the rows.  Each loop's rows are one
    flat tuple ``(alpha, beta, gamma, h, ...)`` in the order of its terms;
    loops with equal ``index`` entries get the same tuple.
    Both raise :class:`ConfigurationError` for an ``omega`` whose highest
    order reaches the Nyquist rate of ``dt``.
    """
    top = _literal(table[-1][1])
    bands = [(r, j) for r, (_, _, j, _) in enumerate(table) if j is not None]
    js = range(len(bands))
    nyquist = f"{top} * omega >= {_literal(math.pi)} / dt"  # beyond_nyquist(top, omega, dt)
    out = [f"def kernel({'ext, x, y, ' if bands else ''}omega, dt):",
           f"    if not (omega > 0.0 and dt > 0.0 and not {nyquist}):",
           f"        _require_in_range({top}, omega, dt)"]
    if bands:
        out += ["    (va, vb), (qa, qb) = ext._v, ext._q",
                "    ua, ub = ext._u_prev",
                "    ext._u_prev = (x, y)"]
        out += [f"    {', '.join(_names(state, js))}, = {state}"
                for state in ("va", "qa", "vb", "qb")]
        # the input errors: the bands added to an integer zero, left to right
        out += [f"    e{ax} = u{ax} + {u} - ({_chain('0', _names(f'v{ax}', js))})"
                for ax, u in (("a", "x"), ("b", "y"))]
    rows = []  # the table row of each transition
    for r, (half, k, j, cutoffs) in enumerate(table):
        out.append(f"    a{r} = tan({_literal(half)} * omega * dt)")
        if j is not None:
            out += [f"    aa{r} = a{r} * a{r}",
                    f"    n{j} = 1.0 + aa{r}",
                    f"    g{j} = {_literal(gain)} * a{r} / n{j}",
                    f"    c{j} = (1.0 - aa{r}) / n{j}",
                    f"    s{j} = 2.0 * a{r} / n{j}",
                    f"    pa{j} = c{j} * va{j} - s{j} * qa{j} + g{j} * ea",
                    f"    pb{j} = c{j} * vb{j} - s{j} * qb{j} + g{j} * eb"]
        if cutoffs:
            out += [f"    w{r} = {_literal(k)} * omega",
                    f"    h{r} = a{r} / w{r}",
                    f"    m{r} = h{r} * w{r} * w{r}",
                    f"    hm{r} = h{r} * m{r}"]
        for wc in cutoffs:
            i = len(rows)
            rows.append(r)
            out += [f"    hc = 2.0 * h{r} * {_literal(wc)}",
                    f"    d = 1.0 + hc + hm{r}",
                    f"    al{i} = (1.0 - hc - hm{r}) / d",
                    f"    be{i} = -2.0 * m{r} / d",
                    f"    ga{i} = h{r} / d"]
    returned = []
    if bands:
        # the rank-one band update, both axes, writing each band's new states
        out += [f"    den = 1.0 + ({_chain('0.0', _names('g', js))})"]
        out += [f"    t{ax} = ({_chain('0', _names(f'p{ax}', js))}) / den" for ax in "ab"]
        for r, j in bands:
            for ax in "ab":
                out += [f"    nv{ax}{j} = v{ax}[{j}] = p{ax}{j} - g{j} * t{ax}",
                        f"    nq{ax}{j} = q{ax}[{j}] = q{ax}{j} + a{r} * (v{ax}{j} + nv{ax}{j})"]
        # the drop: the fundamental's sequences, then the harmonics in band
        # order, where a negative sequence turns an addition into a subtraction
        r_pos, x_pos, r_neg = (_literal(z) for z in drop[0])
        harmonics = [(j, _literal(r), sign > 0) for j, (sign, r) in enumerate(drop[1:], 1)]
        out += ["    pos_a = 0.5 * (nva0 - nqb0)",
                "    pos_b = 0.5 * (nqa0 + nvb0)",
                "    za = " + _chain(
                    f"{r_pos} * pos_a - {x_pos} * pos_b + {r_neg} * (0.5 * (nva0 + nqb0))",
                    [f"{r} * (0.5 * (nva{j} {'-' if pos else '+'} nqb{j}))"
                     for j, r, pos in harmonics]),
                "    zb = " + _chain(
                    f"{r_pos} * pos_b + {x_pos} * pos_a + {r_neg} * (0.5 * (nvb0 - nqa0))",
                    [f"{r} * (0.5 * ({f'nqa{j} + nvb{j}' if pos else f'nvb{j} - nqa{j}'}))"
                     for j, r, pos in harmonics])]
        returned += ["za", "zb"]
    for n, loop in enumerate(index):
        if loop not in index[:n]:  # the tuple rows{n}, returned for every equal entry
            row = [f"al{i}, be{i}, ga{i}, h{rows[i]}" for i in loop]
            out.append(f"    rows{n} = ({', '.join(row)},)")
        returned.append(f"rows{index.index(loop)}")
    out.append(f"    return {', '.join(returned)},")
    return _compiled("\n".join(out))


def pair_kernel(kp: float, gains):
    """Both axes' step of a :class:`ProportionalResonant` with ``kp`` and resonator ``gains``.

    Gives ``kernel(pr, ea, eb, rows)``: one step of ``pr``'s resonators on the
    errors ``(ea, eb)`` with :meth:`ProportionalResonant.transitions` rows,
    returning both axes' outputs.
    """
    ins = range(len(gains))
    out = ["def kernel(pr, ea, eb, rows):",
           f"    {', '.join(f'al{i}, be{i}, ga{i}, h{i}' for i in ins)}, = rows",
           "    (x1a, x1b), (x2a, x2b) = pr._x1, pr._x2",
           "    pa, pb = pr._e_prev",
           "    sa = pa + ea",
           "    sb = pb + eb"]
    out += [f"    {', '.join(_names(x, ins))}, = {x}" for x in ("x1a", "x2a", "x1b", "x2b")]
    for i in ins:
        for ax in "ab":
            out += [f"    n{ax}{i} = x1{ax}[{i}] = "
                    f"al{i} * x1{ax}{i} + be{i} * x2{ax}{i} + ga{i} * s{ax}",
                    f"    x2{ax}[{i}] = x2{ax}{i} + h{i} * (x1{ax}{i} + n{ax}{i})"]
    outputs = [_chain(f"{_literal(kp)} * e{ax}",
                      [f"{_literal(g)} * n{ax}{i}" for i, g in zip(ins, gains)]) for ax in "ab"]
    out += ["    pr._e_prev = (ea, eb)",
            f"    return {', '.join(outputs)}"]
    return _compiled("\n".join(out))


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

    A step is one call of the extractor's :func:`table_kernel` (from
    :meth:`_rebuild`) for the ``a_j``, the ``P_j`` and the band update, which
    also sums the drop across the sequence-selective ``impedance`` ``(r_pos,
    x_pos, r_neg, {order: r})``: resistive-inductive on the positive sequence,
    resistive elsewhere.  The same tangents give the transition rows of the
    PR ``loops`` (one list of :class:`ResonantTerm` each), which the step
    returns after the drop.  ``gain``, ``impedance`` and ``loops`` are
    compiled into the step at construction and held nowhere else.
    """

    def __init__(self, orders=DEFAULT_SEQUENCE_ORDERS, gain: float = math.sqrt(2.0),
                 impedance=(0.0, 0.0, 0.0, {}), loops=()):
        orders = tuple(orders)
        self.bands = sorted({abs(o) for o in orders})
        if {1, -1} - set(orders) or 0 in orders or len(orders) != len(self.bands) + 1:
            raise ConfigurationError("sequence extractor needs 1, -1 and one order per other band")
        self.orders = orders
        # the fundamental's (r_pos, x_pos, r_neg), then each harmonic band's sign and resistance
        drop = [impedance[:3]] + [(math.copysign(1.0, o), impedance[3].get(o, 0.0))
                                  for o in sorted(orders, key=abs) if abs(o) > 1]
        self._kernel = table_kernel(*resonator_table(self.bands, *loops), gain, drop)
        n = len(self.bands)
        self._v = ([0.0] * n, [0.0] * n)    # per axis (alpha, beta), per band
        self._q = ([0.0] * n, [0.0] * n)
        self._u_prev = (0.0, 0.0)

    def _rebuild(self, x: float, y: float, omega: float, dt: float) -> tuple:
        """One step on the alpha/beta input ``(x, y)`` at ``omega``; returns the
        drop ``(za, zb)``, then each loop's transition rows.

        ``control.extractor.rebuilds`` counts its calls."""
        return self._kernel(self, x, y, omega, dt)

    def sequences(self) -> SequenceSet:
        """Every configured component as of the last step."""
        (va, vb), (qa, qb) = self._v, self._q
        pairs = {}
        for o in self.orders:
            i, sign = self.bands.index(abs(o)), math.copysign(1.0, o)
            pairs[o] = FrameVector(0.5 * (va[i] - sign * qb[i]), 0.5 * (sign * qa[i] + vb[i]))
        return SequenceSet(pairs.pop(1), pairs.pop(-1), pairs)

    def step(self, v: FrameVector, omega: float, dt: float) -> SequenceSet:
        if v.frame != ALPHA_BETA:
            raise FrameError("sequence extractor expects an alpha/beta input")
        self._rebuild(v.x, v.y, omega, dt)
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
        self._band._rebuild(u, 0.0, omega, dt)
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
        omega = self.omega_min if self.omega_min > omega else omega  # max(omega, omega_min)
        omega = self.omega_max if self.omega_max < omega else omega  # min(omega, omega_max)
        self.omega = omega
        self.theta = (self.theta + omega * dt) % (2.0 * math.pi)
        return self.theta, self.omega


class ProportionalResonant:
    """Proportional controller with resonant branches at selected harmonics.

    The transfer gain at each branch center equals ``kp + gain`` by
    construction; branch centers track the frequency the coefficients are
    taken at, so droop deviations do not detune them.  The controller
    regulates a pair of axes with identical gains; its :func:`pair_kernel`
    (``_kernel``, which the units' loops call) advances both with one set of
    resonator coefficients, and each axis evolves exactly as a scalar
    controller would.  ``kp`` and the terms' gains are compiled into the
    kernel at construction and held nowhere else; ``terms`` gives the
    transitions.
    """

    def __init__(self, kp: float, terms: list[ResonantTerm], omega_nominal: float, dt: float):
        self.terms = tuple(terms)
        _require_in_range(max(term.order for term in self.terms), omega_nominal, dt)
        self._kernel = pair_kernel(kp, [2.0 * term.gain * term.cutoff for term in self.terms])
        # per axis (alpha, beta): resonator states, one entry per term
        self._x1 = ([0.0] * len(self.terms), [0.0] * len(self.terms))
        self._x2 = ([0.0] * len(self.terms), [0.0] * len(self.terms))
        self._e_prev = (0.0, 0.0)

    def transitions(self, omega: float, dt: float) -> tuple[float, ...]:
        """The terms' one-step transitions ``(alpha, beta, gamma, h)`` at ``omega``, flat.

        Each resonator ``x1' = -2*wc*x1 - wr^2*x2 + e``, ``x2' = x1``,
        ``y = 2*gain*wc*x1`` steps by the trapezoidal rule prewarped to ``wr``,
        ``h = tan(0.5*wr*dt) / wr``; :func:`table_kernel` solves its 2x2
        implicit system into ``x1+ = alpha*x1 + beta*x2 + gamma*(e + e_prev)``,
        ``x2+ = x2 + h*(x1 + x1+)``, with ``m12 = h*wr**2``,
        ``det = 1 + 2*h*wc + h*m12``, ``alpha = (1 - 2*h*wc - h*m12) / det``,
        ``beta = -2*m12 / det`` and ``gamma = h / det``.  Gains do not enter,
        so controllers with equal terms share them.
        """
        return self._transitions(omega, dt)[0]

    @functools.cached_property
    def _transitions(self):
        # Built on first use: inside a unit the extractor's kernel gives the rows.
        return table_kernel(*resonator_table((), self.terms))

    def step(self, e: float, omega: float, dt: float) -> float:
        """Single-axis step: the alpha axis, with the beta axis idle."""
        return self._kernel(self, e, 0.0, self.transitions(omega, dt))[0]
