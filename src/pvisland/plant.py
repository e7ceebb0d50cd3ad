"""Averaged electrical model of the power stage.

One generating unit is a PV string feeding a boost converter, a DC link and
a two-level voltage-source inverter with an LC output filter; a resistive
feeder ties each unit to the common coupling bus where the loads hang.

Modeling choices, fixed for the whole simulator:

* No switching: the inverter bridge is an averaged controlled voltage
  source, ``v = m * v_dc / 2`` per phase, with per-phase clamping of the
  modulation command.
* Three-wire network, simulated directly on the two stationary axes, so no
  zero-sequence current can circulate anywhere.  The unbalanced load is a
  star bank with a floating neutral; its neutral potential is resolved
  inside the nodal equations.
* One integration scheme per side.  The whole linear AC network (filters,
  feeders, resistive loads) advances with one trapezoidal transition step,
  which is unconditionally stable; convergence is checked by halving the
  step.  The DC side is nonlinear (PV curve, constant-power inverter draw)
  and advances with Heun's method.
* One pass over Python floats per step.  The network state is a list of
  floats, and the only NumPy call is the transition product
  ``x1 = T @ [x; u]`` over the state and the held inputs.  ``Plant.step``
  builds the bridge voltages as a flat list, ``u``'s leading values in
  order, which ``AcNetwork.step`` appends to the state as it is.  Each unit's PV
  current is held at its present state and irradiance, so a step evaluates
  the PV curve twice per unit: at the Heun predictor and at the new state.
* Generated kernels for the fixed tables.  The harmonic injection, the
  coupling-bus solve and the AC envelope check are straight-line functions
  written from the network's injection table, feeder and bank indices and
  load impedance, with every constant an exact literal and the float
  operations of a loop over the table in the same order.  They are rebuilt
  with the matrix on a load step, and compiled through the resonator
  kernels' cache (``signals._compiled``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, SimulationDivergence
from .params import V_DC_LIMIT, pv_current
from .signals import (_ONE_OVER_SQRT3, _chain, _compiled, _literal, _names, clarke_xy,
                      inverse_clarke_xy, max_filter_step)

if TYPE_CHECKING:
    from .config import ScenarioConfig
    from .params import DcLinkParams, FeederParams, FilterParams, LoadParams, PvParams

# the transforms as matrices: their images of the unit vectors, column by column
_CLARKE = np.array([clarke_xy(*e) for e in np.eye(3).tolist()]).T.copy()
_INV_CLARKE = np.array([inverse_clarke_xy(*e) for e in np.eye(2).tolist()]).T.copy()


# ---------------------------------------------------------------------------
# DC side: boost converter and DC link
# ---------------------------------------------------------------------------

class DcSide:
    """Averaged boost converter between a PV string and the DC link, with its state.

    Lossless: the inverter appears as a power draw on the link capacitor.
    The state is the string voltage ``v_pv``, the boost inductor current
    ``i_boost`` and the link voltage ``v_dc``; ``i_pv`` is the string's
    current at that state and the present irradiance, kept up to date by
    :meth:`step` and :meth:`set_irradiance`.  The inductor starts at rest,
    the irradiance at ``pv.irradiance``.
    """

    def __init__(self, pv: PvParams, params: DcLinkParams, v_pv: float, v_dc: float):
        self.pv = pv
        self.v_pv = v_pv
        self.i_boost = 0.0
        self.v_dc = v_dc
        self._consts = (params.c_pv, params.l_boost, params.c_dc, pv._i_dark, pv._v_scale)
        self.set_irradiance(pv.irradiance)

    def set_irradiance(self, irradiance: float):
        self.irradiance = irradiance
        self._i_light = irradiance * self.pv.i_sc  # the first term of the PV curve
        self.i_pv = pv_current(max(self.v_pv, 0.0), irradiance, self.pv)

    def step(self, duty: float, p_draw: float, dt: float):
        """Advance the state by one step.

        The PV curve is evaluated only at the predictor and at the new state,
        as :func:`~pvisland.params.pv_current`'s expression written out.  The
        controllers keep the duty in range: one outside [0, 1) is a bug.
        ``c if c > a else a`` is ``max(a, c)``, NaN and -0.0 included.
        """
        if not 0.0 <= duty < 1.0:
            raise ValueError(f"boost duty {duty} outside [0, 1)")
        c_pv, l_boost, c_dc, i_dark, v_scale = self._consts
        i_light = self._i_light
        off = 1.0 - duty
        v_pv, i_boost, v_dc = self.v_pv, self.i_boost, self.v_dc
        # Heun: explicit trapezoid, adequate for the slow DC dynamics
        dv1 = (self.i_pv - i_boost) / c_pv
        di1 = (v_pv - off * v_dc) / l_boost
        dd1 = (off * i_boost - p_draw / (1.0 if 1.0 > v_dc else v_dc)) / c_dc
        v2 = v_pv + dt * dv1
        i2 = i_boost + dt * di1
        d2 = v_dc + dt * dd1
        dv2 = (i_light - i_dark * math.expm1((0.0 if 0.0 > v2 else v2) / v_scale) - i2) / c_pv
        di2 = (v2 - off * d2) / l_boost
        dd2 = (off * i2 - p_draw / (1.0 if 1.0 > d2 else d2)) / c_dc
        v_pv = v_pv + 0.5 * dt * (dv1 + dv2)
        self.v_pv = v_pv = 0.0 if 0.0 > v_pv else v_pv
        self.i_boost = i_boost + 0.5 * dt * (di1 + di2)
        self.v_dc = v_dc + 0.5 * dt * (dd1 + dd2)
        self.i_pv = i_light - i_dark * math.expm1(v_pv / v_scale)

    def stored_energy(self) -> float:
        c_pv, l_boost, c_dc, _, _ = self._consts
        return (0.5 * c_pv * self.v_pv ** 2
                + 0.5 * l_boost * self.i_boost ** 2
                + 0.5 * c_dc * self.v_dc ** 2)


# ---------------------------------------------------------------------------
# Loads
# ---------------------------------------------------------------------------

def load_admittance_ab(ga: float, gb: float, gc: float) -> np.ndarray:
    """Two-axis admittance of a floating-star resistive bank.

    Maps the zero-sum coupling-bus voltage to the zero-sum bank current;
    the floating neutral keeps any zero-sequence out of the network.
    """
    g = np.array([ga, gb, gc])
    total = g.sum()
    if total <= 0.0:
        raise ConfigurationError("coupling bus has no resistive load; node would float")
    y_abc = np.diag(g) - np.outer(g, g) / total
    return _CLARKE @ y_abc @ _INV_CLARKE


def injection_table(harmonics, scale: float = 1.0) -> tuple[tuple[int, float, float, float], ...]:
    """``(|order|, phase, scale * amplitude, rotation sign)`` per ``(order, amplitude, phase)``."""
    return tuple((abs(order), phase, scale * amp, 1.0 if order > 0 else -1.0)
                 for order, amp, phase in harmonics)


# Plant kernels: the network's fixed tables written out as straight-line
# Python, with the float operations of a loop over the table in the same order.


def injection_kernel(table):
    """``kernel(theta)``: the stationary-frame current of an :func:`injection_table` at theta.

    Per row, ``g = k * theta + phase`` gives ``amp * cos(g)`` on alpha and
    ``amp * sin(g) * sign`` on beta; each axis adds its rows to ``0.0``,
    left to right.  An empty table gives ``(0.0, 0.0)``.
    """
    rows = [(i, *(_literal(v) for v in row)) for i, row in enumerate(table)]
    out = ["def kernel(theta):"]
    out += [f"    g{i} = {k} * theta + {phase}" for i, k, phase, _, _ in rows]
    al = _chain("0.0", [f"{amp} * cos(g{i})" for i, _, _, amp, _ in rows])
    be = _chain("0.0", [f"{amp} * sin(g{i}) * {sign}" for i, _, _, amp, sign in rows])
    out.append(f"    return {al}, {be}")
    return _compiled("\n".join(out))


def bus_kernel(feeders, bank, zp):
    """``kernel(x, ih)``: the coupling-bus solve, as ``AcNetwork.bus`` documents it.

    ``feeders`` are the state indices of the feeder currents' alpha axes, in
    unit order, and ``bank`` is the inductive bank's, or None without one,
    when ``0.0`` is subtracted in its place; ``zp`` is the 2x2 impedance
    that maps the net current to the bus voltage.
    """
    (z00, z01), (z10, z11) = ([_literal(z) for z in row] for row in zp)
    out = ["def kernel(x, ih):"]
    for ax in (0, 1):
        la = "0.0" if bank is None else f"x[{bank + ax}]"
        summed = _chain("0.0", [f"x[{b + ax}]" for b in feeders])
        out.append(f"    n{ax} = {summed} - ih[{ax}] - {la}")
    out.append(f"    return {z00} * n0 + {z01} * n1, {z10} * n0 + {z11} * n1, n0, n1")
    return _compiled("\n".join(out))


def envelope_kernel(n: int, bound: float):
    """``kernel(x)``: whether each of the ``n`` states in ``x`` lies within +-``bound``.

    One chain of range tests, so a NaN or an infinity at any index fails it.
    """
    lo, hi = _literal(-bound), _literal(bound)
    names = _names("x", range(n))
    return _compiled("\n".join([
        "def kernel(x):",
        f"    {', '.join(names)}, = x",
        f"    return {' and '.join(f'{lo} <= {v} <= {hi}' for v in names)}"]))


# ---------------------------------------------------------------------------
# AC network
# ---------------------------------------------------------------------------

class AcNetwork:
    """All filter, feeder and resistive-load dynamics on the two axes.

    Unit ``d``'s states start at ``STATES_PER_DG * d``: filter inductor
    current, filter capacitor voltage and feeder current, an (alpha, beta)
    pair each.  The inductive bank's current, if the load has one, is the
    last pair.  The coupling-bus voltage is an algebraic function of the
    state and the harmonic injection, ``v_bus = zs @ x - zp @ ih``: ``zp``
    is the resistive bank's two-axis impedance, and the coupling row ``zs``
    holds ``zp`` at each feeder's pair and ``-zp`` at the bank's, so
    Kirchhoff's current law holds to rounding error at every step.  The
    transition matrix, the bus kernel, the feeder loss and the stored energy
    all read the index and energy tables ``_build`` makes once per load
    scale.  Each unit's stage is its ``(filter, feeder)`` pair.

    The state ``x`` is a list of Python floats, so the controllers never
    compute on NumPy scalars, which cost three to four times as much per
    operation.  Nothing is cached: callers may write ``x``.
    """

    STATES_PER_DG = 6
    #: The envelope of every AC state, in amperes or volts.
    AC_BOUND = 1e5

    def __init__(self, stages: list[tuple[FilterParams, FeederParams]], load: LoadParams,
                 dt: float):
        if not stages:
            raise ConfigurationError("network needs at least one generating unit")
        for flt, _ in stages:
            if dt > max_filter_step(flt.l, flt.c):
                raise ConfigurationError(
                    f"step {dt} s too coarse for the {flt.resonance_hz():.0f} Hz filter resonance"
                )
        self.stages = list(stages)
        self.load = load
        self.dt = dt
        self.load_scale = 1.0
        # Stored energy the inductive bank gains at load steps: a step rescales
        # its inductance with its current held, so the audit books the jump as
        # energy switched in with the bank.
        self.switched_energy = 0.0
        self._build()
        self.x = [0.0] * self._n_states

    # Matrix assembly ---------------------------------------------------
    def _build(self):
        ndg = len(self.stages)
        per = self.STATES_PER_DG
        feeders = [per * d + 4 for d in range(ndg)]  # each feeder current's alpha index
        bank = None if self.load.balanced_l is None else per * ndg  # the inductive bank's
        n = per * ndg + (0 if bank is None else 2)
        self._n_states = n
        y2 = load_admittance_ab(*self.load.conductances(self.load_scale))
        self._y2 = tuple(y2.ravel().tolist())  # y00, y01, y10, y11
        zp = np.linalg.inv(y2)
        # The coupling row: v_bus = zs @ x - zp @ ih (feeders in, inductive bank out)
        zs = np.zeros((2, n))
        for fd in feeders:
            zs[:, fd:fd + 2] = zp
        if bank is not None:
            zs[:, bank:] = -zp
        a = np.zeros((n, n))
        b = np.zeros((n, 2 * ndg + 2))  # inputs: v_inv per DG (2 axes), harmonic current
        #: each feeder's alpha index and resistance, for feeder_loss
        self._feeders = [(fd, fdr.r) for fd, (_, fdr) in zip(feeders, self.stages)]
        #: ``(alpha index, half its L or C)`` per store, for stored_energy: each
        #: unit's filter inductor, filter capacitor and feeder, then the bank
        self._energy = []
        for d, ((flt, fdr), fd) in enumerate(zip(self.stages, feeders)):
            il, vo = per * d, per * d + 2
            self._energy += ((il, 0.5 * flt.l), (vo, 0.5 * flt.c), (fd, 0.5 * fdr.l))
            for ax in (0, 1):
                a[il + ax, vo + ax] = -1.0 / flt.l
                b[il + ax, 2 * d + ax] = 1.0 / flt.l
                a[vo + ax, il + ax] = 1.0 / flt.c
                a[vo + ax, fd + ax] = -1.0 / flt.c
                a[fd + ax, vo + ax] = 1.0 / fdr.l
                a[fd + ax, fd + ax] -= fdr.r / fdr.l
                a[fd + ax] -= zs[ax] / fdr.l
                b[fd + ax, -2:] = zp[ax] / fdr.l
        if bank is not None:
            # Inductive bank: di/dt = v_bus / L, admittance scaled with load steps
            l_eff = self.load.balanced_l / self.load_scale
            self._energy.append((bank, 0.5 * l_eff))
            for ax in (0, 1):
                a[bank + ax] += zs[ax] / l_eff
                b[bank + ax, -2:] = -zp[ax] / l_eff
        # One transition matrix over state and inputs: x1 = T @ [x; u]
        eye = np.eye(n)
        self._t = np.linalg.solve(eye - 0.5 * self.dt * a,
                                  np.hstack((eye + 0.5 * self.dt * a, self.dt * b)))
        #: ``inject(theta)``: the harmonic sources' current at the load angle.
        self.inject = injection_kernel(injection_table(self.load.harmonics, self.load_scale))
        #: ``bus(x, ih)``: the coupling-bus voltage ``(v_a, v_b)`` for the state
        #: list ``x`` and harmonic current ``ih``, then the net current
        #: ``(n_a, n_b)`` (feeders in, harmonic sources and inductive bank
        #: out) that it drives through the resistive bank.
        self.bus = bus_kernel(feeders, bank, zp)
        #: ``in_envelope(x)``: whether every state of ``x`` is within ``AC_BOUND``.
        self.in_envelope = envelope_kernel(n, self.AC_BOUND)

    def set_load_scale(self, scale: float):
        if scale != self.load_scale:
            e0 = self.stored_energy()
            self.load_scale = scale
            self._build()
            self.switched_energy += self.stored_energy() - e0

    # Dynamics -----------------------------------------------------------
    def step(self, v_inv: list[float], ih_ab: tuple[float, float]) -> list[float]:
        """Advance one step with the bridge voltages and harmonic current held; returns ``x``.

        ``v_inv`` holds each unit's bridge voltage pair in unit order, flat:
        ``[v_a1, v_b1, v_a2, v_b2, ...]``, the transition's inputs as they follow the state.
        """
        xu = self.x + v_inv
        xu += ih_ab
        # ``dot`` gives the same product as ``@`` with about 1 us less call overhead
        self.x = x1 = self._t.dot(xu).tolist()
        return x1

    def kcl_residual(self, bus: tuple[float, float, float, float],
                     i_res: tuple[float, float]) -> float:
        """Current imbalance, in amperes, of a ``bus`` solve whose bank carries ``i_res``."""
        _, _, na, nb = bus
        return math.hypot(na - i_res[0], nb - i_res[1])

    def stored_energy(self) -> float:
        x = self.x
        e = 0.0
        for i, half in self._energy:
            xa, xb = x[i], x[i + 1]
            e += half * (xa * xa + xb * xb)
        return 1.5 * e  # two-axis quantities carry 3/2 of the per-phase energy

    def feeder_loss(self, x: list[float]) -> float:
        """Feeder resistor dissipation for the state list ``x``."""
        p = 0.0
        for b, r in self._feeders:
            fda, fdb = x[b], x[b + 1]
            p += r * (fda * fda + fdb * fdb)
        return 1.5 * p

    def load_power(self, bus: tuple[float, float, float, float], i_res: tuple[float, float],
                   ih_ab: tuple[float, float]) -> tuple[float, float]:
        """(resistive dissipation, power absorbed by the harmonic sources)."""
        va, vb, _, _ = bus
        ir_a, ir_b = i_res
        p_res = 1.5 * (va * ir_a + vb * ir_b)
        p_harm = 1.5 * (va * ih_ab[0] + vb * ih_ab[1])
        return p_res, p_harm


# ---------------------------------------------------------------------------
# Whole plant
# ---------------------------------------------------------------------------

class Plant:
    """Composed power stage: per-unit DC sides plus the shared AC network.

    Advances in a fixed order each step: coupling-bus solve, AC network, DC
    sides.  The inverter bridges conserve power exactly: the AC-side output
    computed over the step is the draw applied to each DC link.  Each unit
    starts at rest with its string at ``pv.v_mp`` and its link at ``vr.v_dc_ref``.
    Unit ``d`` owns ``dc_sides[d]``, which holds its DC state and irradiance,
    and the six network states from ``d * AcNetwork.STATES_PER_DG``.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.dt = cfg.dt
        self.network = AcNetwork([(dg.filter, dg.feeder) for dg in cfg.dgs], cfg.load, cfg.dt)
        self.dc_sides = [DcSide(dg.pv, dg.dc, v_pv=dg.pv.v_mp, v_dc=dg.vr.v_dc_ref)
                         for dg in cfg.dgs]
        self.steps = 0
        self.saturated = [False] * len(cfg.dgs)
        self.max_kcl_residual = 0.0
        # Energy audit accumulators (trapezoidal integration of powers)
        self.energy_in = 0.0
        self.energy_out = 0.0
        self._stored0 = self.stored_energy()
        self._p_in_prev = None
        self._p_out_prev = None

    def stored_energy(self) -> float:
        e = self.network.stored_energy()
        for side in self.dc_sides:
            e += side.stored_energy()
        return e

    def measurements(self, theta_load: float
                     ) -> tuple[tuple[float, float], list[tuple[float, ...]]]:
        """Everything the controllers read, taken at the current instant.

        Returns the coupling-bus voltage pair and one row per unit: its six
        network states (inductor, capacitor-voltage and feeder pairs), then
        ``v_dc``, ``v_pv`` and ``i_pv``.
        """
        net = self.network
        x = net.x
        va, vb, _, _ = net.bus(x, net.inject(theta_load))
        n = net.STATES_PER_DG
        return (va, vb), [(*x[n * d:n * d + n], side.v_dc, side.v_pv, side.i_pv)
                          for d, side in enumerate(self.dc_sides)]

    def step(self, duties: list[float], modulations, theta_load: float):
        """One integration step with the given per-unit duties and commands ``(m_a, m_b, m_c)``.

        Each bridge applies ``m * v_dc / 2`` per phase, commands clamped to +-1 and flagged.
        """
        dt = self.dt
        net = self.network
        sides = self.dc_sides
        n = net.STATES_PER_DG
        ih = net.inject(theta_load)

        v_inv = []  # flat, as AcNetwork.step takes it
        for d, (ma, mb, mc) in enumerate(modulations):
            sat = not (-1.0 <= ma <= 1.0 and -1.0 <= mb <= 1.0 and -1.0 <= mc <= 1.0)
            if sat:
                ma, mb, mc = (min(max(m, -1.0), 1.0) for m in (ma, mb, mc))
            self.saturated[d] = sat
            v_dc = sides[d].v_dc
            va, vb, vc = ma * v_dc / 2.0, mb * v_dc / 2.0, mc * v_dc / 2.0
            v_inv += ((2.0 / 3.0) * (va - 0.5 * vb - 0.5 * vc),  # clarke_xy(va, vb, vc)
                      _ONE_OVER_SQRT3 * (vb - vc))

        x = net.x

        # Audit bookkeeping and KCL check at the pre-step instant; the
        # resistive bank carries its admittance times the bus voltage
        bus = net.bus(x, ih)
        bus_a, bus_b, _, _ = bus
        y00, y01, y10, y11 = net._y2
        i_res = (y00 * bus_a + y01 * bus_b, y10 * bus_a + y11 * bus_b)
        residual = net.kcl_residual(bus, i_res)
        if residual > self.max_kcl_residual:
            self.max_kcl_residual = residual
        p_res, p_harm = net.load_power(bus, i_res, ih)
        p_feed = net.feeder_loss(x)
        p_in = 0.0
        for side in sides:  # left to right: from Python 3.12 on, sum() compensates
            p_in += side.v_pv * side.i_pv
        p_out = p_res + p_harm + p_feed
        if self._p_in_prev is not None:
            self.energy_in += 0.5 * dt * (p_in + self._p_in_prev)
            self.energy_out += 0.5 * dt * (p_out + self._p_out_prev)
        else:
            self.energy_in += dt * p_in
            self.energy_out += dt * p_out
        self._p_in_prev = p_in
        self._p_out_prev = p_out

        x1 = net.step(v_inv, ih)
        self.steps += 1

        for d, side in enumerate(sides):
            b = n * d
            ila = 0.5 * (x1[b] + x[b])
            ilb = 0.5 * (x1[b + 1] + x[b + 1])
            va, vb = v_inv[2 * d], v_inv[2 * d + 1]
            try:
                side.step(duties[d], 1.5 * (va * ila + vb * ilb), dt)
            except OverflowError as exc:  # the PV curve's exponential, past a float's range
                raise self._divergence("DC state") from exc
        self._check_bounds(x1)

    def energy_audit_error(self) -> float:
        """Relative conservation error accumulated since construction."""
        delta = self.stored_energy() - self._stored0 - self.network.switched_energy
        denom = max(abs(self.energy_in), abs(self.energy_out), 1.0)
        return abs(self.energy_in - delta - self.energy_out) / denom

    def _divergence(self, what: str) -> SimulationDivergence:
        return SimulationDivergence(
            f"{what} left the plausible envelope at t={self.steps * self.dt:.6f} s",
            t_last_good=(self.steps - 1) * self.dt)

    def _check_bounds(self, x: list[float]):
        """Raise when the AC state list ``x`` or a DC state leaves its envelope."""
        # chained range tests: NaN and the infinities fail each one
        if not self.network.in_envelope(x):
            raise self._divergence("AC state")
        for side in self.dc_sides:
            if not (-V_DC_LIMIT <= side.v_dc <= V_DC_LIMIT and -1e4 <= side.i_boost <= 1e4
                    and -math.inf < side.v_pv < math.inf):
                raise self._divergence("DC state")
