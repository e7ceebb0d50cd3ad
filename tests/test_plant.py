import copy
import dataclasses
import math

import numpy as np
import pytest

from pvisland import runner
from pvisland.config import from_mapping
from pvisland.errors import ConfigurationError, SimulationDivergence
from pvisland.params import (V_DC_LIMIT, DcLinkParams, FeederParams, FilterParams, LoadParams,
                             PvParams, pv_current)
from pvisland.plant import (
    AcNetwork,
    DcSide,
    Plant,
    envelope_kernel,
    injection_kernel,
    injection_table,
    load_admittance_ab,
)
from pvisland.signals import (
    FrameVector,
    ThreePhaseSample,
    clarke,
    clarke_xy,
    inverse_clarke,
    ticks,
)

DT = 50e-6
#: Unit 1's default link and AC stage: filter, then feeder.
DC_LINK = DcLinkParams(c_pv=200e-6, l_boost=1.5e-3, c_dc=2350e-6)
FILTER = FilterParams(l=1.8e-3, c=25e-6)
STAGE = (FILTER, FeederParams(r=0.8, l=2.4e-3))
#: Unit 1's filter on unit 2's default feeder.
STAGE_2 = (FILTER, FeederParams(r=0.4, l=1.2e-3))
#: ``load.*`` keys of a plain 10-ohm balanced bank, for :func:`_two_unit_plant`.
RESISTIVE = {"unbalanced_r_a": "off", "harmonics": ""}


def _load(balanced_r: float, unbalanced_r_a: float | None = None,
          harmonics: tuple[tuple[int, float, float], ...] = (),
          balanced_l: float | None = None) -> LoadParams:
    """A load record with no step; ``harmonics`` holds ``(order, amplitude, phase)``."""
    return LoadParams(balanced_r, balanced_l, unbalanced_r_a, list(harmonics), None, 1.0)


@pytest.fixture
def pv3k():
    return PvParams(rated_w=3000.0, v_oc=450.0, i_sc=8.8, v_mp=380.0, i_mp=3000.0 / 380.0,
                    irradiance=1.0)


class TestPvCurve:
    def test_short_circuit_endpoint(self, pv3k):
        assert pv_current(0.0, 1.0, pv3k) == pytest.approx(8.8, rel=1e-12)

    def test_open_circuit_endpoint(self, pv3k):
        assert pv_current(450.0, 1.0, pv3k) == pytest.approx(0.0, abs=1e-9)

    def test_sinks_current_beyond_open_circuit(self, pv3k):
        # the diode conducts: the current turns negative and keeps falling
        cur = [pv_current(v, 1.0, pv3k) for v in (455.0, 460.0, 470.0, 500.0)]
        assert cur[0] < 0.0
        assert all(b < a for a, b in zip(cur, cur[1:]))

    def test_peak_power_matches_rating(self, pv3k):
        # brute-force sweep of the implemented curve
        vs = np.linspace(0.0, 450.0, 20001)
        ps = vs * np.array([pv_current(v, 1.0, pv3k) for v in vs])
        assert ps.max() == pytest.approx(3000.0, rel=0.01)

    def test_monotone_non_increasing_current(self, pv3k):
        vs = np.linspace(0.0, 450.0, 2000)
        cur = [pv_current(v, 1.0, pv3k) for v in vs]
        assert all(b <= a + 1e-12 for a, b in zip(cur, cur[1:]))

    def test_unique_interior_maximum(self, pv3k):
        vs = np.linspace(1.0, 449.0, 8000)
        ps = vs * np.array([pv_current(v, 1.0, pv3k) for v in vs])
        d = np.sign(np.diff(ps))
        # one sign change from climbing to falling
        changes = np.sum(np.abs(np.diff(d[d != 0])) > 0)
        assert changes == 1

    def test_irradiance_scales_short_circuit(self, pv3k):
        assert pv_current(0.0, 0.5, pv3k) == pytest.approx(4.4, rel=1e-12)

    def test_rejects_negative_voltage(self, pv3k):
        with pytest.raises(ConfigurationError):
            pv_current(-1.0, 1.0, pv3k)


class TestDcSide:
    # ``DcSide.step`` advances the side's own state and keeps its PV current
    # at that state.
    def test_boost_ratio_at_steady_state(self, pv3k):
        dc = DcSide(pv3k, DC_LINK, v_pv=380.0, v_dc=600.0)
        dc.i_boost = 7.0
        duty = 1.0 - 380.0 / 600.0
        draw = 380.0 * pv_current(380.0, 1.0, pv3k) * 0.999
        for _ in range(int(1.5 / DT)):
            dc.step(duty, draw, DT)
        assert dc.v_dc == pytest.approx(dc.v_pv / (1.0 - duty), rel=0.02)

    def test_link_rises_without_draw(self, pv3k):
        dc = DcSide(pv3k, DC_LINK, v_pv=380.0, v_dc=600.0)
        dc.i_boost = dc.i_pv
        history = [dc.v_dc]
        for _ in range(int(0.02 / DT)):
            dc.step(1.0 - 380.0 / 600.0, 0.0, DT)
            history.append(dc.v_dc)
        assert all(b >= a for a, b in zip(history, history[1:]))

    def test_energy_balance_over_one_second(self, pv3k):
        dc = DcSide(pv3k, DC_LINK, v_pv=380.0, v_dc=600.0)
        dc.i_boost = 7.2
        duty = 1.0 - 380.0 / 600.0
        draw = 2800.0
        e_in = 0.0
        e0 = dc.stored_energy()
        p_prev = dc.v_pv * dc.i_pv
        for _ in range(int(1.0 / DT)):
            dc.step(duty, draw, DT)
            assert dc.i_pv == pv_current(dc.v_pv, 1.0, pv3k)
            p_now = dc.v_pv * dc.i_pv
            e_in += 0.5 * DT * (p_prev + p_now)
            p_prev = p_now
        e_out = draw * 1.0
        residual = abs(e_in - (dc.stored_energy() - e0) - e_out)
        assert residual < 0.005 * e_in

    def test_rejects_invalid_duty(self, pv3k):
        dc = DcSide(pv3k, DC_LINK, v_pv=380.0, v_dc=600.0)
        with pytest.raises(ValueError):
            dc.step(1.2, 0.0, DT)

    @pytest.mark.parametrize("v_pv, i_boost, v_dc, draw", [
        (380.0, 7.0, 600.0, 2800.0),
        (0.01, 40.0, 600.0, 0.0),      # the string voltage clamps at the predictor and the end
        (380.0, 7.0, 0.5, 2800.0),     # a link below 1 V divides the draw by 1 V
        (math.nan, 7.0, 600.0, 2800.0),  # max() passes a NaN through, and so must the clamps
    ], ids=["running", "string-clamped", "link-below-one-volt", "nan-string"])
    def test_step_matches_the_curve_and_max_oracle(self, pv3k, v_pv, i_boost, v_dc, draw):
        # the written-out PV curve and the conditional clamps are max() and
        # pv_current to the bit; repr tells NaN and the sign of a zero apart
        dc = DcSide(pv3k, DC_LINK, v_pv=v_pv, v_dc=v_dc)
        dc.i_boost = i_boost
        dc.set_irradiance(0.8)
        want = _dc_step_loop(dc, 0.37, draw, DT)
        dc.step(0.37, draw, DT)
        got = (dc.v_pv, dc.i_boost, dc.v_dc, dc.i_pv)
        assert [type(v) for v in got] == [float] * 4
        assert list(map(repr, got)) == list(map(repr, want))


def _dc_step_loop(side, duty, p_draw, dt):
    """``DcSide.step`` through ``max`` and ``pv_current``: ``(v_pv, i_boost, v_dc, i_pv)``."""
    p = side.params
    off = 1.0 - duty
    v_pv, i_boost, v_dc = side.v_pv, side.i_boost, side.v_dc
    dv1 = (side.i_pv - i_boost) / p.c_pv
    di1 = (v_pv - off * v_dc) / p.l_boost
    dd1 = (off * i_boost - p_draw / max(v_dc, 1.0)) / p.c_dc
    v2 = v_pv + dt * dv1
    i2 = i_boost + dt * di1
    d2 = v_dc + dt * dd1
    dv2 = (pv_current(max(v2, 0.0), side.irradiance, side.pv) - i2) / p.c_pv
    di2 = (v2 - off * d2) / p.l_boost
    dd2 = (off * i2 - p_draw / max(d2, 1.0)) / p.c_dc
    v_new = max(v_pv + 0.5 * dt * (dv1 + dv2), 0.0)
    return (v_new, i_boost + 0.5 * dt * (di1 + di2), v_dc + 0.5 * dt * (dd1 + dd2),
            pv_current(v_new, side.irradiance, side.pv))


def _assert_bitwise(got, want):
    """``got`` holds Python floats equal to ``want`` bit for bit; ``==`` misses a zero's sign."""
    assert [type(v) for v in got] == [float] * len(want)
    assert list(got) == list(want)
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]


class TestInverterOutput:
    """The averaged bridge inside ``Plant.step``, seen through one step from rest."""

    def _bridge(self, modulation):
        """AC state after unit 1 applies ``modulation`` on a 600 V link, and its flag."""
        plant = _two_unit_plant(**RESISTIVE)
        plant.step([0.37, 0.37], [modulation, (0.0, 0.0, 0.0)], 0.0)
        return plant.network.x, plant.saturated[0]

    def _applied(self, phase_volts):
        """AC state after unit 1's bridge applies ``phase_volts`` from rest."""
        net = _two_unit_plant(**RESISTIVE).network
        return net.step([*clarke_xy(*phase_volts), 0.0, 0.0], (0.0, 0.0))

    def test_zero_command(self):
        state, sat = self._bridge((0.0, 0.0, 0.0))
        assert state == self._applied((0.0, 0.0, 0.0)) == [0.0] * len(state)
        assert not sat

    def test_scales_with_half_link_voltage(self):
        state, sat = self._bridge((1.0, -1.0, 0.0))
        assert state == self._applied((300.0, -300.0, 0.0))
        assert not sat

    def test_clamps_and_flags(self):
        state, sat = self._bridge(ThreePhaseSample(1.4, -2.0, 0.5))
        assert state == self._applied((300.0, -300.0, 150.0))
        assert sat


def _load_current_abc(v_pcc: ThreePhaseSample, spec: LoadParams, theta: float,
                      scale: float) -> ThreePhaseSample:
    """Per-phase oracle of the load bank: floating-star resistors plus injections."""
    ga, gb, gc = spec.conductances(scale)
    v_n = (ga * v_pcc.a + gb * v_pcc.b + gc * v_pcc.c) / (ga + gb + gc)
    ih = inverse_clarke(FrameVector(*injection_kernel(injection_table(spec.harmonics, scale))(
        theta)))
    return ThreePhaseSample((v_pcc.a - v_n) * ga + ih.a, (v_pcc.b - v_n) * gb + ih.b,
                            (v_pcc.c - v_n) * gc + ih.c)


def _pcc_solve_abc(feeder_total: ThreePhaseSample, conductances: tuple[float, float, float]
                   ) -> ThreePhaseSample:
    """Per-phase oracle of the coupling-bus voltage in the zero-sum gauge."""
    drops = [i / g for i, g in zip(feeder_total, conductances)]
    v_n = -sum(drops) / 3.0
    return ThreePhaseSample(*(v_n + d for d in drops))


def _resistive_current(spec: LoadParams, v: ThreePhaseSample, scale: float = 1.0
                       ) -> ThreePhaseSample:
    """Bank current through the two-axis admittance the network uses."""
    v_ab = clarke(v)
    i_ab = load_admittance_ab(*spec.conductances(scale)) @ np.array([v_ab.x, v_ab.y])
    return inverse_clarke(FrameVector(*i_ab))


def _resistor_current(net: AcNetwork, va: float, vb: float) -> tuple[float, float]:
    """The current the network's resistive bank draws at the bus voltage ``(va, vb)``."""
    y00, y01, y10, y11 = net._y2
    return y00 * va + y01 * vb, y10 * va + y11 * vb


def _bus_voltage(load: LoadParams, feeder_ab: tuple[float, float]) -> ThreePhaseSample:
    """Coupling-bus voltage the network solves for a given feeder current."""
    net = AcNetwork([STAGE], load, DT)
    net.x[4:6] = feeder_ab
    return inverse_clarke(FrameVector(*net.bus(net.x, (0.0, 0.0))[:2]))


class TestLoads:
    def test_balanced_resistor_follows_voltage(self):
        spec = _load(balanced_r=10.0)
        i = _resistive_current(spec, ThreePhaseSample(100.0, -50.0, -50.0))
        assert (i.a, i.b, i.c) == pytest.approx((10.0, -5.0, -5.0), rel=1e-12)

    def test_phase_a_element_carries_only_phase_a(self):
        # contribution of the single-phase element alone
        spec_with = _load(balanced_r=10.0, unbalanced_r_a=20.0)
        spec_without = _load(balanced_r=10.0)
        v = ThreePhaseSample(80.0, -30.0, -50.0)
        with_u = _resistive_current(spec_with, v)
        base = _resistive_current(spec_without, v)
        # the element current leaves phase a and returns through the shared
        # floating neutral, which shifts all three bank currents consistently
        delta = np.array([with_u.a - base.a, with_u.b - base.b, with_u.c - base.c])
        assert abs(delta.sum()) < 1e-12
        assert delta[0] > 0.0

    def test_load_step_scaling_after_event(self):
        # a load step scales the bank the network solves through
        spec = _load(balanced_r=10.0)
        net = AcNetwork([STAGE], spec, DT)
        v = ThreePhaseSample(100.0, -50.0, -50.0)
        before = _resistive_current(spec, v, net.load_scale)
        net.set_load_scale(0.5)
        after = _resistive_current(spec, v, net.load_scale)
        assert after.a == pytest.approx(0.5 * before.a, rel=1e-12)
        v_ab, i_ab = clarke(v), clarke(after)
        assert _resistor_current(net, v_ab.x, v_ab.y) == pytest.approx((i_ab.x, i_ab.y),
                                                                       rel=1e-12)

    def test_harmonic_injection_spectrum_and_sequence(self):
        # 2 A at the 5th order, negative sequence: DFT of the generated
        # waveform shows 2 A there and the right rotation, nothing elsewhere
        harmonics = ((-5, 2.0, 0.3),)
        w = 370.0
        n = int(round(40.0 * 2.0 * math.pi / w / DT))
        inject = injection_kernel(injection_table(harmonics))
        ia, ib, ic = [], [], []
        for i in range(n):
            theta = w * i * DT
            cur = inverse_clarke(FrameVector(*inject(theta)))
            ia.append(cur.a)
            ib.append(cur.b)
            ic.append(cur.c)
        f1 = w / (2.0 * math.pi)
        n_win = int(round(20.0 / (f1 * DT)))
        phasors = []
        for sig in (ia, ib, ic):
            window = np.array(sig[-n_win:])
            fft = np.fft.rfft(window)
            phasors.append(2.0 * fft / n_win)
        mag5 = abs(phasors[0][5 * 20])
        assert mag5 == pytest.approx(2.0, rel=0.01)
        # all other orders below 1 percent of the tone
        for k in range(1, 12):
            if k != 5:
                assert abs(phasors[0][k * 20]) < 0.02
        # negative sequence: phase b leads phase a by 120 degrees
        pa = phasors[0][100]
        pb = phasors[1][100]
        shift = np.angle(pb / pa)
        assert shift == pytest.approx(2.0 * math.pi / 3.0, abs=0.02)

    def test_injection_alpha_beta_matches_inverse_clarke(self):
        spec = ((7, 1.5, 0.2),)
        al, be = injection_kernel(injection_table(spec, 1.0))(0.77)
        abc = _load_current_abc(ThreePhaseSample(0.0, 0.0, 0.0),
                                _load(balanced_r=1e9, harmonics=spec), 0.77, 1.0)
        v = clarke(abc)
        assert (v.x, v.y) == pytest.approx((al, be), rel=1e-12)


class TestPccSolve:
    def test_single_source_ohms_law(self):
        # 0.5 S per phase: a 2-ohm balanced bank
        v = _bus_voltage(_load(balanced_r=2.0), (10.0, 0.0))
        assert (v.a, v.b, v.c) == pytest.approx((20.0, -10.0, -10.0), rel=1e-12)

    def test_superposition_of_equal_feeders(self):
        load = _load(balanced_r=2.0)
        one = _bus_voltage(load, (10.0, 3.0))
        two = _bus_voltage(load, (20.0, 6.0))
        assert two.a == pytest.approx(2.0 * one.a, rel=1e-12)

    def test_rejects_floating_node(self):
        with pytest.raises(ConfigurationError):
            load_admittance_ab(0.0, 0.0, 0.0)

    def test_matches_two_axis_admittance(self):
        # the matrix used by the network and the per-phase solve agree
        ga, gb, gc = 0.12, 0.1, 0.1
        y2 = load_admittance_ab(ga, gb, gc)
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.uniform(-20.0, 20.0, 2)
            i_ab = np.array([a, b])
            v_abc = _pcc_solve_abc(inverse_clarke(FrameVector(a, b)), (ga, gb, gc))
            v_ab = clarke(v_abc)
            back = y2 @ np.array([v_ab.x, v_ab.y])
            assert np.allclose(back, i_ab, atol=1e-9)


class TestAcNetwork:
    def test_open_feeder_rings_at_filter_resonance(self):
        stage = (FILTER, FeederParams(r=1e6, l=2.4e-3))
        net = AcNetwork([stage], _load(balanced_r=1e6), DT)
        hist = []
        for _ in range(20000):
            net.step([100.0, 0.0], (0.0, 0.0))
            hist.append(net.x[2])  # the capacitor voltage's alpha axis
        hist = np.array(hist) - np.mean(hist)
        spectrum = np.abs(np.fft.rfft(hist))
        freq = np.fft.rfftfreq(len(hist), DT)
        peak = freq[spectrum.argmax()]
        assert peak == pytest.approx(FILTER.resonance_hz(), rel=0.02)

    def test_zero_state_zero_input_stays_zero(self):
        net = AcNetwork([STAGE], _load(balanced_r=10.0), DT)
        net.step([0.0, 0.0], (0.0, 0.0))
        assert net.x == [0.0] * len(net.x)

    def test_driven_amplitude_matches_phasor_divider(self):
        flt, fdr = STAGE
        r_load = 9.6
        net = AcNetwork([STAGE], _load(balanced_r=r_load), DT)
        w = 370.0
        for i in range(int(1.0 / DT)):
            t = i * DT
            net.step([170.0 * math.cos(w * t), 170.0 * math.sin(w * t)], (0.0, 0.0))
        amp = math.hypot(*net.x[2:4])  # the capacitor voltage
        jw = 1j * w
        z_c = 1.0 / (jw * flt.c)
        z_load = fdr.r + jw * fdr.l + r_load
        z_par = z_c * z_load / (z_c + z_load)
        oracle = abs(z_par / (jw * flt.l + z_par)) * 170.0
        assert amp == pytest.approx(oracle, rel=0.02)

    def test_kcl_residual_negligible(self):
        net = AcNetwork([STAGE, STAGE_2],
                        _load(balanced_r=10.0, unbalanced_r_a=14.0,
                              harmonics=((-5, 2.0, 0.0),)), DT)
        w = 370.0
        worst = 0.0
        for i in range(5000):
            t = i * DT
            ih = net.inject(w * t)
            x = net.step([170.0 * math.cos(w * t), 170.0 * math.sin(w * t),
                          170.0 * math.cos(w * t), 170.0 * math.sin(w * t)], ih)
            bus = net.bus(x, ih)
            worst = max(worst, net.kcl_residual(bus, _resistor_current(net, bus[0], bus[1])))
        assert worst < 1e-9

    @pytest.mark.parametrize("bank", [None, 0.03], ids=["no-bank", "bank"])
    def test_stored_energy_is_the_elements_sum(self, bank):
        # bit for bit: per unit its inductor, capacitor and feeder, then the
        # bank at its inductance scaled by the load step, times 3/2
        stages = [STAGE, STAGE_2]
        net = AcNetwork(stages, _load(balanced_r=10.0, unbalanced_r_a=14.0, balanced_l=bank),
                        DT)
        net.set_load_scale(0.6)
        rng = np.random.default_rng(3)
        for _ in range(20):
            net.x = x = rng.normal(0.0, 50.0, len(net.x)).tolist()
            e = 0.0
            for d, (flt, fdr) in enumerate(stages):
                ila, ilb, voa, vob, fda, fdb = x[6 * d:6 * d + 6]
                e += 0.5 * flt.l * (ila * ila + ilb * ilb)
                e += 0.5 * flt.c * (voa * voa + vob * vob)
                e += 0.5 * fdr.l * (fda * fda + fdb * fdb)
            if bank is not None:
                la, lb = x[12], x[13]
                e += 0.5 * (bank / 0.6) * (la * la + lb * lb)
            assert repr(net.stored_energy()) == repr(1.5 * e)

    def test_one_matvec_matches_split_transition(self):
        # x1 = T @ [x; u] against T1 @ x + Tu @ u, with T1 and Tu taken from
        # networks built for each load scale and the injection from its phasor
        # definition, so a load step's rebuilt matrix and table are covered
        stages = [STAGE, STAGE_2]
        harmonics = ((-5, 2.0, 0.3), (7, 1.0, -0.4))
        load = _load(balanced_r=10.0, unbalanced_r_a=14.0, harmonics=harmonics,
                     balanced_l=0.03)
        scale = 0.6
        scaled = _load(balanced_r=10.0 / scale, unbalanced_r_a=14.0 / scale,
                       balanced_l=0.03 / scale,
                       harmonics=tuple((order, scale * amp, phase)
                                       for order, amp, phase in harmonics))
        net = AcNetwork(stages, load, DT)
        n = len(net.x)
        x_ref = np.zeros(n)
        w = 370.0
        for i in range(1000):
            if i == 500:
                net.set_load_scale(scale)
            spec = load if i < 500 else scaled
            if i in (0, 500):
                t_ref = AcNetwork(stages, spec, DT)._t
            theta = w * i * DT
            ih = sum(amp * np.exp(1j * np.sign(order) * (abs(order) * theta + phase))
                     for order, amp, phase in spec.harmonics)
            v_inv = [170.0 * math.cos(w * i * DT), 170.0 * math.sin(w * i * DT),
                     160.0 * math.cos(w * i * DT + 0.1), 160.0 * math.sin(w * i * DT + 0.1)]
            u = np.array([*v_inv, ih.real, ih.imag])
            x_ref = t_ref[:, :n] @ x_ref + t_ref[:, n:] @ u
            x = net.step(v_inv, net.inject(theta))
            assert np.max(np.abs(np.array(x) - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))

    def test_rejects_too_coarse_step(self):
        with pytest.raises(ConfigurationError):
            AcNetwork([STAGE], _load(balanced_r=10.0), 5e-4)

    def test_rk4_agrees_with_trapezoid(self):
        # independent oracle: classical RK4 on the single-unit circuit written
        # out by hand (filter L-C, R-L feeder, balanced bank with the bus
        # voltage R * i_feeder), input held over each step as the network does
        flt, fdr = STAGE
        r_load = 10.0
        w = 370.0

        def deriv(s, v_inv):
            i_l, v_c, i_f = s
            return ((v_inv - v_c) / flt.l,
                    (i_l - i_f) / flt.c,
                    (v_c - (fdr.r + r_load) * i_f) / fdr.l)

        def rk4(s, v_inv):
            k1 = deriv(s, v_inv)
            k2 = deriv([x + 0.5 * DT * k for x, k in zip(s, k1)], v_inv)
            k3 = deriv([x + 0.5 * DT * k for x, k in zip(s, k2)], v_inv)
            k4 = deriv([x + DT * k for x, k in zip(s, k3)], v_inv)
            return [x + DT / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                    for x, a, b, c, d in zip(s, k1, k2, k3, k4)]

        net = AcNetwork([STAGE], _load(balanced_r=r_load), DT)
        alpha = [0.0, 0.0, 0.0]
        beta = [0.0, 0.0, 0.0]
        for i in range(int(0.5 / DT)):
            t = i * DT
            v = (170.0 * math.cos(w * t), 170.0 * math.sin(w * t))
            net.step([*v], (0.0, 0.0))
            alpha = rk4(alpha, v[0])
            beta = rk4(beta, v[1])
        amp = math.hypot(*net.x[2:4])  # the capacitor voltage
        assert amp == pytest.approx(math.hypot(alpha[1], beta[1]), rel=1e-3)


def _injection_loop(table, theta):
    """The injection as a loop over an :func:`injection_table`: the kernel's oracle."""
    al = 0.0
    be = 0.0
    for k, phase, amp, sign in table:
        ang = k * theta + phase
        al += amp * math.cos(ang)
        be += amp * math.sin(ang) * sign
    return al, be


def _bus_loop(net, x, ih):
    """The coupling-bus solve as a loop over the units, at the network's load scale."""
    y2 = load_admittance_ab(*net.load.conductances(net.load_scale))
    (z00, z01), (z10, z11) = np.linalg.inv(y2).tolist()
    n = AcNetwork.STATES_PER_DG
    sa = 0.0
    sb = 0.0
    for d in range(len(net.stages)):
        sa += x[n * d + 4]
        sb += x[n * d + 5]
    if net.load.balanced_l is None:
        la = lbk = 0.0
    else:
        la, lbk = x[n * len(net.stages)], x[n * len(net.stages) + 1]
    na = sa - ih[0] - la
    nb = sb - ih[1] - lbk
    return z00 * na + z01 * nb, z10 * na + z11 * nb, na, nb


#: Injection specs: none, one silent tone, whose terms are signed zeros, one
#: tone, and signed orders with zero, negative and large phases and a silent row.
HARMONIC_SPECS = [(), ((-7, 0.0, 2.0),), ((-5, 2.0, 0.3),),
                  ((-1, 7.4, 0.0), (3, 3.1, -0.4), (-5, 4.6, 2.9), (7, 0.0, 1.0),
                   (-11, 1.3, -31.7), (13, 0.7, 0.25))]
#: Load angles: both zeros, small and large, either side of zero.
THETAS = [0.0, -0.0, 1e-9, 0.77, -2.5, 314.159, 1.0e4 + 0.123]


class TestPlantKernels:
    """The generated injection, bus and envelope kernels against their loops, bit for bit."""

    @pytest.mark.parametrize("spec", HARMONIC_SPECS, ids=["empty", "silent", "one", "six"])
    @pytest.mark.parametrize("scale", [1.0, 0.6])
    def test_injection_matches_the_loop(self, spec, scale):
        table = injection_table(spec, scale)
        inject = injection_kernel(table)
        for theta in THETAS:
            _assert_bitwise(inject(theta), _injection_loop(table, theta))
        if not spec:
            assert inject(0.77) == (0.0, 0.0)

    @pytest.mark.parametrize("units", [1, 2, 3])
    @pytest.mark.parametrize("bank", [None, 0.03], ids=["no-bank", "bank"])
    def test_bus_matches_the_loop(self, units, bank):
        net = AcNetwork([STAGE, STAGE_2, STAGE][:units],
                        _load(balanced_r=10.0, unbalanced_r_a=14.0, balanced_l=bank), DT)
        rng = np.random.default_rng(units)
        states = [[-0.0] * len(net.x), [0.0] * len(net.x)]
        states += [rng.normal(0.0, 50.0, len(net.x)).tolist() for _ in range(20)]
        for x in states:
            for ih in [(0.0, 0.0), (-0.0, -0.0), tuple(rng.normal(0.0, 3.0, 2).tolist())]:
                _assert_bitwise(net.bus(x, ih), _bus_loop(net, x, ih))

    @pytest.mark.parametrize("bank", [None, 0.03], ids=["no-bank", "bank"])
    def test_kernels_follow_a_load_step(self, bank):
        spec = HARMONIC_SPECS[-1]
        net = AcNetwork([STAGE, STAGE_2],
                        _load(balanced_r=10.0, unbalanced_r_a=14.0, harmonics=spec,
                              balanced_l=bank), DT)
        x = np.random.default_rng(5).normal(0.0, 50.0, len(net.x)).tolist()
        before = net.inject(0.77), net.bus(x, (1.0, -2.0))
        net.set_load_scale(0.6)
        for theta in THETAS:
            _assert_bitwise(net.inject(theta), _injection_loop(injection_table(spec, 0.6), theta))
        _assert_bitwise(net.bus(x, (1.0, -2.0)), _bus_loop(net, x, (1.0, -2.0)))
        assert (net.inject(0.77), net.bus(x, (1.0, -2.0))) != before

    @pytest.mark.parametrize("n", [6, 12, 14])
    def test_envelope_matches_the_range_loop(self, n):
        bound = AcNetwork.AC_BOUND
        in_envelope = envelope_kernel(n, bound)
        edges = [-bound, bound, -0.0, 0.0]
        states = [[edges[i % 4] for i in range(n)]]  # inside, at the edges
        for i in range(n):
            for value in (math.nan, math.inf, -math.inf, math.nextafter(bound, math.inf),
                          math.nextafter(-bound, -math.inf)):
                x = [0.0] * n
                x[i] = value
                states.append(x)
        verdicts = [in_envelope(x) for x in states]
        assert verdicts == [all(-bound <= v <= bound for v in x) for x in states]
        assert verdicts == [True] + [False] * (len(states) - 1)

    def test_kernels_return_python_floats(self):
        # a NumPy scalar from a kernel would turn every controller downstream
        # into float64 arithmetic
        plant = _two_unit_plant(balanced_l="0.03")
        w = 370.0
        for i in range(50):
            m = inverse_clarke(FrameVector(0.5 * math.cos(w * i * DT),
                                           0.5 * math.sin(w * i * DT)))
            plant.step([0.37, 0.37], [m, m], w * i * DT)
        net = plant.network
        ih = net.inject(w * 50 * DT)
        values = [*ih, *net.bus(net.x, ih), *plant.measurements(w * 50 * DT)[0]]
        assert [type(v) for v in values] == [float] * len(values)
        assert any(values)
        assert net.in_envelope(net.x) is True


def _two_unit_plant(**load):
    """The default scenario's plant under the ``load.*`` keys ``load``; by
    default a 10-ohm bank, 14 ohms more on phase a and a 2 A fifth harmonic."""
    keys = {"balanced_r": "10.0", "balanced_l": "off", "unbalanced_r_a": "14.0",
            "harmonics": "-5:2.0", **load}
    cfg = from_mapping({f"load.{key}": value for key, value in keys.items()})
    assert cfg.dt == DT
    return Plant(cfg)


class TestPlant:
    def test_zero_controls_keep_ac_quiet(self):
        plant = _two_unit_plant(harmonics="")
        zero = ThreePhaseSample(0.0, 0.0, 0.0)
        for i in range(200):
            plant.step([0.37, 0.37], [zero, zero], 370.0 * i * DT)
        assert np.max(np.abs(plant.network.x)) == 0.0

    def test_driven_voltage_division_with_energy_audit(self):
        r_load = 9.6
        plant = _two_unit_plant(**RESISTIVE, balanced_r=repr(r_load))
        w = 370.0
        v_cmd = 170.0
        for i in range(int(1.0 / DT)):
            t = i * DT
            mods = []
            for d in (0, 1):
                v_dc = plant.dc_sides[d].v_dc
                mods.append(inverse_clarke(FrameVector(
                    2.0 * v_cmd / v_dc * math.cos(w * t),
                    2.0 * v_cmd / v_dc * math.sin(w * t))))
            plant.step([0.37, 0.37], mods, w * t)
        amp1 = math.hypot(*plant.network.x[2:4])  # unit 1's capacitor voltage
        amp_pcc = math.hypot(*plant.network.bus(plant.network.x, (0.0, 0.0))[:2])

        # independent oracle: complex nodal solve of the three-node mesh
        s1, s2 = plant.network.stages
        jw = 1j * w
        y = np.zeros((3, 3), dtype=complex)
        rhs = np.zeros(3, dtype=complex)
        for k, ((flt, fdr), v_src) in enumerate(((s1, v_cmd), (s2, v_cmd))):
            zf = fdr.r + jw * fdr.l
            y[k, k] = 1.0 / (jw * flt.l) + jw * flt.c + 1.0 / zf
            y[k, 2] = -1.0 / zf
            y[2, k] = -1.0 / zf
            y[2, 2] += 1.0 / zf
            rhs[k] = v_src / (jw * flt.l)
        y[2, 2] += 1.0 / r_load
        sol = np.linalg.solve(y, rhs)
        assert amp1 == pytest.approx(abs(sol[0]), rel=0.02)
        assert amp_pcc == pytest.approx(abs(sol[2]), rel=0.02)
        assert plant.energy_audit_error() < 0.005
        assert plant.max_kcl_residual < 1e-9

    def test_determinism_bit_identical(self):
        def run():
            plant = _two_unit_plant()
            w = 370.0
            for i in range(2000):
                t = i * DT
                m = inverse_clarke(FrameVector(0.5 * math.cos(w * t),
                                               0.5 * math.sin(w * t)))
                plant.step([0.37, 0.4], [m, m], w * t)
            return np.array(plant.network.x).tobytes(), plant.dc_sides[0].v_dc

        assert run() == run()

    def test_dc_sides_keep_the_parsed_pv_curves(self):
        # the curve is solved once, when the scenario parses
        cfg = from_mapping({})
        plant = Plant(cfg)
        for side, dg in zip(plant.dc_sides, cfg.dgs):
            assert side.pv is dg.pv

    def test_each_link_starts_at_its_own_reference(self):
        plant = runner.build_plant(from_mapping({"dg2.vr.v_dc_ref": "650.0"}))
        assert [side.v_dc for side in plant.dc_sides] == [600.0, 650.0]

    @pytest.mark.parametrize("side, value", [("AC", 1e7), ("AC", math.nan), ("AC", -math.inf),
                                             ("DC", math.nan)],
                             ids=["ac-1e7", "ac-nan", "ac-minus-inf", "dc-nan"])
    def test_divergence_detector_aborts(self, side, value):
        plant = _two_unit_plant()
        if side == "AC":
            plant.network.x[0] = value
        else:
            plant.dc_sides[1].i_boost = value
        # inf * 0 in the transition product is NaN, as intended here
        with np.errstate(invalid="ignore"), pytest.raises(SimulationDivergence,
                                                          match=f"{side} state"):
            plant.step([0.37, 0.37],
                       [ThreePhaseSample(0.0, 0.0, 0.0)] * 2, 0.0)

    def test_dc_overflow_is_a_divergence(self):
        # a string voltage far past open circuit overflows the PV curve's exponential
        plant = _two_unit_plant()
        plant.dc_sides[1].v_pv = 1e6
        with pytest.raises(SimulationDivergence, match="DC state") as err:
            plant.step([0.37, 0.37], [ThreePhaseSample(0.0, 0.0, 0.0)] * 2, 0.0)
        assert err.value.t_last_good == 0.0

    def test_bounds_check_sees_a_nan_anywhere(self):
        # a step spreads a NaN to every state; max() over a list would skip
        # one that is not its first item.  NaN and either infinity fail the
        # check at every AC index and in every DC state, bank or not.
        for bank in ("off", "0.03"):
            plant = _two_unit_plant(balanced_l=bank)
            for value in (math.nan, math.inf, -math.inf):
                for i in range(len(plant.network.x)):
                    x = list(plant.network.x)
                    x[i] = value
                    with pytest.raises(SimulationDivergence, match="AC state"):
                        plant._check_bounds(x)
                for side in plant.dc_sides:
                    for name in ("v_pv", "i_boost", "v_dc"):
                        healthy = getattr(side, name)
                        setattr(side, name, value)
                        with pytest.raises(SimulationDivergence, match="DC state"):
                            plant._check_bounds(plant.network.x)
                        setattr(side, name, healthy)
            plant._check_bounds(plant.network.x)

    def test_dc_envelope_edges(self):
        # the range tests admit their limits and nothing past them
        plant = _two_unit_plant()
        side = plant.dc_sides[0]
        for name, limit in (("v_dc", V_DC_LIMIT), ("i_boost", 1e4)):
            healthy = getattr(side, name)
            for value in (limit, -limit):
                setattr(side, name, value)
                plant._check_bounds(plant.network.x)
                setattr(side, name, math.nextafter(value, math.copysign(math.inf, value)))
                with pytest.raises(SimulationDivergence, match="DC state"):
                    plant._check_bounds(plant.network.x)
            setattr(side, name, healthy)

    def test_pv_power_adds_left_to_right(self):
        # sum() compensates its rounding from Python 3.12 on, so a three-unit
        # audit would differ between versions; the plant adds in unit order
        cfg = from_mapping({})
        cfg = dataclasses.replace(cfg, dgs=cfg.dgs + [copy.deepcopy(cfg.dgs[0])])
        plant = Plant(cfg)
        for side, irradiance in zip(plant.dc_sides, (1.0, 0.21, 0.34)):
            side.set_irradiance(irradiance)
        p1, p2, p3 = (side.v_pv * side.i_pv for side in plant.dc_sides)
        # these powers round differently when the sum is compensated
        assert math.fsum((p1, p2, p3)) != ((0 + p1) + p2) + p3
        plant.step([0.37] * 3, [ThreePhaseSample(0.0, 0.0, 0.0)] * 3, 0.0)
        assert plant.energy_in == cfg.dt * (((0 + p1) + p2) + p3)

    def test_inductive_bank_consumes_reactive(self):
        plant = _two_unit_plant(**RESISTIVE, balanced_l="0.03")
        w = 370.0
        for i in range(int(0.6 / DT)):
            t = i * DT
            m = inverse_clarke(FrameVector(
                2.0 * 170.0 / 600.0 * math.cos(w * t),
                2.0 * 170.0 / 600.0 * math.sin(w * t)))
            plant.step([0.37, 0.37], [m, m], w * t)
        # bank current magnitude close to V/(w L) at the coupling bus
        v = math.hypot(*plant.measurements(w * 0.6)[0])
        bank = math.hypot(*plant.network.x[-2:])  # the inductive bank's pair, last
        assert bank == pytest.approx(v / (w * 0.03), rel=0.05)
        assert plant.energy_audit_error() < 0.005

    @pytest.mark.parametrize("scale", [0.6, 1.5])
    def test_load_step_keeps_the_energy_audit(self, scale):
        # a step rescales the inductive bank with its current held; the jump
        # in its stored energy is switched in with the bank, not an audit error
        def audit(step):
            plant = _two_unit_plant(**RESISTIVE, balanced_l="0.03")
            w = 370.0
            n = int(0.3 / DT)
            for i in range(n):
                if step and i == n // 2:
                    plant.network.set_load_scale(scale)
                m = inverse_clarke(FrameVector(
                    2.0 * 170.0 / 600.0 * math.cos(w * i * DT),
                    2.0 * 170.0 / 600.0 * math.sin(w * i * DT)))
                plant.step([0.37, 0.37], [m, m], w * i * DT)
            return plant.energy_audit_error(), plant.network.switched_energy

        error, switched = audit(True)
        unstepped, _ = audit(False)
        assert abs(switched) > 1.0  # joules: the bank did carry current
        assert error < 2.0 * unstepped

    def test_pv_current_follows_the_state(self, monkeypatch):
        # the held PV current is the curve at the live state, on every tick,
        # with two substeps per tick and on the tick of an irradiance event
        measure = Plant.measurements
        seen = []

        def checked(plant, theta):
            meas = measure(plant, theta)
            for row, side in zip(meas[1], plant.dc_sides):
                assert row[-1] == pv_current(max(side.v_pv, 0.0), side.irradiance, side.pv)
            seen.append((plant.dc_sides[0].irradiance, meas[1][0][-1]))
            return meas

        monkeypatch.setattr(Plant, "measurements", checked)
        cfg = from_mapping({"solver.duration": "0.3", "solver.dt": "25e-6",
                            "events.irradiance": "0.25:1:0.5"})
        runner.run_simulation(cfg)
        assert ticks(cfg.control_period, cfg.dt) == 2
        assert len(seen) == ticks(cfg.duration, cfg.control_period)
        event = ticks(0.25, cfg.control_period)
        (before, i_before), (after, i_after) = seen[event - 1:event + 1]
        assert (before, after) == (1.0, 0.5)
        assert i_before > 1.0 and i_after < i_before  # the array delivers, and the dip shows

    def test_measurement_rows_follow_the_unit_states(self):
        # one row per unit: its six network states, then its link voltage,
        # string voltage and string current, read where the plant keeps them
        plant = _two_unit_plant()
        w = 370.0
        for i in range(400):
            m = inverse_clarke(FrameVector(0.5 * math.cos(w * i * DT),
                                           0.5 * math.sin(w * i * DT)))
            plant.step([0.37, 0.4], [m, m], w * i * DT)
        theta = w * 400 * DT
        net = plant.network
        v_pcc, rows = plant.measurements(theta)
        assert v_pcc == net.bus(net.x, net.inject(theta))[:2]
        n = AcNetwork.STATES_PER_DG
        assert rows == [(*net.x[n * d:n * d + n], side.v_dc, side.v_pv, side.i_pv)
                        for d, side in enumerate(plant.dc_sides)]
        assert rows[0] != rows[1]

    def test_measurements_see_the_load_step(self):
        # once the load scale is set, measurements solve the bus through the
        # new load, the same admittance the following plant step integrates with
        plant = _two_unit_plant()
        load = plant.network.load
        w = 370.0
        for i in range(400):
            m = inverse_clarke(FrameVector(0.5 * math.cos(w * i * DT),
                                           0.5 * math.sin(w * i * DT)))
            plant.step([0.37, 0.37], [m, m], w * i * DT)
        theta = w * 400 * DT
        plant.network.set_load_scale(0.6)
        measured = plant.measurements(theta)[0]
        stepped = AcNetwork(plant.network.stages, load, DT)
        stepped.set_load_scale(0.6)
        stepped.x = plant.network.x.copy()
        ih = injection_kernel(injection_table(load.harmonics, 0.6))(theta)
        assert measured == stepped.bus(stepped.x, ih)[:2]
        unstepped = AcNetwork(plant.network.stages, load, DT)
        unstepped.x = plant.network.x.copy()
        assert measured != unstepped.bus(
            unstepped.x, injection_kernel(injection_table(load.harmonics))(theta))[:2]
