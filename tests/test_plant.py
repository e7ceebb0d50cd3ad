import dataclasses
import math

import numpy as np
import pytest

from pvisland import runner
from pvisland.config import from_mapping
from pvisland.errors import ConfigurationError, SimulationDivergence
from pvisland.plant import (
    AcNetwork,
    AcStageParams,
    DcLinkParams,
    DcSide,
    HarmonicInjection,
    LoadSpec,
    Plant,
    PvParams,
    harmonic_current_ab,
    injection_table,
    load_admittance_ab,
    pv_current,
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
STAGE = AcStageParams(l_filter=1.8e-3, c_filter=25e-6, feeder_r=0.8, feeder_l=2.4e-3)
#: ``load.*`` keys of a plain 10-ohm balanced bank, for :func:`_two_unit_plant`.
RESISTIVE = {"unbalanced_r_a": "off", "harmonics": ""}


@pytest.fixture
def pv3k():
    return PvParams(rated_w=3000.0, v_oc=450.0, i_sc=8.8, v_mp=380.0, i_mp=3000.0 / 380.0)


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
        dc = DcSide(pv3k, DC_LINK, 1.0, v_pv=380.0, v_dc=600.0)
        dc.i_boost = 7.0
        duty = 1.0 - 380.0 / 600.0
        draw = 380.0 * pv_current(380.0, 1.0, pv3k) * 0.999
        for _ in range(int(1.5 / DT)):
            dc.step(duty, draw, DT)
        assert dc.v_dc == pytest.approx(dc.v_pv / (1.0 - duty), rel=0.02)

    def test_link_rises_without_draw(self, pv3k):
        dc = DcSide(pv3k, DC_LINK, 1.0, v_pv=380.0, v_dc=600.0)
        dc.i_boost = dc.i_pv
        history = [dc.v_dc]
        for _ in range(int(0.02 / DT)):
            dc.step(1.0 - 380.0 / 600.0, 0.0, DT)
            history.append(dc.v_dc)
        assert all(b >= a for a, b in zip(history, history[1:]))

    def test_energy_balance_over_one_second(self, pv3k):
        dc = DcSide(pv3k, DC_LINK, 1.0, v_pv=380.0, v_dc=600.0)
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
        dc = DcSide(pv3k, DC_LINK, 1.0, v_pv=380.0, v_dc=600.0)
        with pytest.raises(ConfigurationError):
            dc.step(1.2, 0.0, DT)


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
        return net.step([clarke_xy(*phase_volts), (0.0, 0.0)], (0.0, 0.0))

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


def _load_current_abc(v_pcc: ThreePhaseSample, spec: LoadSpec, theta: float,
                      scale: float) -> ThreePhaseSample:
    """Per-phase oracle of the load bank: floating-star resistors plus injections."""
    ga, gb, gc = spec.conductances(scale)
    v_n = (ga * v_pcc.a + gb * v_pcc.b + gc * v_pcc.c) / (ga + gb + gc)
    ih = inverse_clarke(FrameVector(*harmonic_current_ab(injection_table(spec.harmonics, scale),
                                                         theta)))
    return ThreePhaseSample((v_pcc.a - v_n) * ga + ih.a, (v_pcc.b - v_n) * gb + ih.b,
                            (v_pcc.c - v_n) * gc + ih.c)


def _pcc_solve_abc(feeder_total: ThreePhaseSample, conductances: tuple[float, float, float]
                   ) -> ThreePhaseSample:
    """Per-phase oracle of the coupling-bus voltage in the zero-sum gauge."""
    drops = [i / g for i, g in zip(feeder_total, conductances)]
    v_n = -sum(drops) / 3.0
    return ThreePhaseSample(*(v_n + d for d in drops))


def _resistive_current(spec: LoadSpec, v: ThreePhaseSample, scale: float = 1.0
                       ) -> ThreePhaseSample:
    """Bank current through the two-axis admittance the network uses."""
    v_ab = clarke(v)
    i_ab = load_admittance_ab(*spec.conductances(scale)) @ np.array([v_ab.x, v_ab.y])
    return inverse_clarke(FrameVector(*i_ab))


def _bus_voltage(load: LoadSpec, feeder_ab: tuple[float, float]) -> ThreePhaseSample:
    """Coupling-bus voltage the network solves for a given feeder current."""
    net = AcNetwork([STAGE], load, DT)
    net.x[4:6] = feeder_ab
    return inverse_clarke(FrameVector(*net.bus(net.x, (0.0, 0.0))[:2]))


class TestLoads:
    def test_balanced_resistor_follows_voltage(self):
        spec = LoadSpec(balanced_r=10.0)
        i = _resistive_current(spec, ThreePhaseSample(100.0, -50.0, -50.0))
        assert (i.a, i.b, i.c) == pytest.approx((10.0, -5.0, -5.0), rel=1e-12)

    def test_phase_a_element_carries_only_phase_a(self):
        # contribution of the single-phase element alone
        spec_with = LoadSpec(balanced_r=10.0, unbalanced_r_a=20.0)
        spec_without = LoadSpec(balanced_r=10.0)
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
        spec = LoadSpec(balanced_r=10.0)
        net = AcNetwork([STAGE], spec, DT)
        v = ThreePhaseSample(100.0, -50.0, -50.0)
        before = _resistive_current(spec, v, net.load_scale)
        net.set_load_scale(0.5)
        after = _resistive_current(spec, v, net.load_scale)
        assert after.a == pytest.approx(0.5 * before.a, rel=1e-12)
        v_ab, i_ab = clarke(v), clarke(after)
        assert net._resistor_current(v_ab.x, v_ab.y) == pytest.approx((i_ab.x, i_ab.y),
                                                                      rel=1e-12)

    def test_harmonic_injection_spectrum_and_sequence(self):
        # 2 A at the 5th order, negative sequence: DFT of the generated
        # waveform shows 2 A there and the right rotation, nothing elsewhere
        harmonics = (HarmonicInjection(-5, 2.0, 0.3),)
        w = 370.0
        n = int(round(40.0 * 2.0 * math.pi / w / DT))
        ia, ib, ic = [], [], []
        for i in range(n):
            theta = w * i * DT
            cur = inverse_clarke(FrameVector(*harmonic_current_ab(injection_table(harmonics),
                                                                  theta)))
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
        spec = (HarmonicInjection(7, 1.5, 0.2),)
        al, be = harmonic_current_ab(injection_table(spec, 1.0), 0.77)
        abc = _load_current_abc(ThreePhaseSample(0.0, 0.0, 0.0),
                                LoadSpec(balanced_r=1e9, harmonics=spec), 0.77, 1.0)
        v = clarke(abc)
        assert (v.x, v.y) == pytest.approx((al, be), rel=1e-12)


class TestPccSolve:
    def test_single_source_ohms_law(self):
        # 0.5 S per phase: a 2-ohm balanced bank
        v = _bus_voltage(LoadSpec(balanced_r=2.0), (10.0, 0.0))
        assert (v.a, v.b, v.c) == pytest.approx((20.0, -10.0, -10.0), rel=1e-12)

    def test_superposition_of_equal_feeders(self):
        load = LoadSpec(balanced_r=2.0)
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
        stage = dataclasses.replace(STAGE, feeder_r=1e6)
        net = AcNetwork([stage], LoadSpec(balanced_r=1e6), DT)
        hist = []
        for _ in range(20000):
            net.step([(100.0, 0.0)], (0.0, 0.0))
            hist.append(net.cap_voltage(0)[0])
        hist = np.array(hist) - np.mean(hist)
        spectrum = np.abs(np.fft.rfft(hist))
        freq = np.fft.rfftfreq(len(hist), DT)
        peak = freq[spectrum.argmax()]
        assert peak == pytest.approx(stage.resonance_hz(), rel=0.02)

    def test_zero_state_zero_input_stays_zero(self):
        net = AcNetwork([STAGE], LoadSpec(balanced_r=10.0), DT)
        net.step([(0.0, 0.0)], (0.0, 0.0))
        assert net.x == [0.0] * len(net.x)

    def test_driven_amplitude_matches_phasor_divider(self):
        stage = STAGE
        r_load = 9.6
        net = AcNetwork([stage], LoadSpec(balanced_r=r_load), DT)
        w = 370.0
        for i in range(int(1.0 / DT)):
            t = i * DT
            net.step([(170.0 * math.cos(w * t), 170.0 * math.sin(w * t))], (0.0, 0.0))
        amp = math.hypot(*net.cap_voltage(0))
        jw = 1j * w
        z_c = 1.0 / (jw * stage.c_filter)
        z_load = stage.feeder_r + jw * stage.feeder_l + r_load
        z_par = z_c * z_load / (z_c + z_load)
        oracle = abs(z_par / (jw * stage.l_filter + z_par)) * 170.0
        assert amp == pytest.approx(oracle, rel=0.02)

    def test_kcl_residual_negligible(self):
        net = AcNetwork([STAGE, dataclasses.replace(STAGE, feeder_r=0.4, feeder_l=1.2e-3)],
                        LoadSpec(balanced_r=10.0, unbalanced_r_a=14.0,
                                 harmonics=(HarmonicInjection(-5, 2.0),)), DT)
        w = 370.0
        worst = 0.0
        for i in range(5000):
            t = i * DT
            ih = harmonic_current_ab(net.injections, w * t)
            x = net.step([(170.0 * math.cos(w * t), 170.0 * math.sin(w * t)),
                          (170.0 * math.cos(w * t), 170.0 * math.sin(w * t))], ih)
            bus = net.bus(x, ih)
            worst = max(worst, net.kcl_residual(bus, net._resistor_current(bus[0], bus[1])))
        assert worst < 1e-9

    def test_one_matvec_matches_split_transition(self):
        # x1 = T @ [x; u] against T1 @ x + Tu @ u, with T1 and Tu taken from
        # networks built for each load scale and the injection from its phasor
        # definition, so a load step's rebuilt matrix and table are covered
        stages = [STAGE, dataclasses.replace(STAGE, feeder_r=0.4, feeder_l=1.2e-3)]
        harmonics = (HarmonicInjection(-5, 2.0, 0.3), HarmonicInjection(7, 1.0, -0.4))
        load = LoadSpec(balanced_r=10.0, unbalanced_r_a=14.0, harmonics=harmonics,
                        balanced_l=0.03)
        scale = 0.6
        scaled = LoadSpec(balanced_r=10.0 / scale, unbalanced_r_a=14.0 / scale,
                          balanced_l=0.03 / scale,
                          harmonics=tuple(HarmonicInjection(h.order, scale * h.amplitude, h.phase)
                                          for h in harmonics))
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
            ih = sum(h.amplitude * np.exp(1j * np.sign(h.order) * (abs(h.order) * theta + h.phase))
                     for h in spec.harmonics)
            v_inv = [(170.0 * math.cos(w * i * DT), 170.0 * math.sin(w * i * DT)),
                     (160.0 * math.cos(w * i * DT + 0.1), 160.0 * math.sin(w * i * DT + 0.1))]
            u = np.array([*v_inv[0], *v_inv[1], ih.real, ih.imag])
            x_ref = t_ref[:, :n] @ x_ref + t_ref[:, n:] @ u
            x = net.step(v_inv, harmonic_current_ab(net.injections, theta))
            assert np.max(np.abs(np.array(x) - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))

    def test_rejects_too_coarse_step(self):
        with pytest.raises(ConfigurationError):
            AcNetwork([STAGE], LoadSpec(balanced_r=10.0), 5e-4)

    def test_rk4_agrees_with_trapezoid(self):
        # independent oracle: classical RK4 on the single-unit circuit written
        # out by hand (filter L-C, R-L feeder, balanced bank with the bus
        # voltage R * i_feeder), input held over each step as the network does
        stage = STAGE
        r_load = 10.0
        w = 370.0

        def deriv(s, v_inv):
            i_l, v_c, i_f = s
            return ((v_inv - v_c) / stage.l_filter,
                    (i_l - i_f) / stage.c_filter,
                    (v_c - (stage.feeder_r + r_load) * i_f) / stage.feeder_l)

        def rk4(s, v_inv):
            k1 = deriv(s, v_inv)
            k2 = deriv([x + 0.5 * DT * k for x, k in zip(s, k1)], v_inv)
            k3 = deriv([x + 0.5 * DT * k for x, k in zip(s, k2)], v_inv)
            k4 = deriv([x + DT * k for x, k in zip(s, k3)], v_inv)
            return [x + DT / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                    for x, a, b, c, d in zip(s, k1, k2, k3, k4)]

        net = AcNetwork([stage], LoadSpec(balanced_r=r_load), DT)
        alpha = [0.0, 0.0, 0.0]
        beta = [0.0, 0.0, 0.0]
        for i in range(int(0.5 / DT)):
            t = i * DT
            v = (170.0 * math.cos(w * t), 170.0 * math.sin(w * t))
            net.step([v], (0.0, 0.0))
            alpha = rk4(alpha, v[0])
            beta = rk4(beta, v[1])
        amp = math.hypot(*net.cap_voltage(0))
        assert amp == pytest.approx(math.hypot(alpha[1], beta[1]), rel=1e-3)


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
        amp1 = math.hypot(*plant.network.cap_voltage(0))
        amp_pcc = math.hypot(*plant.network.bus(plant.network.x, (0.0, 0.0))[:2])

        # independent oracle: complex nodal solve of the three-node mesh
        s1, s2 = plant.network.stages
        jw = 1j * w
        y = np.zeros((3, 3), dtype=complex)
        rhs = np.zeros(3, dtype=complex)
        for k, (st, v_src) in enumerate(((s1, v_cmd), (s2, v_cmd))):
            zf = st.feeder_r + jw * st.feeder_l
            y[k, k] = 1.0 / (jw * st.l_filter) + jw * st.c_filter + 1.0 / zf
            y[k, 2] = -1.0 / zf
            y[2, k] = -1.0 / zf
            y[2, 2] += 1.0 / zf
            rhs[k] = v_src / (jw * st.l_filter)
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

    def test_bounds_check_sees_a_nan_anywhere(self):
        # a step spreads a NaN to every state; max() over a list would skip
        # one that is not its first item
        plant = _two_unit_plant()
        x = list(plant.network.x)
        x[-1] = math.nan
        with pytest.raises(SimulationDivergence, match="AC state"):
            plant._check_bounds(x)

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
        bank = math.hypot(*plant.network.bank_current())
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
        assert v_pcc == net.bus(net.x, harmonic_current_ab(net.injections, theta))[:2]
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
        ih = harmonic_current_ab(injection_table(load.harmonics, 0.6), theta)
        assert measured == stepped.bus(stepped.x, ih)[:2]
        unstepped = AcNetwork(plant.network.stages, load, DT)
        unstepped.x = plant.network.x.copy()
        assert measured != unstepped.bus(
            unstepped.x, harmonic_current_ab(injection_table(load.harmonics), theta))[:2]
