import math

import numpy as np
import pytest

from pvisland.config import from_mapping
from pvisland.signals import FrameVector, ThreePhaseSample, inverse_clarke
from pvisland.vcc import (
    CentralCompensator,
    DqExtractionBank,
    quality_index,
)

DT_TICK = 1e-3
OMEGA = 370.0


def _composite_sample(t, pos=170.0, neg=0.0, h5=0.0):
    al = pos * math.cos(OMEGA * t) + neg * math.cos(OMEGA * t + 0.4) \
        + h5 * math.cos(5.0 * OMEGA * t + 1.1)
    be = pos * math.sin(OMEGA * t) - neg * math.sin(OMEGA * t + 0.4) \
        - h5 * math.sin(5.0 * OMEGA * t + 1.1)
    return inverse_clarke(FrameVector(al, be))


class TestDqExtraction:
    def _run(self, make, seconds=1.5):
        bank = DqExtractionBank(DT_TICK)
        n = int(seconds / DT_TICK)
        for i in range(n):
            t = i * DT_TICK
            out = bank.step(make(t), OMEGA * t % (2.0 * math.pi), DT_TICK)
        return out

    def test_pure_positive_sequence(self):
        out = self._run(lambda t: _composite_sample(t))
        assert out[1].magnitude() == pytest.approx(170.0, rel=0.02)
        for c in (-1, 3, -5, 7, -11):
            assert out[c].magnitude() < 0.01 * out[1].magnitude()

    def test_zero_input(self):
        out = self._run(lambda t: ThreePhaseSample(0.0, 0.0, 0.0), seconds=0.1)
        assert all(v.magnitude() == 0.0 for v in out.values())

    def test_unbalanced_composite_ratio(self):
        out = self._run(lambda t: _composite_sample(t, neg=17.0))
        ratio = out[-1].magnitude() / out[1].magnitude()
        assert ratio == pytest.approx(0.10, rel=0.02)

    def test_harmonic_component_recovered(self):
        out = self._run(lambda t: _composite_sample(t, h5=8.5))
        assert out[-5].magnitude() == pytest.approx(8.5, rel=0.02)


class TestIndices:
    def test_vuf_zero_for_balanced(self):
        value, ok = quality_index(0.0, 100.0)
        assert ok and value == 0.0

    def test_vuf_direct_ratio(self):
        value, ok = quality_index(5.8, 100.0)
        assert ok and value == pytest.approx(5.8, rel=1e-12)

    def test_vuf_percent_of_amplitude(self):
        value, ok = quality_index(1.697, 169.7)
        assert ok and value == pytest.approx(1.0, rel=1e-12)

    def test_hd_direct_ratio(self):
        value, ok = quality_index(2.0, 100.0)
        assert ok and value == pytest.approx(2.0, rel=1e-12)

    def test_collapsed_positive_sequence_flags(self):
        value, ok = quality_index(1.0, 0.5)
        assert not ok and value == 0.0

    def test_scale_invariance(self):
        # above the validity floor the ratio ignores overall voltage scale
        rng = np.random.default_rng(5)
        for _ in range(50):
            neg = rng.uniform(0.1, 50.0)
            pos = rng.uniform(2.0, 100.0)
            k = rng.uniform(1.0, 10.0)
            v1, ok1 = quality_index(neg, pos)
            v2, ok2 = quality_index(k * neg, k * pos)
            assert ok1 and ok2
            assert v1 == pytest.approx(v2, rel=1e-12)

    def test_hd_consistent_with_total_distortion(self):
        # orders at 3, 2, 2, 1 percent combine to sqrt(18) percent total
        parts = (3.0, 2.0, 2.0, 1.0)
        total = math.sqrt(sum(p * p for p in parts))
        assert total == pytest.approx(math.sqrt(18.0), rel=1e-12)
        got = [quality_index(p, 100.0)[0] for p in parts]
        assert math.sqrt(sum(g * g for g in got)) == pytest.approx(total, rel=1e-12)


def _compensator(**keys):
    """The default scenario's compensator under the scenario keys ``keys``."""
    return CentralCompensator(from_mapping(keys))


def _extracted(pos_mag=170.0, neg_mag=0.0, h_mags=None, theta=0.3):
    h_mags = h_mags or {}
    out = {
        1: FrameVector(pos_mag, 0.0, "dq", theta),
        -1: FrameVector(neg_mag, 0.0, "dq", -theta),
    }
    for c in (3, -5, 7, -11):
        out[c] = FrameVector(h_mags.get(c, 0.0), 0.0, "dq", c * theta)
    return out


class TestCentralCompensator:
    def test_quiet_network_yields_zero_corrections(self):
        comp = _compensator()
        refs_met = _extracted(neg_mag=170.0 * 0.002,
                              h_mags={c: 170.0 * 0.002 for c in (3, -5, 7, -11)})
        outs = comp.correction_from(comp.step(refs_met, DT_TICK), 0.3)
        assert all(v == (0.0, 0.0) for v in outs)

    def test_below_reference_contributes_exactly_zero(self):
        comp = _compensator()
        outs = comp.correction_from(comp.step(_extracted(neg_mag=0.1), DT_TICK), 0.3)  # far below 0.2 percent
        assert all(v == (0.0, 0.0) for v in outs)

    def test_rated_power_scaling_is_exact(self):
        comp = _compensator()  # units rated 3 kW and 6 kW
        for _ in range(20):
            outs = comp.correction_from(comp.step(_extracted(neg_mag=10.0, h_mags={-5: 4.0}), DT_TICK), 0.3)
        (x1, y1), (x2, y2) = outs
        assert math.hypot(x1, y1) > 0.0
        assert x1 == pytest.approx(0.5 * x2, rel=1e-12)
        assert y1 == pytest.approx(0.5 * y2, rel=1e-12)

    def test_corrections_collinear_across_units(self):
        comp = _compensator(**{"dg2.pv.rated_w": "10500.0"})  # 3 kW and 10.5 kW
        for _ in range(20):
            outs = comp.correction_from(comp.step(_extracted(neg_mag=10.0, h_mags={3: 3.0, 7: 2.0}), DT_TICK), 0.3)
        (x1, y1), (x2, y2) = outs
        cross = x1 * y2 - y1 * x2
        assert abs(cross) < 1e-9 * math.hypot(x1, y1) * math.hypot(x2, y2)
        assert math.hypot(x1, y1) / math.hypot(x2, y2) == pytest.approx(2.0 / 7.0, rel=1e-9)

    def test_integrators_bounded_by_effort_limit(self):
        comp = _compensator(**{"vcc.effort_limit": "5.0"})
        for _ in range(5000):
            comp.step(_extracted(neg_mag=100.0, h_mags={-5: 80.0}), DT_TICK)
        for c, integral in comp._integral.items():
            assert abs(integral) <= 5.0 + 1e-9

    def test_output_clamp_flags(self):
        comp = _compensator(**{"vcc.output_limit": "0.5"})
        for _ in range(200):
            outs = comp.correction_from(comp.step(_extracted(neg_mag=50.0), DT_TICK), 0.3)
        assert comp.clamped
        for x, y in outs:
            assert abs(x) <= 0.5 + 1e-12 and abs(y) <= 0.5 + 1e-12

    def test_step_leaves_the_clamp_to_the_reconstruction(self):
        # a tick only updates the efforts; the clamp flags a correction that is rebuilt
        comp = _compensator(**{"vcc.output_limit": "0.5"})
        efforts = comp.step(_extracted(neg_mag=50.0), DT_TICK)
        assert efforts == comp._effort_dq and efforts is not comp._effort_dq
        assert not comp.clamped
        comp.correction_from(efforts, 0.3)
        assert comp.clamped

    def test_positive_sequence_collapse_holds_outputs(self):
        comp = _compensator()
        for _ in range(50):
            comp.step(_extracted(neg_mag=10.0), DT_TICK)
        held = comp.correction_for(0, 0.3)
        comp.step(_extracted(pos_mag=0.1, neg_mag=10.0), DT_TICK)
        after = comp.correction_for(0, 0.3)
        assert not comp.indices_valid
        assert after == held

    def test_positive_sequence_collapse_zeroes_every_index(self):
        # the indices read what the runner records: 0 once the positive sequence collapses
        comp = _compensator()
        h_mags = {c: 3.0 for c in comp.hd}
        for _ in range(5):
            comp.step(_extracted(neg_mag=10.0, h_mags=h_mags), DT_TICK)
        assert comp.indices_valid
        assert all(value > 0.0 for value in comp.hd.values())
        comp.step(_extracted(pos_mag=0.1, neg_mag=10.0, h_mags=h_mags), DT_TICK)
        assert not comp.indices_valid
        assert comp.vuf == 0.0
        assert comp.hd == {c: 0.0 for c in comp.hd}

    def test_measure_matches_the_indices_of_a_step(self):
        # the runner measures while the compensator is off; step measures alike
        extracted = _extracted(neg_mag=10.0, h_mags={3: 3.0, -5: 4.0, 7: 2.0, -11: 1.0})
        measured = _compensator()
        stepped = _compensator()
        assert measured.measure(extracted)
        stepped.step(extracted, DT_TICK)
        assert (measured.vuf, measured.hd) == (stepped.vuf, stepped.hd)
        assert measured.vuf == quality_index(10.0, 170.0)[0]
        assert measured.hd[-5] == quality_index(4.0, 170.0)[0]
        assert measured._effort_dq == {c: (0.0, 0.0) for c in measured.components}

    def test_reconstruction_rotates_with_angle(self):
        comp = _compensator()
        for _ in range(20):
            comp.step(_extracted(neg_mag=10.0), DT_TICK)
        a = comp.correction_for(0, 0.0)
        b = comp.correction_for(0, math.pi)  # half a turn: -1 frame flips sign
        assert a == pytest.approx((-b[0], -b[1]), rel=1e-9)
