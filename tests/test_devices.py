"""Unit-device model checks: square-law values, resistances, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import device_current

from gpiodac.config import (
    LinearSwitch,
    MosfetParams,
    calibrated_pair,
)
from gpiodac.devices import _at_ends, _overdrive, current_and_derivatives

VDD = 3.3
REF = MosfetParams(vth=1.15, k=0.01163)


def current(p, vgs, vds):
    return current_and_derivatives(p, vgs, vds)[0]


class TestSquareLaw:
    def test_cutoff_is_zero(self):
        assert current(REF, 0.5, 1.0) == 0.0

    def test_triode_saturation_boundary_value(self):
        # vds = vov = 2.15: both formulas give (k/2) * vov^2
        expected = 0.5 * REF.k * 2.15**2
        assert current(REF, 3.3, 2.15) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(26.88e-3, rel=1e-3)

    def test_deep_triode_value_and_ron_crosscheck(self):
        i = current(REF, 3.3, 0.05)
        assert i == pytest.approx(1.2356875e-3, rel=1e-12)
        # at vds << vov the current is close to vds / ron
        assert i == pytest.approx(0.05 / 40.0, rel=0.02)

    def test_linear_switch_has_no_threshold(self):
        sw = LinearSwitch(g=0.05)
        assert current(sw, 0.0, 1.0) == pytest.approx(0.05)


def small_signal_ron(p, vgs):
    """1 / (di/dvds) at vds = 0, read from the solver's square law."""
    return 1.0 / current_and_derivatives(p, vgs, 0.0)[2]


class TestOnResistance:
    def test_reference_device_is_40_ohm(self):
        assert small_signal_ron(REF, 3.3) == pytest.approx(40.0, rel=1e-3)

    def test_doubling_k_halves_ron(self):
        doubled = MosfetParams(vth=1.15, k=2 * REF.k)
        assert small_signal_ron(doubled, 3.3) == pytest.approx(
            0.5 * small_signal_ron(REF, 3.3), rel=1e-12
        )
        assert small_signal_ron(doubled, 3.3) == pytest.approx(20.0, rel=1e-3)

    def test_zero_overdrive_has_no_conductance(self):
        # at and below vth the unit is cut off: no current and no slope in vds
        for vgs in (1.15, 1.0, 0.0):
            i, di_dvgs, di_dvds = current_and_derivatives(REF, vgs, np.array([0.0, 0.5, 3.3]))
            assert not i.any() and not di_dvgs.any() and not di_dvds.any()


mosfets = st.builds(
    MosfetParams,
    vth=st.floats(0.2, 2.0),
    k=st.floats(1e-4, 0.1),
)


class TestInvariants:
    @given(p=mosfets, vgs=st.floats(0.0, 2 * VDD))
    def test_current_continuous_at_region_boundary(self, p, vgs):
        vov = vgs - p.vth
        if vov <= 0:
            return
        below = current(p, vgs, vov * (1 - 1e-9))
        at = current(p, vgs, vov)
        assert at == pytest.approx(below, rel=1e-6)
        assert at == pytest.approx(device_current(p, vgs, vov), rel=1e-12)

    @given(p=mosfets)
    def test_monotone_in_vds_and_vgs(self, p):
        # non-decreasing up to floating rounding at the region boundary
        def monotone(seq):
            return all(b >= a - 1e-12 * (1.0 + abs(a)) for a, b in zip(seq, seq[1:]))

        n = 25
        grid = np.linspace(0.0, 2 * VDD, n)
        for v in grid:
            assert monotone(current(p, v, grid).tolist())
            assert monotone(current(p, grid, v).tolist())

    @given(p=mosfets, frac=st.floats(1e-4, 0.01))
    def test_small_signal_matches_ron(self, p, frac):
        vgs = p.vth + 1.0
        vds = frac * (vgs - p.vth)
        ron = 1.0 / (p.k * (vgs - p.vth))  # small-signal triode resistance at vds -> 0
        assert current(p, vgs, vds) == pytest.approx(vds / ron, rel=0.01)

    @given(p=mosfets, vgs=st.floats(0.0, 2 * VDD), vds=st.floats(-VDD, VDD))
    def test_derivative_helper_matches_current(self, p, vgs, vds):
        assert current(p, vgs, vds) == pytest.approx(device_current(p, vgs, vds), abs=1e-15)


class TestBracketEnds:
    """_at_ends is the square law at vds = 0 and at vds = vgs, bit for bit."""

    @staticmethod
    def law_at(p, vgs, vds):
        i, _, di_d = current_and_derivatives(p, np.array([vgs]), np.array([vds]))
        return i, di_d

    @staticmethod
    def bits(pair):
        return np.array([0.0 if x is None else np.asarray(x).item() for x in pair]).tobytes()

    @given(p=mosfets | st.floats(1e-4, 10.0).map(LinearSwitch), vgs=st.floats(0.0, 2 * VDD))
    def test_ends_are_the_law_bit_for_bit(self, p, vgs):
        vov = _overdrive(p, np.array([vgs]))
        zero, full = _at_ends(p, vov, lambda: (np.array([0.0]), np.array([vgs])))
        assert self.bits(zero) == self.bits(self.law_at(p, vgs, 0.0))
        assert self.bits(full) == self.bits(self.law_at(p, vgs, vgs))

    @given(p=mosfets, vgs=st.floats(-VDD, 0.0, exclude_max=True), vds=st.floats(-VDD, VDD))
    def test_a_cut_off_unit_carries_nothing_at_any_vds(self, p, vgs, vds):
        # A collapsed bracket (vs > vd) puts other vds than 0 and vgs at its ends.
        vov = _overdrive(p, np.array([vgs]))
        for end in _at_ends(p, vov, None):
            assert [0.0 if x is None else float(x[0]) for x in end] == [
                float(x[0]) for x in self.law_at(p, vgs, vds)] == [0.0, 0.0]


class TestCalibration:
    def test_midrange_secant_round_trip(self):
        pair = calibrated_pair(VDD, 1.15, 40.0)
        for dev in (pair.nmos, pair.pmos):
            assert 0.5 * VDD / current(dev, VDD, 0.5 * VDD) == pytest.approx(40.0, rel=1e-12)
            assert 0.5 * VDD / device_current(dev, VDD, 0.5 * VDD) == pytest.approx(40.0, rel=1e-12)

    def test_secant_exceeds_small_signal(self):
        # the triode curve bends over, so the secant at vdd/2 reads high
        pair = calibrated_pair(VDD, 1.15, 40.0)
        assert 1.0 / (pair.nmos.k * (VDD - pair.nmos.vth)) < 40.0

    def test_rejects_large_threshold(self):
        with pytest.raises(ValueError, match="^calibration needs 0 < vth < vdd/2"):
            calibrated_pair(VDD, 1.7, 40.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="^vth must be finite and > 0"):
            MosfetParams(vth=-1.0, k=0.01)
        with pytest.raises(ValueError, match="^k must be finite and > 0"):
            MosfetParams(vth=1.0, k=0.0)
        with pytest.raises(ValueError, match="^g must be finite and > 0"):
            LinearSwitch(g=0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["vth", "k", "g"])
    def test_non_finite_parameters_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
            if field == "g":
                LinearSwitch(g=value)
            else:
                MosfetParams(**{"vth": 1.15, "k": 0.01, field: value})
