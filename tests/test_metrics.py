"""Linearity metric identities against hand arithmetic and a naive reference."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gpiodac.config import DacConfig, MetricsError, Network, calibrated_pair
from gpiodac.metrics import _linearity, summary
from gpiodac.network import transfer_curve
from oracles import naive_dnl, naive_inl

VDD = 3.3
PAIR = calibrated_pair(VDD, 1.15, 40.0)


def ideal_levels(n: int) -> list[float]:
    return [VDD * i / (n - 1) for i in range(n)]


class TestHandValues:
    def test_ideal_curve_all_zero(self):
        d, i, lsb = _linearity(ideal_levels(16))
        assert np.allclose(d, 0.0, atol=1e-12)
        assert np.allclose(i, 0.0, atol=1e-12)
        assert lsb == pytest.approx(VDD / 15, rel=1e-15)

    def test_three_level_curve(self):
        # levels [0, 1, 3]: lsb = 1.5, steps are 1 and 2
        d, i, lsb = _linearity([0.0, 1.0, 3.0])
        assert d == pytest.approx([-1 / 3, 1 / 3], rel=1e-12)
        assert i == pytest.approx([0.0, -1 / 3, 0.0], abs=1e-12)
        assert lsb == 1.5

    def test_zero_span_rejected(self):
        with pytest.raises(MetricsError, match="zero full-scale span"):
            _linearity([1.0, 1.0, 1.0])

    def test_too_short_rejected(self):
        with pytest.raises(MetricsError, match="need at least 2 levels"):
            _linearity([1.0])


class TestAgainstModel:
    def test_standalone_dnl_scale(self):
        curve = transfer_curve(DacConfig(n_bits=4, vdd=VDD, devices=PAIR))
        rep = summary(curve)
        # the uncorrected curve is poor, on the order of 1.5 LSB DNL / 2 LSB INL
        assert 0.5 < rep.dnl_max_abs < 2.5
        assert 1.0 < rep.inl_max_abs < 3.0
        assert rep.dynamic_range == pytest.approx(VDD, abs=1e-6)
        assert rep.monotonic

    def test_corrected_inl_below_half_lsb(self):
        cfg = DacConfig(
            n_bits=4, vdd=VDD, devices=PAIR, topology=Network(rpp=2.35, rpn=2.35)
        )
        rep = summary(transfer_curve(cfg))
        assert rep.inl_max_abs <= 0.5
        assert rep.dnl_max_abs <= 0.5
        # stretched range collapses toward (vth, vdd - vth)
        assert rep.dynamic_range == pytest.approx(1.0, abs=0.25)

    def test_summary_fields(self):
        curve = transfer_curve(DacConfig(n_bits=4, vdd=VDD, devices=PAIR))
        rep = summary(curve)
        assert rep.lsb_ref == pytest.approx(VDD / 15, abs=1e-6)
        assert rep.i_at_midrange == pytest.approx(curve.rows[8].i_total, rel=1e-12)
        assert rep.i_max >= rep.i_at_midrange
        assert rep.inl_reference == "endpoint"
        d, i, lsb = _linearity(curve.vdac)
        assert (tuple(d.tolist()), tuple(i.tolist()), lsb) == (rep.dnl, rep.inl, rep.lsb_ref)


monotone_levels = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False), min_size=2, max_size=64
).filter(lambda xs: abs(xs[-1] - xs[0]) > 1e-6)


class TestProperties:
    @given(levels=monotone_levels)
    def test_endpoint_identity(self, levels):
        d, i, _ = _linearity(levels)
        assert float(np.sum(d)) == pytest.approx(float(i[-1] - i[0]), abs=1e-9)
        # endpoint referencing forces both ends onto the line
        assert i[0] == pytest.approx(0.0, abs=1e-12)
        assert i[-1] == pytest.approx(0.0, abs=1e-9)

    @given(
        n=st.integers(2, 64),
        gain=st.floats(0.01, 10.0),
        offset=st.floats(-5.0, 5.0),
    )
    def test_affine_curve_has_zero_inl(self, n, gain, offset):
        levels = [offset + gain * i for i in range(n)]
        assert np.max(np.abs(_linearity(levels)[1])) < 1e-9

    @given(levels=monotone_levels)
    def test_matches_naive_reference(self, levels):
        d, i, _ = _linearity(levels)
        assert d == pytest.approx(naive_dnl(levels), abs=1e-12)
        assert i == pytest.approx(naive_inl(levels), abs=1e-12)
