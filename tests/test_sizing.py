"""Parameter extraction and correction-resistor sizing."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import per_code_extract, per_row_saturation_flags
from test_network import MISMATCHED

from gpiodac import network
from gpiodac.config import (
    DacConfig,
    Network,
    ParallelAttach,
    SizingError,
    calibrated_pair,
)
from gpiodac.metrics import summary
from gpiodac.network import transfer_curve
from gpiodac.sizing import (
    ExtractedParams,
    SizingResult,
    check_saturation_window,
    extract_from_table,
    extract_parameters,
    size_four_resistor,
    size_two_resistor,
)

VDD = 3.3
NAN = float("nan")
PAIR = calibrated_pair(VDD, 1.15, 40.0)
REF_PARAMS = ExtractedParams(vth=1.15, ron=40.0, vdd=VDD, linear_range=(1.15, 2.15))


def standalone_curve(n_bits=4, pair=PAIR):
    return transfer_curve(DacConfig(n_bits=n_bits, vdd=VDD, devices=pair))


class TestExtraction:
    def test_vth_formula_from_linear_span(self):
        # a 1.0 V linear span on a 3.3 V supply puts the threshold at 1.15 V
        assert 0.5 * (VDD - 1.0) == pytest.approx(1.15, abs=1e-12)

    def test_calibrated_model_recovers_its_resistance(self):
        p = extract_parameters(standalone_curve())
        assert p.ron == pytest.approx(40.0, rel=0.10)
        # 4-bit granularity leaves only two codes inside the window, yet the
        # bracketed edges still land close to the true threshold
        assert p.vth == pytest.approx(1.15, rel=0.05)
        assert p.linear_range[0] < p.linear_range[1]

    def test_round_trip_known_device(self):
        pair = calibrated_pair(VDD, 1.0, 50.0)
        p = extract_parameters(standalone_curve(n_bits=6, pair=pair))
        assert p.vth == pytest.approx(1.0, rel=0.10)
        assert p.ron == pytest.approx(50.0, rel=0.10)

    def test_random_round_trips(self):
        rng = np.random.default_rng(20260808)
        for _ in range(10):
            vth = float(rng.uniform(0.6, 1.4))
            ron = float(rng.uniform(10.0, 200.0))
            pair = calibrated_pair(VDD, vth, ron)
            p = extract_parameters(standalone_curve(n_bits=6, pair=pair))
            assert p.vth == pytest.approx(vth, rel=0.10)
            assert p.ron == pytest.approx(ron, rel=0.10)

    def test_corrected_curve_is_rejected(self):
        cfg = DacConfig(
            n_bits=4, vdd=VDD, devices=PAIR, topology=Network(rpp=2.35, rpn=2.35)
        )
        with pytest.raises(SizingError):
            extract_parameters(transfer_curve(cfg))

    def test_validation(self):
        with pytest.raises(SizingError):
            ExtractedParams(vth=2.0, ron=40.0, vdd=VDD, linear_range=(1.0, 2.0))
        with pytest.raises(SizingError):
            ExtractedParams(vth=1.0, ron=-1.0, vdd=VDD, linear_range=(1.0, 2.0))
        with pytest.raises(SizingError, match="^vdd must be finite, got inf$"):
            ExtractedParams(vth=1.0, ron=40.0, vdd=math.inf, linear_range=(1.0, 2.0))

    # Both sizers divide by vdd - 2*vth and rely on it being positive. Draw any floats,
    # subnormals and non-finite ones included, and vth from 0 to 3 ulps under vdd/2.
    @settings(max_examples=500)
    @given(vdd=st.floats(), vth=st.floats(), near_edge=st.booleans(), ulps=st.integers(0, 3))
    @example(vdd=3 * 5e-324, vth=5e-324, near_edge=False, ulps=0)
    @example(vdd=5e-324, vth=0.0, near_edge=True, ulps=0)
    @example(vdd=2.2250738585072014e-308, vth=0.0, near_edge=True, ulps=1)
    @example(vdd=1.7976931348623157e308, vth=0.0, near_edge=True, ulps=1)
    def test_every_params_that_constructs_has_a_positive_window(self, vdd, vth, near_edge, ulps):
        if near_edge:
            vth = 0.5 * vdd
            for _ in range(ulps):
                vth = math.nextafter(vth, 0.0)
        try:
            params = ExtractedParams(vth=vth, ron=1.0, vdd=vdd, linear_range=(0.0, 0.0))
        except SizingError:
            return
        assert params.vdd - 2.0 * params.vth > 0.0

    @pytest.mark.parametrize("vdac, i_per_pullup, message", [
        # The run's span is -2 V, so vth = 3 V = 3/4 vdd and vov - vdd/4 is 0.
        ([2.5, 0.5], [1e-2, 1e-2], "vth must be within (0, vdd/2), got vth=3.0, vdd=4.0"),
        # The least subnormal current over a 3.125 V^2 triode term rounds k to 0: ron is inf.
        ([1.5, 2.5], [5e-324, 5e-324], "ron must be finite and > 0, got inf"),
    ], ids=["vth_three_quarters_vdd", "subnormal_current"])
    def test_no_conductance_is_an_extraction_error(self, vdac, i_per_pullup, message):
        columns = dict(codes=[0, 1], vdac=vdac, i_per_pullup=i_per_pullup,
                       region_p=["triode"] * 2, region_n=["triode"] * 2, vdd=4.0)
        for container in (list, tuple, np.asarray):
            with pytest.raises(SizingError) as info:
                extract_from_table(**{k: v if k == "vdd" else container(v)
                                      for k, v in columns.items()})
            assert str(info.value) == message
        assert outcome(per_code_extract, **columns) == (SizingError, message)


def outcome(extract, **columns):
    """What an extraction gives: its ExtractedParams, or the type and message of its error."""
    try:
        return extract(**columns)
    except (SizingError, ArithmeticError) as exc:
        return type(exc), str(exc)


# (region_p, region_n) of a segment of codes; the first pair is the linear region.
REGION_PAIRS = [("triode", "triode"), ("saturation", "triode"), ("triode", "cutoff"),
                ("cutoff", "saturation"), ("triode", "saturation")]
# Voltages that tie around mid-scale exactly at vdd = 4 (distances 0, 0.5, 1.5 from 2 V).
TIED_VOLTS = [0.5, 1.5, 2.0, 2.0, 2.5, 3.5]


@st.composite
def extraction_tables(draw):
    """Columns for extract_from_table: runs of region pairs (ties and runs at both ends
    included), voltages that tie around mid-scale, currents of either sign, and now and
    then a column one entry short."""
    pair = st.sampled_from(REGION_PAIRS[:1] * 3 + REGION_PAIRS)
    segments = draw(st.lists(st.tuples(pair, st.integers(1, 4)), max_size=8))
    pairs = [pair for pair, length in segments for _ in range(length)]
    n = len(pairs)
    vdd = draw(st.sampled_from([4.0, 3.3]) | st.floats(0.5, 10.0))
    volts = st.sampled_from(TIED_VOLTS) | st.floats(-0.1 * vdd, 1.1 * vdd)
    vdac = draw(st.lists(volts, min_size=n, max_size=n))
    current = st.sampled_from([0.0, -1e-3] + [2e-2] * 4) | st.floats(-0.1, 1.0)
    i_per_pullup = draw(st.lists(current, min_size=n, max_size=n))
    columns = dict(codes=list(range(n)), vdac=vdac, i_per_pullup=i_per_pullup,
                   region_p=[p for p, _ in pairs], region_n=[q for _, q in pairs], vdd=vdd)
    short = draw(st.sampled_from([None] * 20 + list(columns)[:5]))
    if short is not None and n:
        columns[short] = columns[short][:-1]
    return columns


class TestExtractionMatchesPerCodeReference:
    """extract_from_table gives what the code-by-code loop it replaced gives."""

    @settings(max_examples=400)
    @given(extraction_tables())
    def test_random_tables(self, columns):
        assert outcome(extract_from_table, **columns) == outcome(per_code_extract, **columns)

    @pytest.mark.parametrize(
        "region_p, vdac, i_per_pullup, want",
        [
            # Two runs of 3 codes: the first wins.
            ("TTTsTTTs", [1.0, 1.5, 2.0, 2.2, 1.6, 2.0, 2.4, 2.6], [1e-2] * 8, (1.0, 2.0)),
            # Runs at both ends, the later one longer.
            ("TTssTTT", [0.5, 1.0, 1.2, 1.4, 1.5, 2.0, 2.5], [1e-2] * 7, (1.5, 2.5)),
            # 1.5 V and 2.5 V are equally near mid-scale (2 V): the lower code wins, so the
            # zero current at the higher one is never read.
            ("sTTTs", [0.0, 1.5, 2.5, 3.5, 4.0], [1e-2, 1e-2, 0.0, 1e-2, 1e-2], (1.5, 3.5)),
        ],
    )
    def test_ties(self, region_p, vdac, i_per_pullup, want):
        regions = ["triode" if c == "T" else "saturation" for c in region_p]
        columns = dict(codes=list(range(len(vdac))), vdac=vdac, i_per_pullup=i_per_pullup,
                       region_p=regions, region_n=["triode"] * len(vdac), vdd=4.0)
        got = outcome(extract_from_table, **columns)
        assert got == outcome(per_code_extract, **columns)
        assert got.linear_range == want

    @pytest.mark.parametrize("columns, message", [
        (dict(vdac=[1.0]), "column lengths differ"),
        (dict(region_p=["triode", "saturation", "triode"]), "no triode-triode run"),
        (dict(i_per_pullup=[0.0, 0.0, 0.0]), "no pull-up current"),
        (dict(vdac=[4.5, 4.6, 4.7]), "not inside the triode region"),
        (dict(vdac=[-5.0, 2.0, 9.0]), "vth must be within"),
    ])
    def test_each_error_keeps_its_message(self, columns, message):
        base = dict(codes=[0, 1, 2], vdac=[1.0, 2.0, 3.0], i_per_pullup=[1e-2] * 3,
                    region_p=["triode"] * 3, region_n=["triode"] * 3, vdd=4.0)
        got = outcome(extract_from_table, **{**base, **columns})
        assert got == outcome(per_code_extract, **{**base, **columns})
        assert got[0] is SizingError and message in got[1]

    @settings(max_examples=200)
    @given(extraction_tables(), st.sampled_from([tuple, np.asarray]))
    def test_tuple_and_ndarray_columns_match_list_columns(self, columns, container):
        want = outcome(extract_from_table, **columns)
        given_as = {k: v if k == "vdd" else container(v) for k, v in columns.items()}
        got = outcome(extract_from_table, **given_as)
        if isinstance(got, tuple):  # numpy 2 writes a scalar in a message as np.float64(x)
            got = got[0], re.sub(r"np\.float64\(([^()]*)\)", r"\1", got[1])
        assert got == want

    # Rows are read in order, so a reversed curve or one missing a code would give a wrong
    # vth (2.16 V reversed, 1.067 V without code 9, against 1.136 V from the whole curve).
    @pytest.mark.parametrize("order, message", [
        (range(15, -1, -1), "code 14 follows code 15"),
        ([*range(9), *range(10, 16)], "code 10 follows code 8"),
    ], ids=["reversed", "gapped"])
    def test_codes_out_of_place_are_refused_naming_the_first(self, order, message):
        columns = standalone_curve().columns
        rows = list(order)
        table = dict(codes=[int(columns["code"][c]) for c in rows],
                     vdac=[float(columns["vdac"][c]) for c in rows],
                     i_per_pullup=[float(columns["i_per_pullup"][c]) for c in rows],
                     region_p=[columns["region_p"][c].value for c in rows],
                     region_n=[columns["region_n"][c].value for c in rows], vdd=VDD)
        want = f"codes must be consecutive and ascending: {message}"
        assert outcome(extract_from_table, **table) == (SizingError, want)

    # A NaN voltage in the run is the mid-scale code read, as the first NaN was for the
    # np.argmin this search replaced; a search that passed over it would read the finite code
    # nearest mid-scale, whose current is 0 in the edge cases. Outcomes recorded from that
    # numpy version.
    @pytest.mark.parametrize("vdac, i_per_pullup, message", [
        ([0.2, 1.0, 1.8, NAN, 2.6, 3.5], [1e-2] * 6, "ron must be finite and > 0, got nan"),
        ([0.2, 1.0, NAN, 2.3, 2.6, 3.5], [1e-2, 1e-2, 1e-2, 0.0, 1e-2, 1e-2],
         "ron must be finite and > 0, got nan"),
        ([0.2, NAN, 1.8, 2.3, 2.6, 3.5], [1e-2, 1e-2, 0.0, 1e-2, 1e-2, 1e-2],
         "vth must be within (0, vdd/2), got vth=nan, vdd=4.0"),
        ([0.2, 1.0, 1.8, 2.3, NAN, 3.5], [1e-2, 1e-2, 0.0, 1e-2, 1e-2, 1e-2],
         "vth must be within (0, vdd/2), got vth=nan, vdd=4.0"),
    ], ids=["inside", "inside_next_to_a_zero_current", "low_edge", "high_edge"])
    def test_nan_voltage_in_the_run_keeps_its_error(self, vdac, i_per_pullup, message):
        regions = ["saturation"] + ["triode"] * 4 + ["saturation"]
        columns = dict(codes=list(range(6)), vdac=vdac, i_per_pullup=i_per_pullup,
                       region_p=regions, region_n=["triode"] * 6, vdd=4.0)
        assert outcome(extract_from_table, **columns) == (SizingError, message)

    @pytest.mark.parametrize("pair", [PAIR, MISMATCHED], ids=["matched", "mismatched"])
    def test_12_bit_curves(self, pair):
        curve = standalone_curve(n_bits=12, pair=pair)
        columns = curve.columns
        table = dict(codes=columns["code"].tolist(), vdac=columns["vdac"].tolist(),
                     i_per_pullup=columns["i_per_pullup"].tolist(),
                     region_p=[r.value for r in columns["region_p"]],
                     region_n=[r.value for r in columns["region_n"]], vdd=VDD)
        assert outcome(extract_parameters, curve=curve) == outcome(per_code_extract, **table)


class TestTwoResistorSizing:
    def test_reference_values(self):
        result = size_two_resistor(REF_PARAMS, 15)
        assert result.alpha_g == pytest.approx(17.25, rel=1e-12)
        assert result.topology.rpp == pytest.approx(2.3188405797101446, rel=1e-12)
        assert result.topology.rpp == pytest.approx(2.32, rel=0.05)
        assert result.topology.rpn == result.topology.rpp
        assert result.predicted_dynamic_range == (1.15, VDD - 1.15)

    def test_doubled_resolution_halves_resistance(self):
        rp15 = size_two_resistor(REF_PARAMS, 15).topology.rpp
        rp30 = size_two_resistor(REF_PARAMS, 30).topology.rpp
        assert rp30 == pytest.approx(0.5 * rp15, rel=1e-12)
        # 5-bit case by the same arithmetic
        rp31 = size_two_resistor(REF_PARAMS, 31).topology.rpp
        assert rp31 == pytest.approx(40.0 / (31 * 1.15 / 1.0), rel=1e-12)

    def test_inverse_proportional_in_d_max(self):
        values = [size_two_resistor(REF_PARAMS, d).topology.rpp for d in (3, 7, 15, 63)]
        products = [d * rp for d, rp in zip((3, 7, 15, 63), values)]
        assert max(products) == pytest.approx(min(products), rel=1e-12)

    def test_vanishing_threshold_needs_no_correction(self):
        tiny = ExtractedParams(vth=1e-6, ron=40.0, vdd=VDD, linear_range=(0.0, VDD))
        result = size_two_resistor(tiny, 15)
        assert result.alpha_g < 1e-5
        assert result.topology.rpp > 1e6

    def test_nearly_collapsed_window_blows_up_the_correction(self):
        # vth just under vdd/2: the window is 2 mV wide and the required
        # parallel resistance collapses toward a dead short
        margin = ExtractedParams(vth=1.649, ron=40.0, vdd=VDD, linear_range=(1.6, 1.7))
        result = size_two_resistor(margin, 15)
        assert result.alpha_g > 1e4
        assert result.topology.rpp < 0.005

    @pytest.mark.parametrize("d_max", [15.5, 15.0, True, np.float64(15.0), "15", None])
    def test_a_code_count_that_is_not_an_integer_is_refused_naming_it(self, d_max):
        with pytest.raises(ValueError) as info:
            size_two_resistor(REF_PARAMS, d_max)
        assert str(info.value) == f"d_max must be an integer, got {d_max!r}"

    @pytest.mark.parametrize("d_max", [np.int64(15), np.uint16(15)])
    def test_a_numpy_integer_code_count_sizes_the_int_one(self, d_max):
        result = size_two_resistor(REF_PARAMS, d_max)
        assert result == size_two_resistor(REF_PARAMS, 15)
        assert {type(result.alpha_g), type(result.topology.rpp), type(result.topology.rpn)} == {float}

    @pytest.mark.parametrize("ron", [1e-320, 5e-324, 2e-307])
    def test_resistance_whose_conductance_overflows_is_refused_naming_ron(self, ron):
        # 2e-307 ohm sizes rp = 1.2e-308 ohm at 4 bits, a normal float whose vdd / rp overflows.
        params = ExtractedParams(vth=1.15, ron=ron, vdd=VDD, linear_range=(1.15, 2.15))
        with pytest.raises(SizingError, match=r"^ron = .* vdd / rp is not finite$"):
            size_two_resistor(params, 15)

    def test_resistance_beyond_float_range_is_refused_naming_it(self):
        # A config may hold Network(rpp=inf, rpn=inf) and solves; a sizing that gives one is refused.
        open_config = DacConfig(4, VDD, PAIR, topology=Network(rpp=math.inf, rpn=math.inf))
        assert np.isfinite(transfer_curve(open_config).vdac).all()
        params = ExtractedParams(vth=1e-300, ron=1e300, vdd=VDD, linear_range=(0.0, VDD))
        with pytest.raises(SizingError, match=r"^rpp = inf is not finite$"):
            size_two_resistor(params, 15)

    def test_underflowing_stretch_factor_is_refused_naming_it(self):
        params = ExtractedParams(vth=5e-324, ron=40.0, vdd=VDD, linear_range=(0.0, VDD))
        with pytest.raises(SizingError, match=r"alpha_g = .* underflows to 0$"):
            size_two_resistor(params, 1)

    @pytest.mark.parametrize("field",
                             ["alpha_g", "it_bounds", "rs_bounds", "predicted_dynamic_range"])
    def test_result_refuses_a_non_finite_number_naming_it(self, field):
        value = math.nan if field == "alpha_g" else (1.0, math.inf)
        with pytest.raises(SizingError, match=rf"^{field} = .* is not finite$"):
            SizingResult(Network(rpp=1.0, rpn=1.0), **{"predicted_dynamic_range": (0.0, 1.0),
                                                   field: value})

    def test_smallest_sized_resistance_builds_a_config(self):
        # A sizing that passes the check gives a topology DacConfig accepts.
        params = ExtractedParams(vth=1.15, ron=1e-305, vdd=VDD, linear_range=(1.15, 2.15))
        DacConfig(n_bits=4, vdd=VDD, devices=PAIR, topology=size_two_resistor(params, 15).topology)

    def test_sizing_closes_the_loop(self):
        curve = standalone_curve()
        params = extract_parameters(curve)
        sized = size_two_resistor(params, 15)
        corrected = transfer_curve(
            DacConfig(n_bits=4, vdd=VDD, devices=PAIR, topology=sized.topology)
        )
        before, after = summary(curve), summary(corrected)
        assert before.inl_max_abs >= 3.0 * after.inl_max_abs
        assert after.dnl_max_abs <= 0.5


class TestFourResistorSizing:
    def test_reference_arithmetic_exact(self):
        result = size_four_resistor(REF_PARAMS, it_target=0.2, split=1.0)
        lo, hi = result.rs_bounds
        assert lo == pytest.approx(5.0, abs=1e-12)
        assert hi == pytest.approx(10.75, abs=1e-12)
        topo = result.topology
        rs_total = topo.rsp + topo.rsn
        assert lo <= rs_total <= hi
        assert rs_total == pytest.approx(0.5 * (5.0 + 10.75), abs=1e-12)
        assert topo.rsn == 0.0  # split = 1 puts everything on the supply side
        assert topo.rpp == pytest.approx(5.75, abs=1e-12)
        assert topo.rpn == pytest.approx(5.75, abs=1e-12)
        assert result.strong_inversion_ok
        it_lo, it_hi = result.it_bounds
        assert it_lo <= 0.2 <= it_hi

    def test_hand_picked_board_values_fit_the_bounds(self):
        # a bench-chosen 10 ohm series / 5 ohm parallel setup sits inside the
        # feasible interval for a 0.2 A budget
        result = size_four_resistor(REF_PARAMS, it_target=0.2, split=1.0, rs_total=10.0)
        assert result.topology.rsp == 10.0
        assert result.rs_bounds[0] <= 10.0 <= result.rs_bounds[1]

    def test_split_divides_series_resistance(self):
        result = size_four_resistor(REF_PARAMS, it_target=0.2, split=0.25)
        topo = result.topology
        assert topo.rsp == pytest.approx(0.25 * (topo.rsp + topo.rsn), rel=1e-12)

    def test_large_current_limit(self):
        result = size_four_resistor(REF_PARAMS, it_target=1e6)
        topo = result.topology
        assert topo.rsp + topo.rsn < 1e-5
        assert topo.rpp < 1e-5

    def test_window_collapse_reported(self):
        degenerate = ExtractedParams(vth=1.6, ron=40.0, vdd=VDD, linear_range=(1.6, 1.7))
        # window is only 0.1 V wide; an rs_total outside the (narrow) feasible
        # interval names the violated bound
        with pytest.raises(SizingError, match="strong-inversion"):
            size_four_resistor(degenerate, it_target=0.2, rs_total=10.0)
        with pytest.raises(SizingError, match="saturation-window"):
            size_four_resistor(degenerate, it_target=0.2, rs_total=0.2)

    def test_bad_inputs(self):
        with pytest.raises(SizingError):
            size_four_resistor(REF_PARAMS, it_target=0.0)
        with pytest.raises(SizingError):
            size_four_resistor(REF_PARAMS, it_target=0.2, split=1.5)

    def test_non_finite_inputs_are_sizing_errors(self):
        nan, inf = float("nan"), float("inf")
        for it_target in (nan, inf):
            with pytest.raises(SizingError, match="it_target must be finite"):
                size_four_resistor(REF_PARAMS, it_target=it_target)
        with pytest.raises(SizingError, match="rs_total must be a number"):
            size_four_resistor(REF_PARAMS, it_target=0.2, rs_total=nan)
        for ron in (nan, inf):
            with pytest.raises(SizingError, match="ron must be finite and > 0"):
                ExtractedParams(vth=1.15, ron=ron, vdd=VDD, linear_range=(1.15, 2.15))

    def test_series_bounds_beyond_float_range_are_sizing_errors(self):
        # (vdd - vth) / 1e-320 overflows; the midpoint rule would then make rsn 0 * inf = nan
        with pytest.raises(SizingError, match=r"^it_target 1e-320 A is too small"):
            size_four_resistor(REF_PARAMS, it_target=1e-320)

    def test_largest_finite_series_bounds_size_finite_resistors(self):
        # rs_lo + rs_hi overflows here, though each bound and their midpoint are finite
        it_target = (VDD - REF_PARAMS.vth) / 1.7e308
        sized = size_four_resistor(REF_PARAMS, it_target=it_target)
        assert sized.rs_bounds[0] < sized.topology.rsp < sized.rs_bounds[1] < float("inf")
        assert sized.topology.rsn == 0.0


class TestSaturationWindow:
    @pytest.mark.parametrize("n_bits", [4, 12])
    @pytest.mark.parametrize("attach", list(ParallelAttach), ids=lambda a: a.value)
    def test_flags_are_the_window_rule_on_the_curve_rows(self, n_bits, attach, monkeypatch):
        sized = size_four_resistor(REF_PARAMS, it_target=0.2, split=0.8).topology
        cfg = DacConfig(n_bits, VDD, PAIR, replace(sized, parallel_attach=attach))
        want = per_row_saturation_flags(transfer_curve(cfg))

        def no_columns(*args):
            raise AssertionError("the check needs only the solved voltages")

        monkeypatch.setattr(network._Lanes, "columns", no_columns)
        network._last = None  # the check solves the curve again
        flags = check_saturation_window(cfg)
        assert flags == want
        assert all(type(flag) is bool for flag in flags)

    def test_standalone_window_is_empty(self):
        cfg = DacConfig(n_bits=4, vdd=VDD, devices=PAIR, topology=Network())
        assert not any(check_saturation_window(cfg))

    def test_bench_sized_four_resistor_window_covers_most_codes(self):
        cfg = DacConfig(
            n_bits=4,
            vdd=VDD,
            devices=PAIR,
            topology=Network(rsp=10.0, rsn=0.0, rpp=5.0, rpn=5.0),
        )
        flags = check_saturation_window(cfg)
        assert sum(flags) >= 8  # at least half the codes

    def test_huge_series_resistor_starves_the_gates(self):
        cfg = DacConfig(
            n_bits=4,
            vdd=VDD,
            devices=PAIR,
            topology=Network(rsp=1000.0, rsn=0.0, rpp=5.0, rpn=5.0),
        )
        assert not any(check_saturation_window(cfg))
