"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line when its criterion holds (visible with
pytest -s / -rA); a failed assertion is the FAIL line. The reference device
throughout is the bench-calibrated symmetric pair: 3.3 V supply, 1.15 V
threshold, 40 ohm unit resistance at mid-scale.
"""

import numpy as np
import pytest

from gpiodac.cli import json_text
from gpiodac.config import (
    DacConfig,
    DevicePair,
    Encoding,
    LinearSwitch,
    MosfetParams,
    Network,
    ParallelAttach,
    TimingParams,
    calibrated_pair,
)
from gpiodac.hdlgen import generate_dac
from gpiodac.metrics import _linearity, summary
from gpiodac.network import solve_units, transfer_curve
from gpiodac.sizing import (
    ExtractedParams,
    check_saturation_window,
    extract_parameters,
    size_four_resistor,
    size_two_resistor,
)
from gpiodac.transient import detect_glitches, staircase_codes, synthesize

from oracles import naive_dnl, naive_inl, oracle_solve
from test_hdlgen import decode_table, spec_for

VDD = 3.3
CAL_PAIR = calibrated_pair(VDD, 1.15, 40.0)
CAL_STANDALONE = DacConfig(n_bits=4, vdd=VDD, devices=CAL_PAIR)


def announce(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS: {text}")


def test_criterion_01_ideal_reduction():
    g = 0.05
    switches = DevicePair(pmos=LinearSwitch(g), nmos=LinearSwitch(g))
    for n_bits in range(1, 9):
        d_max = (1 << n_bits) - 1
        standalone = DacConfig(n_bits=n_bits, vdd=VDD, devices=switches)
        two_r = DacConfig(
            n_bits=n_bits, vdd=VDD, devices=switches, topology=Network(rpp=1e6, rpn=1e6)
        )
        four_r = DacConfig(
            n_bits=n_bits,
            vdd=VDD,
            devices=switches,
            topology=Network(rsp=1e-6, rsn=0.0, rpp=1e6, rpn=1e6),
        )
        for code in range(d_max + 1):
            ideal = code / d_max * VDD
            assert solve_units(standalone, code).vdac == pytest.approx(ideal, abs=1e-9)
            assert solve_units(two_r, code).vdac == pytest.approx(ideal, abs=1e-4)
            assert solve_units(four_r, code).vdac == pytest.approx(ideal, abs=1e-4)
    announce(1, "constant-conductance solver collapses to the ideal divider, N=1..8")


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(1234)
    n_configs = 0
    while n_configs < 200:
        n_bits = int(rng.integers(1, 7))
        pair = DevicePair(
            pmos=MosfetParams(float(rng.uniform(0.4, 1.4)),
                              float(rng.uniform(2e-3, 5e-2))),
            nmos=MosfetParams(float(rng.uniform(0.4, 1.4)),
                              float(rng.uniform(2e-3, 5e-2))),
        )
        pick = n_configs % 3
        if pick == 0:
            topo = Network()
        elif pick == 1:
            topo = Network(rpp=float(rng.uniform(1, 100)), rpn=float(rng.uniform(1, 100)))
        else:
            topo = Network(
                rsp=float(rng.uniform(0.5, 30)),
                rsn=float(rng.uniform(0.5, 5.0)) if rng.random() < 0.4 else 0.0,
                rpp=float(rng.uniform(1, 100)),
                rpn=float(rng.uniform(1, 100)),
                parallel_attach=ParallelAttach.INNER_RAILS
                if rng.random() < 0.5
                else ParallelAttach.SUPPLY_RAILS,
            )
        cfg = DacConfig(n_bits=n_bits, vdd=VDD, devices=pair, topology=topo)
        for code in rng.integers(0, cfg.d_max + 1, size=3):
            sol = solve_units(cfg, int(code))
            vdac, vd, vs = oracle_solve(cfg, int(code))
            assert sol.vdac == pytest.approx(vdac, abs=1e-6)
            assert sol.vd == pytest.approx(vd, abs=1e-6)
            assert sol.vs == pytest.approx(vs, abs=1e-6)
        n_configs += 1
    announce(2, f"solver matches the bisection oracle on {n_configs} random configs")


def test_criterion_03_midrange_current():
    sol = solve_units(CAL_STANDALONE, 8)
    assert sol.i_total == pytest.approx(0.30, rel=0.20)
    announce(3, f"calibrated 4-bit mid-range current {sol.i_total * 1e3:.0f} mA ~ 300 mA")


def test_criterion_04_two_resistor_sizing():
    params = ExtractedParams(vth=1.15, ron=40.0, vdd=VDD, linear_range=(1.15, 2.15))
    sized = size_two_resistor(params, 15)
    assert sized.topology.rpp == pytest.approx(2.32, rel=0.05)
    corrected = DacConfig(n_bits=4, vdd=VDD, devices=CAL_PAIR, topology=sized.topology)
    mid = solve_units(corrected, 8).i_total
    assert mid == pytest.approx(1.0, rel=0.25)
    announce(4, f"rp = {sized.topology.rpp:.3f} ohm, corrected mid-range {mid:.2f} A ~ 1 A")


def test_criterion_05_linearity_ordering():
    standalone = transfer_curve(CAL_STANDALONE)
    params = extract_parameters(standalone)
    sized = size_two_resistor(params, 15)
    corrected = transfer_curve(
        DacConfig(n_bits=4, vdd=VDD, devices=CAL_PAIR, topology=sized.topology)
    )
    before, after = summary(standalone), summary(corrected)
    assert before.inl_max_abs >= 3.0 * after.inl_max_abs
    assert after.dnl_max_abs <= 0.5
    announce(
        5,
        f"INL {before.inl_max_abs:.2f} -> {after.inl_max_abs:.3f} LSB (>=3x), "
        f"corrected DNL {after.dnl_max_abs:.3f} <= 0.5 LSB",
    )


def test_criterion_06_four_resistor_current():
    two_r = DacConfig(
        n_bits=4, vdd=VDD, devices=CAL_PAIR, topology=Network(rpp=2.32, rpn=2.32)
    )
    four_r = DacConfig(
        n_bits=4,
        vdd=VDD,
        devices=CAL_PAIR,
        topology=Network(rsp=10.0, rsn=0.0, rpp=5.0, rpn=5.0),
    )
    i_two = summary(transfer_curve(two_r)).i_max
    i_four = summary(transfer_curve(four_r)).i_max
    assert i_four <= i_two / 3.0
    announce(6, f"series+parallel i_max {i_four:.3f} A vs parallel {i_two:.3f} A (>=3x lower)")


def test_criterion_07_sizing_arithmetic_exact():
    params = ExtractedParams(vth=1.15, ron=40.0, vdd=VDD, linear_range=(1.15, 2.15))
    result = size_four_resistor(params, it_target=0.2, split=1.0)
    lo, hi = result.rs_bounds
    assert lo == pytest.approx(5.0, abs=1e-12)
    assert hi == pytest.approx(10.75, abs=1e-12)
    rs_total = result.topology.rsp + result.topology.rsn
    assert 5.0 - 1e-12 <= rs_total <= 10.75 + 1e-12
    assert result.topology.rpp == pytest.approx(5.75, abs=1e-12)
    assert result.topology.rpn == pytest.approx(5.75, abs=1e-12)
    announce(7, "series bounds [5.0, 10.75] ohm and rp = 5.75 ohm exact to 1e-12")


def test_criterion_08_saturation_window():
    empty = check_saturation_window(CAL_STANDALONE)
    assert not any(empty)
    bench_sized = DacConfig(
        n_bits=4,
        vdd=VDD,
        devices=CAL_PAIR,
        topology=Network(rsp=10.0, rsn=0.0, rpp=5.0, rpn=5.0),
    )
    flags = check_saturation_window(bench_sized)
    coverage = sum(flags) / len(flags)
    assert coverage >= 0.5
    announce(8, f"standalone window empty; four-resistor window covers {coverage:.0%} of codes")


def test_criterion_09_metrics_identities():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 65))
        levels = rng.uniform(-5.0, 5.0, size=n)
        if abs(levels[-1] - levels[0]) < 1e-3:
            continue
        d, i, _ = _linearity(levels)
        assert float(np.sum(d)) == pytest.approx(float(i[-1] - i[0]), abs=1e-9)
        assert d == pytest.approx(naive_dnl(list(levels)), abs=1e-12)
        assert i == pytest.approx(naive_inl(list(levels)), abs=1e-12)
        checked += 1
    for _ in range(50):
        n = int(rng.integers(2, 65))
        gain = float(rng.uniform(0.01, 5.0))
        offset = float(rng.uniform(-3.0, 3.0))
        affine = [offset + gain * k for k in range(n)]
        assert float(np.max(np.abs(_linearity(affine)[1]))) < 1e-9
    announce(9, "sum(dnl) identity, affine-zero INL and naive-reference match on 1000 curves")


def test_criterion_10_transient_glitches():
    timing = TimingParams(t_rise=30e-9, t_fall=30e-9, skew_max=5e-9, sample_period=50e-9)
    thermo = DacConfig(n_bits=4, vdd=VDD, devices=CAL_PAIR, encoding=Encoding.THERMOMETER)
    for seed in range(100):
        wave = synthesize(thermo, staircase_codes(4), timing, skew_mode="random", seed=seed)
        assert detect_glitches(wave, band=0.0) == []
    binary = DacConfig(n_bits=4, vdd=VDD, devices=CAL_PAIR, encoding=Encoding.BINARY)
    wave = synthesize(binary, [7, 8], timing)
    glitches = detect_glitches(wave, band=0.0)
    worst = max(m for _, m in glitches)
    assert worst > 1.0
    still = synthesize(binary, [7, 8], TimingParams(30e-9, 30e-9, 0.0, 50e-9))
    assert detect_glitches(still, band=0.0) == []
    announce(
        10,
        f"thermometer clean over 100 random skews; binary 7->8 dips {worst:.1f} LSB; "
        "zero skew is clean",
    )


def test_criterion_11_hdl():
    from pathlib import Path

    golden = Path(__file__).parent / "golden"
    for name, enc in (("dac4_binary", Encoding.BINARY), ("dac4_thermo", Encoding.THERMOMETER)):
        art = generate_dac(spec_for(name, enc))
        assert art.rtl_text == (golden / f"{name}.v").read_text()
        assert art.constraints_text == (golden / f"{name}.pcf").read_text()
        assert json_text(art.manifest) == (golden / f"{name}_manifest.json").read_text()
    for n_bits in range(1, 6):
        for enc in Encoding:
            table = decode_table(generate_dac(spec_for("dut", enc, n_bits)).rtl_text, n_bits)
            for code in range(1 << n_bits):
                assert len(table[code]) == code  # matches solver unit counts
            if enc is Encoding.THERMOMETER:
                for code in range((1 << n_bits) - 1):
                    assert table[code] <= table[code + 1]
    announce(11, "golden bytes, decode tables N=1..5 and thermometer monotonicity hold")


def test_criterion_12_extraction_round_trip():
    rng = np.random.default_rng(2468)
    worst_vth = worst_ron = 0.0
    for _ in range(20):
        vth = float(rng.uniform(0.6, 1.4))
        ron = float(rng.uniform(10.0, 200.0))
        pair = calibrated_pair(VDD, vth, ron)
        curve = transfer_curve(DacConfig(n_bits=6, vdd=VDD, devices=pair))
        params = extract_parameters(curve)
        assert params.vth == pytest.approx(vth, rel=0.10)
        assert params.ron == pytest.approx(ron, rel=0.10)
        worst_vth = max(worst_vth, abs(params.vth - vth) / vth)
        worst_ron = max(worst_ron, abs(params.ron - ron) / ron)
    announce(
        12,
        f"20 random round trips at N=6: worst vth error {worst_vth:.1%}, "
        f"worst ron error {worst_ron:.1%} (<=10%)",
    )
