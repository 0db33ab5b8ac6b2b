"""Operating-point solver checks against the nested-bisection oracle."""

import copy
import hashlib
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpiodac import network
from gpiodac.config import (
    DacConfig,
    DevicePair,
    Encoding,
    LinearSwitch,
    MosfetParams,
    Network,
    OperatingRegion,
    ParallelAttach,
    TimingParams,
    calibrated_pair,
)
from gpiodac.network import complement_check, solve_units, transfer_curve
from gpiodac.cli import transfer_csv
from gpiodac.metrics import summary
from gpiodac.sizing import ExtractedParams, check_saturation_window, size_two_resistor
from gpiodac.transient import synthesize
from oracles import (
    device_current,
    divider,
    oracle_curve,
    oracle_solve,
    per_code_solve,
    per_row_regions,
    per_row_saturation_flags,
    per_row_transfer_csv,
)

VDD = 3.3
PAIR = calibrated_pair(VDD, 1.15, 40.0)  # bench-calibrated symmetric devices


def switch_pair(g: float) -> DevicePair:
    return DevicePair(pmos=LinearSwitch(g), nmos=LinearSwitch(g))


def cfg4(topology=None) -> DacConfig:
    return DacConfig(n_bits=4, vdd=VDD, devices=PAIR, topology=topology or Network())


class TestSolveCode:
    def test_rail_codes_float_to_rails_with_zero_current(self):
        lo = solve_units(cfg4(), 0)
        assert lo.vdac == pytest.approx(0.0, abs=1e-9)
        assert lo.i_total == 0.0
        hi = solve_units(cfg4(), 15)
        assert hi.vdac == pytest.approx(VDD, abs=1e-9)
        assert hi.i_total == 0.0

    def test_midrange_current_near_300mA(self):
        sol = solve_units(cfg4(), 8)
        assert sol.i_total == pytest.approx(0.30, rel=0.20)
        assert sol.kcl_residual <= 1e-9

    def test_midrange_matches_oracle(self):
        sol = solve_units(cfg4(), 8)
        vdac, _, _ = oracle_solve(cfg4(), 8)
        assert sol.vdac == pytest.approx(vdac, abs=1e-6)

    def test_invalid_code_rejected(self):
        with pytest.raises(ValueError):
            solve_units(cfg4(), 16)
        with pytest.raises(ValueError):
            solve_units(cfg4(), -1)

    def test_node_ordering_invariant(self):
        cfg = cfg4(Network(rsp=10.0, rsn=2.0, rpp=5.0, rpn=5.0))
        for code in range(16):
            sol = solve_units(cfg, code)
            assert sol.vs - 1e-9 <= sol.vdac <= sol.vd + 1e-9
            assert 0.0 <= sol.vdac <= VDD
            assert sol.kcl_residual <= 1e-9


class TestTransferCurve:
    def test_one_bit_hits_both_rails(self):
        cfg = DacConfig(n_bits=1, vdd=VDD, devices=PAIR)
        curve = transfer_curve(cfg)
        assert curve.rows[0].vdac == pytest.approx(0.0, abs=1e-9)
        assert curve.rows[1].vdac == pytest.approx(VDD, abs=1e-9)

    def test_standalone_4bit_matches_oracle_and_is_monotone(self):
        curve = transfer_curve(cfg4())
        reference = oracle_curve(cfg4())
        for row, ref in zip(curve.rows, reference):
            assert row.vdac == pytest.approx(ref, abs=1e-6)
        v = curve.vdac
        assert v[8] > v[7]
        assert np.all(np.diff(v) >= -1e-9)

    def test_two_resistor_current_is_flat_and_about_1A(self):
        cfg = cfg4(Network(rpp=2.35, rpn=2.35))
        curve = transfer_curve(cfg)
        mid = curve.rows[8].i_total
        assert mid == pytest.approx(1.0, rel=0.25)
        i = curve.i_total
        assert np.max(i) / np.min(i) < 1.25  # near-constant across codes

    def test_monotone_for_all_topologies(self):
        topologies = [
            Network(),
            Network(rpp=2.35, rpn=2.35),
            Network(rsp=10.0, rsn=0.0, rpp=5.0, rpn=5.0),
        ]
        for topo in topologies:
            v = transfer_curve(cfg4(topo)).vdac
            assert np.all(np.diff(v) >= -1e-9), topo

    def test_current_endpoints(self):
        standalone = transfer_curve(cfg4())
        assert standalone.rows[0].i_total == 0.0
        assert standalone.rows[15].i_total == 0.0
        corrected = transfer_curve(cfg4(Network(rpp=2.35, rpn=2.35)))
        assert corrected.rows[0].i_total > 0.0  # parallel paths conduct at the rails

    def test_region_narrative_low_mid_high(self):
        curve = transfer_curve(cfg4())
        pairs = [(r.region_p, r.region_n) for r in curve.rows]
        T, S = OperatingRegion.TRIODE, OperatingRegion.SATURATION
        for code in range(1, 7):
            assert pairs[code] == (S, T)
        for code in (7, 8):
            assert pairs[code] == (T, T)
        for code in range(9, 15):
            assert pairs[code] == (T, S)


class TestConstantConductanceReduction:
    def test_standalone_matches_divider_exactly(self):
        cfg = DacConfig(n_bits=4, vdd=VDD, devices=switch_pair(0.05))
        for row in transfer_curve(cfg).rows:
            expected = divider(row.code, 15 - row.code, 0.05, 0.05, VDD)
            assert row.vdac == pytest.approx(expected, abs=1e-9)

    def test_two_resistor_matches_divider_form(self):
        cfg = DacConfig(
            n_bits=4, vdd=VDD, devices=switch_pair(0.05), topology=Network(rpp=2.0, rpn=4.0)
        )
        for row in transfer_curve(cfg).rows:
            expected = divider(row.code, 15 - row.code, 0.05, 0.05, VDD, gpp=0.5, gpn=0.25)
            assert row.vdac == pytest.approx(expected, abs=1e-9)

    def test_rails(self):
        cfg = DacConfig(n_bits=4, vdd=VDD, devices=switch_pair(0.025))
        assert solve_units(cfg, 0).vdac == pytest.approx(0.0, abs=1e-12)
        assert solve_units(cfg, 15).vdac == pytest.approx(VDD, rel=1e-15)

    def test_code_5_of_15(self):
        # matched switches are the ideal DAC: code / d_max * vdd
        cfg = DacConfig(n_bits=4, vdd=VDD, devices=switch_pair(0.025))
        assert solve_units(cfg, 5).vdac == pytest.approx(1.1, rel=1e-12)

    def test_mid_code_with_mismatch(self):
        # 8 * gop / (8 * gop + 7 * gon) * 3.3
        pair = DevicePair(pmos=LinearSwitch(0.025), nmos=LinearSwitch(0.0225))
        cfg = DacConfig(n_bits=4, vdd=VDD, devices=pair)
        expected = divider(8, 7, 0.025, 0.0225, VDD)
        assert expected == pytest.approx(1.8461538461538463, rel=1e-12)
        assert solve_units(cfg, 8).vdac == pytest.approx(expected, rel=1e-12)

    def test_rail_code_collapses_divider(self):
        pair = DevicePair(pmos=LinearSwitch(0.025), nmos=LinearSwitch(0.0225))
        cfg = DacConfig(n_bits=4, vdd=VDD, devices=pair)
        assert solve_units(cfg, 15).vdac == pytest.approx(VDD, rel=1e-15)
        assert solve_units(cfg, 0).vdac == pytest.approx(0.0, abs=1e-12)

    def test_vanishing_parallel_conductance_approaches_ideal(self):
        cfg = DacConfig(n_bits=4, vdd=VDD, devices=switch_pair(0.025),
                        topology=Network(rpp=1e12, rpn=1e12))
        assert solve_units(cfg, 5).vdac == pytest.approx(5 / 15 * VDD, abs=1e-9)

    @pytest.mark.parametrize("n_bits", [1, 4, 8])
    def test_sized_two_resistor_pins_the_rails_at_vth(self, n_bits):
        # alpha_g from the sizing rule maps codes 0 and d_max onto (vth, vdd - vth)
        vth, g = 1.15, 0.025
        params = ExtractedParams(vth=vth, ron=1.0 / g, vdd=VDD, linear_range=(vth, VDD - vth))
        sized = size_two_resistor(params, (1 << n_bits) - 1)
        cfg = DacConfig(n_bits=n_bits, vdd=VDD, devices=switch_pair(g), topology=sized.topology)
        lo, hi = solve_units(cfg, [0, cfg.d_max])
        assert lo.vdac == pytest.approx(vth, abs=1e-12)
        assert hi.vdac == pytest.approx(VDD - vth, abs=1e-12)
        assert sized.predicted_dynamic_range == pytest.approx((vth, VDD - vth), abs=1e-15)

    @given(
        gop=st.floats(1e-3, 1.0),
        mismatch=st.floats(-0.9, 0.9),
        rpp=st.floats(0.1, 1e3),
        rpn=st.floats(0.1, 1e3),
        n_bits=st.integers(1, 10),
        data=st.data(),
    )
    def test_two_resistor_matches_divider_for_any_conductances(
        self, gop, mismatch, rpp, rpn, n_bits, data
    ):
        gon = gop * (1.0 - mismatch)
        pair = DevicePair(pmos=LinearSwitch(gop), nmos=LinearSwitch(gon))
        cfg = DacConfig(n_bits=n_bits, vdd=VDD, devices=pair, topology=Network(rpp=rpp, rpn=rpn))
        code = data.draw(st.integers(0, cfg.d_max))
        expected = divider(code, cfg.d_max - code, gop, gon, VDD, gpp=1 / rpp, gpn=1 / rpn)
        assert solve_units(cfg, code).vdac == pytest.approx(expected, abs=1e-9)


class TestComplementCheck:
    def test_symmetric_standalone_is_self_complementary(self):
        assert complement_check(transfer_curve(cfg4())) <= 2e-9

    def test_symmetric_two_resistor_is_self_complementary(self):
        curve = transfer_curve(cfg4(Network(rpp=2.35, rpn=2.35)))
        assert complement_check(curve) <= 2e-9

    def test_conductance_mismatch_breaks_symmetry(self):
        kp = PAIR.pmos.k
        pair = DevicePair(
            pmos=MosfetParams(1.15, kp),
            nmos=MosfetParams(1.15, 0.9 * kp),  # 10% mismatch
        )
        curve = transfer_curve(DacConfig(n_bits=4, vdd=VDD, devices=pair))
        asym = complement_check(curve)
        # frozen from the bisection oracle: 0.4296 V peak asymmetry
        assert asym == pytest.approx(0.4296, rel=1e-3)
        assert asym > 1e-3


class TestOracleEquivalence:
    def test_small_random_matrix(self):
        rng = np.random.default_rng(20260808)
        for trial in range(30):
            n_bits = int(rng.integers(1, 7))
            vth = float(rng.uniform(0.4, 1.4))
            kp = float(rng.uniform(2e-3, 5e-2))
            kn = float(rng.uniform(2e-3, 5e-2))
            pair = DevicePair(
                pmos=MosfetParams(vth, kp),
                nmos=MosfetParams(vth, kn),
            )
            kind = trial % 3
            if kind == 0:
                topo = Network()
            elif kind == 1:
                topo = Network(rpp=float(rng.uniform(1, 100)), rpn=float(rng.uniform(1, 100)))
            else:
                topo = Network(
                    rsp=float(rng.uniform(0.5, 30)),
                    rsn=float(rng.uniform(0.0, 5.0)) if trial % 2 else 0.0,
                    rpp=float(rng.uniform(1, 100)),
                    rpn=float(rng.uniform(1, 100)),
                    parallel_attach=ParallelAttach.INNER_RAILS
                    if trial % 4 < 2
                    else ParallelAttach.SUPPLY_RAILS,
                )
            cfg = DacConfig(n_bits=n_bits, vdd=VDD, devices=pair, topology=topo)
            codes = rng.integers(0, cfg.d_max + 1, size=3)
            for code in codes:
                sol = solve_units(cfg, int(code))
                vdac, vd, vs = oracle_solve(cfg, int(code))
                assert sol.vdac == pytest.approx(vdac, abs=1e-6), (trial, code)
                assert sol.vd == pytest.approx(vd, abs=1e-6), (trial, code)
                assert sol.vs == pytest.approx(vs, abs=1e-6), (trial, code)


class TestValidation:
    @pytest.mark.parametrize("vdd", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_vdd(self, vdd):
        with pytest.raises(ValueError, match="^vdd must be finite and > 0"):
            DacConfig(n_bits=4, vdd=vdd, devices=PAIR)

    def test_nan_resistances(self):
        for slot in range(4):
            with pytest.raises(ValueError):
                Network(*[float("nan") if k == slot else 1.0 for k in range(4)])

    @pytest.mark.parametrize("values, key", [
        ({"rsp": -1.0}, "rsp"), ({"rsp": float("nan")}, "rsp"),
        ({"rsp": 1.0, "rsn": -1.0}, "rsn"), ({"rsp": 1.0, "rsn": float("nan")}, "rsn"),
        ({"rsn": 2.0}, "rsn"),  # the rails are solved in the current through rsp
    ])
    def test_a_refused_series_resistor_is_named(self, values, key):
        with pytest.raises(ValueError, match=f"^{key} "):
            Network(**values)

    def test_bad_bit_width(self):
        with pytest.raises(ValueError):
            DacConfig(n_bits=0, vdd=VDD, devices=PAIR)
        with pytest.raises(ValueError):
            DacConfig(n_bits=17, vdd=VDD, devices=PAIR)

    @pytest.mark.parametrize("n_bits", [4.5, 4.0, True, np.float64(4.0), "4", None])
    def test_a_bit_width_that_is_not_an_integer_is_refused_naming_it(self, n_bits):
        with pytest.raises(ValueError) as info:
            DacConfig(n_bits, VDD, PAIR)
        assert str(info.value) == f"n_bits must be an integer, got {n_bits!r}"

    @pytest.mark.parametrize("n_bits", [4, np.int64(4), np.uint8(4)])
    def test_a_numpy_integer_bit_width_is_the_int_one(self, n_bits):
        cfg = DacConfig(n_bits, VDD, PAIR)
        assert type(cfg.n_bits) is int and type(cfg.d_max) is int
        assert cfg == DacConfig(4, VDD, PAIR)
        assert transfer_curve(cfg).vdac.tobytes() == transfer_curve(DacConfig(4, VDD, PAIR)).vdac.tobytes()

    def test_bad_resistances(self):
        with pytest.raises(ValueError):
            Network(rpp=0.0, rpn=1.0)
        with pytest.raises(ValueError):
            Network(rsp=1.0, rsn=-1.0, rpp=1.0, rpn=1.0)
        # the shared-ground board case: rsn = 0 is legal
        Network(rsp=1.0, rsn=0.0, rpp=1.0, rpn=1.0)
        # rsp = rsn = 0 is a network without series resistors: the two-resistor one
        assert Network(rsp=0.0, rsn=0.0, rpp=1.0, rpn=1.0) == Network(rpp=1.0, rpn=1.0)

    @pytest.mark.parametrize("name", ["rsp", "rsn", "rpp", "rpn"])
    @pytest.mark.parametrize("tiny", [1e-320, 1e-308, np.float64(0.9 * VDD / np.finfo(float).max)])
    def test_resistance_whose_conductance_times_vdd_overflows(self, name, tiny):
        values = {"rsp": 10.0, "rsn": 2.0, "rpp": 5.0, "rpn": 7.0, name: tiny}
        message = f"^{name} = .* ohm is too small: vdd / {name} is not finite$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy scalar is divided as a float, unwarned
            with pytest.raises(ValueError, match=message):
                DacConfig(n_bits=4, vdd=VDD, devices=PAIR, topology=Network(**values))
            if name.startswith("rp"):
                with pytest.raises(ValueError, match=f"^{name} = "):
                    DacConfig(4, VDD, PAIR, Network(**{"rpp": 5.0, "rpn": 7.0, name: tiny}))

    def test_smallest_resistance_vdd_allows_is_accepted(self):
        edge = np.float64(1.01 * VDD / np.finfo(float).max)
        DacConfig(4, VDD, PAIR, Network(rsp=edge, rsn=0.0, rpp=edge, rpn=edge))
        DacConfig(4, VDD, PAIR, Network(rpp=edge, rpn=edge))


MISMATCHED = DevicePair(
    pmos=MosfetParams(1.05, 0.012),
    nmos=MosfetParams(1.2, 0.010),
)
SUPPLY = ParallelAttach.SUPPLY_RAILS
# The damped-Newton solver and its bisection fallback both missed their tolerance at code 3.
FAILING = DacConfig(
    n_bits=4,
    vdd=1.0,
    devices=DevicePair(
        pmos=MosfetParams(0.09, 0.045),
        nmos=MosfetParams(0.46, 1.5),
    ),
    topology=Network(rsp=0.014, rsn=27.0, rpp=150.0, rpn=1300.0, parallel_attach=SUPPLY),
)


# Every topology, both attach modes, and rsn = 0 (a shared ground rail).
TOPOLOGIES = {
    "standalone": Network(),
    "two": Network(rpp=2.35, rpn=3.1),
    "four_inner": Network(rsp=10.0, rsn=2.0, rpp=5.0, rpn=7.0),
    "four_supply": Network(rsp=10.0, rsn=2.0, rpp=5.0, rpn=7.0, parallel_attach=SUPPLY),
    "rsn0_inner": Network(rsp=10.0, rsn=0.0, rpp=5.0, rpn=7.0),
    "rsn0_supply": Network(rsp=10.0, rsn=0.0, rpp=5.0, rpn=7.0, parallel_attach=SUPPLY),
}
FOUR = [name for name in TOPOLOGIES if name.startswith(("four", "rsn0"))]


# sha256 of the (vdac, vd, vs) bytes of each curve, one float64 per code, as the solver gave
# them when the bracketed rails and the exact output node were new.
# Any change to the solver's arithmetic shows here, down to the last bit of one lane.
VOLTAGE_DIGESTS = {
    "matched/standalone/6": "37e0d0a5b6adcbc488104013e0ada7cbb7b12bf9c5a1b01fe1b18602524bfded",
    "matched/standalone/12": "60e22982cf8129b33e3ca50946e34ec8d6095b80c434ec4e5843c918471575b0",
    "matched/two/6": "a740fa892f5eddbb6eac26bb2c32ccbc6ed38aac739db0f72f287ca6ae7f3457",
    "matched/two/12": "77119dc5e701a0c6f42811f9a2bfb93fc57b6eca2f6214a7b52242be5893f885",
    "matched/four_inner/6": "ba0d8001498e374694686fbedd5662161678f7995e7308ca59481aa72a87f440",
    "matched/four_inner/12": "c23784b8dc3b9fbf4f5d180dd2ffcabeb13d3ed3f28894392993c8d4efecd49c",
    "matched/four_supply/6": "5df4e125f2c65ec78d6e52ed9ccdc5f326cffc15d25a1ddeb263a6fb7308a4ba",
    "matched/four_supply/12": "dd19edc7630910d22193a41f51fba4a7f2f84bf1dac9da6c0d9383aa49db12d5",
    "matched/rsn0_inner/6": "1e2ddc50d829856a457aee45f9c58824a85c664bbc520d9fab17f01ea60ebe08",
    "matched/rsn0_inner/12": "0280ae2f908b204a815269f162b4f18799fb03aaa772bd4c5119b220f0131cf1",
    "matched/rsn0_supply/6": "d62cdbe706aae339bf7e43fb678ba4ac38dc75ba356f577f3cb9ea7e534bf5ec",
    "matched/rsn0_supply/12": "bb7e676cb8917e237c2085b946ed4dbcb0fd57da1583e5be8b18eafdb57618f0",
    "mismatched/standalone/6": "eefe51117123eb2e882a22ffcc790a070f72bd7df9e9eaa9002b1e5edee7e2ba",
    "mismatched/standalone/12": "fa2ae8b76b4e716f6fa2de458ae4086d71c2efac227ee60acb8cc9197cd17d32",
    "mismatched/two/6": "b4b8fb10e769e74f9d40dfbfdf9357c134b5f2218e87233b9b6b20de4f81149f",
    "mismatched/two/12": "2a87b94ba4c9b5e41bdfc74f2cb222663b93d1a779841fa5d2e2a6ace579e18a",
    "mismatched/four_inner/6": "501f017809f2a5d7431248ed9b14542853a82783b46901f03b0db9575530d305",
    "mismatched/four_inner/12": "b21f2e32cd489c77669aa707df5447ec09ae86c8afba5aab61508c82887e0beb",
    "mismatched/four_supply/6": "9f28d14661b060dc4f5eaa05485941cf3929f41657394c5b57524c5d14544156",
    "mismatched/four_supply/12": "d0a193096b941e036a3f6d7ff974ea423f2aa7ac82d5275840c203a1d1394b80",
    "mismatched/rsn0_inner/6": "0ca8aedf5ff82ba6285b73f186f4e278f43a9fbdeded4c1b450ec0c6e5f53e7c",
    "mismatched/rsn0_inner/12": "8214c5cbed83202a761d493310dc434d97e2eb1ce1d5d6a6e276068ba09bd798",
    "mismatched/rsn0_supply/6": "e3f538dfe2f0c12f901349a37261fa943c62cdbfd0359d22f22128d6b9944944",
    "mismatched/rsn0_supply/12": "c428482c70c8a11aea329ad273c9c3d826d26c525b70c200f0d7fd8632bc9503",
    "switch/standalone/6": "0301982240ffa518b3016be8862d8b3e859077005e54a53ab790e85fe979781d",
    "switch/standalone/12": "80c1e70f757bd7ea70adbbd6ac3ccc505b51dcabcc122fafb80bc519f8f58550",
    "switch/two/6": "7f1b83d3472d11d80ab4c8f16f79517a12701768bc8b4eef2a6572e4a4501423",
    "switch/two/12": "da5ca9ee5e151ec32188b6bb41726b1c363beec4f05b14345a7390b59cb4ebf1",
    "switch/four_inner/6": "7c560b06eaf444946c8cf19629f53190630d3394e0fe89eb18a6d0e184e9ef62",
    "switch/four_inner/12": "884eda15cd1681ce85d3f089193c50ce2a3e8eb6620a4950cd59f95dae444817",
    "switch/four_supply/6": "6558da71b9c6d6451b7bbc1ee7d5132f290d57252ccb112c8f1c25b2535e14eb",
    "switch/four_supply/12": "a8195469caba3633d6d92dfe7e2779166df405fbfbd84b0651aca6374037c121",
    "switch/rsn0_inner/6": "ffee0e314ca1bdb3f9551b472270f52cf23125e621b65d019d16a9b89835ca61",
    "switch/rsn0_inner/12": "867a59f8cb843c5203504350468da7512cc626fefbc451a96c1f708389e4ac54",
    "switch/rsn0_supply/6": "5439a7cdfe7366d7f216245b7d5bccc06a54afeebde71a57f9b707bf2f83c9d7",
    "switch/rsn0_supply/12": "59b58dab6d4f02b0182cb2e283c1a6d97ffd54237b70c157077aaaf8ea4800e3",
    "mixed/standalone/6": "241d7831a398e5c6c7237f369bd34fbad37730f7327435b75afe44d33abcec65",
    "mixed/standalone/12": "42b7f6167c02be84cc3d50053bda86a96805ede1355734e735378dd0745a06b0",
    "mixed/two/6": "9032db4da8d49792bd15e954a63f2a46792a0cf50c751451e6c5eec099f586ed",
    "mixed/two/12": "37b49f602a3630f4aa188d47d9334d1e7a3bdc208916a0571325fdeed5888acd",
    "mixed/four_inner/6": "abb19be8231aab86b63bb70acccc84255923b422b8ea620a4b6ee88700212b6c",
    "mixed/four_inner/12": "a72e5a5de1cb741e4dec447eb0434ee95b7c3c5936ee13112f9e56053d1a1c5f",
    "mixed/four_supply/6": "f96822ca4f1f97d63075a9ba4535fedcc2ceaccfc3d0950ec43f4bb08206b368",
    "mixed/four_supply/12": "9f149b1519bc9131ffded0a7a2f9d88761c39001ac184946aa6725dfb91b460e",
    "mixed/rsn0_inner/6": "252d31ad698b9dff7aab1d1c797498cf8a9bc3780830249b8108fc93a95de124",
    "mixed/rsn0_inner/12": "041316363ab0ed33cfb8f06828cacc06b9ba0bb3209425271fed884b7fa81d75",
    "mixed/rsn0_supply/6": "741d9381e1ea0e225b1196d5b83a61f097c01fcf00a446ac1451505732a47e49",
    "mixed/rsn0_supply/12": "bba8edf6c174903748b3dd0e448a6b7fe091de9cb6762b259c2ea330208e1048",
}
DIGEST_DEVICES = {
    "matched": PAIR,
    "mismatched": MISMATCHED,
    "switch": DevicePair(LinearSwitch(0.03), LinearSwitch(0.02)),
    "mixed": DevicePair(PAIR.pmos, LinearSwitch(0.02)),  # one group with knees, one without
}


def voltage_digest(columns) -> str:
    return hashlib.sha256(b"".join(columns[k].tobytes() for k in ("vdac", "vd", "vs"))).hexdigest()


class TestVoltageDigests:
    """Every rail path, device kind and width keeps its voltages bit for bit."""

    @pytest.mark.parametrize("key", VOLTAGE_DIGESTS)
    def test_curve_voltages_are_bit_for_bit_the_pinned_ones(self, key):
        devices, topology, n_bits = key.split("/")
        cfg = DacConfig(int(n_bits), VDD, DIGEST_DEVICES[devices], TOPOLOGIES[topology])
        assert voltage_digest(transfer_curve(cfg).columns) == VOLTAGE_DIGESTS[key]


def float_bits(rows) -> np.ndarray:
    return np.array([[r.vdac, r.vd, r.vs, r.kcl_residual] for r in rows]).view(np.int64)


def voltage_gap(rows, want) -> float:
    """Largest |difference| in vdac, vd or vs; want holds NodeSolutions or per_code_solve tuples."""

    def volts(items):
        return np.array([w[:3] if isinstance(w, tuple) else (w.vdac, w.vd, w.vs) for w in items])

    return float(np.max(np.abs(volts(rows) - volts(want))))


def assert_matches_per_code_solver(curve) -> None:
    """Every row is within 1e-14 V of the scalar per-code solver wherever that converged, and
    balanced within 1e-9 A."""
    pairs = [(row, per_code_solve(curve.config, row.code)) for row in curve.rows]
    rows, reference = zip(*[(row, ref) for row, ref in pairs if ref[4]])
    assert voltage_gap(rows, reference) <= 1e-14
    assert max(row.kcl_residual for row in curve.rows) <= 1e-9


def assert_matches_oracle(config, rows, tol=1e-6) -> None:
    """Each row's vdac, vd and vs within tol of the nested-bisection oracle."""
    assert voltage_gap(rows, [oracle_solve(config, row.code) for row in rows]) <= tol


def device_pair(draw, vdd, open_vth=False):
    """Devices with vth in [0.05, 0.9 vdd] V (the open interval if open_vth) and k
    log-uniform on 1e-4..10 A/V^2."""

    def device():
        vth = draw(st.floats(0.05, 0.9 * vdd, exclude_min=open_vth, exclude_max=open_vth))
        return MosfetParams(vth, 10 ** draw(st.floats(-4, 1)))

    return DevicePair(device(), device())


def topology(draw):
    def resistor():
        return 10 ** draw(st.floats(-2, 5))

    kind = draw(st.sampled_from(["standalone", "two_resistor", "four_resistor"]))
    if kind == "standalone":
        return Network()
    if kind == "two_resistor":
        return Network(rpp=resistor(), rpn=resistor())
    rsp = resistor()
    rsn = resistor() if draw(st.booleans()) else 0.0
    attach = draw(st.sampled_from(list(ParallelAttach)))
    return Network(rsp, rsn, resistor(), resistor(), attach)


@st.composite
def batches(draw):
    """A random legal config (n_bits <= 8) and a random list of pull-up counts."""
    n_bits = draw(st.integers(1, 8))
    vdd = draw(st.floats(0.8, 5.0))
    topo = topology(draw)
    cfg = DacConfig(n_bits, vdd, device_pair(draw, vdd), topo)
    counts = draw(st.lists(st.integers(0, cfg.d_max), min_size=1, max_size=12))
    return cfg, counts


@st.composite
def fuzz_cases(draw):
    """A config from the full sampled ranges, a few codes, and whether to check the oracle.

    n_bits 1..16, vdd in (0.8, 5) V, vth in (0.05, 0.9 vdd), k log-uniform on
    1e-4..10 A/V^2, resistors log-uniform on 1e-2..1e5 ohm, rsn = 0 half the
    time, both parallel_attach modes. A config of up to 10 bits is sometimes
    solved as a whole curve, which warm-starts a four-resistor batch.
    """
    n_bits = draw(st.integers(1, 16))
    vdd = draw(st.floats(0.8, 5.0, exclude_min=True, exclude_max=True))
    cfg = DacConfig(n_bits, vdd, device_pair(draw, vdd, open_vth=True), topology(draw))
    codes = draw(st.lists(st.integers(0, cfg.d_max), min_size=1, max_size=4))
    whole = n_bits <= 10 and draw(st.integers(0, 3)) == 0
    return cfg, codes, whole, draw(st.integers(0, 3)) == 0


class TestFuzz:
    """No config the constructors accept fails to solve, and every solution balances and is
    the oracle's."""

    @settings(max_examples=600)
    @given(case=fuzz_cases())
    def test_sampled_configs_solve_in_range_and_match_the_oracle(self, case):
        cfg, codes, whole, check = case
        if whole:
            curve = transfer_curve(cfg)
            vdac = curve.vdac
            rows = [curve.rows[code] for code in codes]
        else:
            rows = solve_units(cfg, codes)
            vdac = np.array([row.vdac for row in rows])
        assert np.all((vdac >= 0.0) & (vdac <= cfg.vdd))
        assert_balanced(cfg, rows)
        if check:
            assert_matches_oracle(cfg, rows[:1])


def assert_balanced(cfg, rows) -> None:
    """Each row balanced within rounding of the currents it carries (TestFuzz's bound)."""
    for row in rows:
        carried = (abs(row.i_total) + abs(row.i_rpp) + abs(row.i_rpn) + row.code * abs(
            row.i_per_pullup) + (cfg.d_max - row.code) * abs(row.i_per_pulldown))
        assert row.kcl_residual <= 1e-6 * carried + 1e-18, row


@st.composite
def series_only_networks(draw):
    """A config of up to 10 bits with series resistors, drawn as fuzz_cases draws them, and no
    parallel resistors, attached to the supply rails."""
    n_bits = draw(st.integers(1, 10))
    vdd = draw(st.floats(0.8, 5.0, exclude_min=True, exclude_max=True))
    rsp, rsn = (10 ** draw(st.floats(-2, 5)) for _ in range(2))
    topo = Network(rsp, rsn if draw(st.booleans()) else 0.0, parallel_attach=SUPPLY)
    return DacConfig(n_bits, vdd, device_pair(draw, vdd, open_vth=True), topo)


def attached_inner(cfg: DacConfig) -> DacConfig:
    return replace(cfg, topology=replace(cfg.topology, parallel_attach=ParallelAttach.INNER_RAILS))


# Weakly tied rails: the nested supply-rail solve once left 417 of its 1,024 rows unbalanced,
# by up to 0.03 A, with both groups reported cut off.
WEAK_RAILS = DacConfig(
    n_bits=10,
    vdd=VDD,
    devices=DevicePair(
        pmos=MosfetParams(1.5398062152510092, 1.1825805479058171),
        nmos=MosfetParams(0.822559644257621, 0.0056522021227788394),
    ),
    topology=Network(rsp=108.41025791129202, rsn=0.8443180176195865, parallel_attach=SUPPLY),
)


class TestAbsentParallel:
    """Without parallel resistors the attach mode changes no balance: a supply-attached
    network solves on the inner-rail path, bit for bit the inner-attached one."""

    def test_weakly_tied_supply_rails_balance_as_inner_rails(self):
        curve = transfer_curve(WEAK_RAILS)
        assert_balanced(WEAK_RAILS, curve.rows)
        assert_same_columns(curve, transfer_curve(attached_inner(WEAK_RAILS)))

    @settings(max_examples=150)
    @given(cfg=series_only_networks())
    def test_sampled_series_only_networks_balance_in_either_mode(self, cfg):
        curve = transfer_curve(cfg)
        assert_balanced(cfg, curve.rows)
        assert_same_columns(curve, transfer_curve(attached_inner(cfg)))


def assert_same_columns(got, want) -> None:
    """The two curves' columns are equal bit for bit, regions by value."""
    for name, column in want.columns.items():
        other = got.columns[name]
        if column.dtype == object:
            assert other.tolist() == column.tolist(), name
        else:
            assert other.tobytes() == column.tobytes(), name


class TestLaneIndependence:
    @pytest.mark.parametrize("topology", TOPOLOGIES.values(), ids=TOPOLOGIES.keys())
    def test_curve_rows_equal_single_code_solves(self, topology):
        cfg = DacConfig(n_bits=5, vdd=VDD, devices=MISMATCHED, topology=topology)
        curve = transfer_curve(cfg)
        for code in range(cfg.d_max + 1):
            assert curve.rows[code] == solve_units(cfg, code)
        assert_matches_per_code_solver(curve)

    @settings(max_examples=50)
    @given(case=batches())
    def test_batch_is_bitwise_the_lanes_solved_alone(self, case):
        cfg, counts = case
        alone = [solve_units(cfg, count) for count in counts]
        network._last = None  # a batch of one count solves again
        assert np.array_equal(float_bits(solve_units(cfg, counts)), float_bits(alone))

    @pytest.mark.parametrize("vth_share", [0.05 / VDD, 0.9])
    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_vth_at_either_end_of_its_range(self, name, vth_share):
        # The ends of the batches strategy's closed vth interval, 0.05 V and 0.9 vdd.
        pair = DevicePair(MosfetParams(vth_share * VDD, 2e-3),
                          MosfetParams(vth_share * VDD, 3e-3))
        cfg = DacConfig(6, VDD, pair, TOPOLOGIES[name])
        counts = list(range(cfg.d_max + 1))  # 64 distinct counts: no warm start
        rows = solve_units(cfg, counts)
        assert np.array_equal(float_bits(rows), float_bits([solve_units(cfg, c) for c in counts]))
        assert_matches_oracle(cfg, rows[::9])

    @pytest.mark.parametrize("name", ["standalone", "two"])
    def test_12_bit_curve_is_bitwise_one_code_solves(self, name):
        # No warm start: every lane's solve is its own, whatever the batch.
        cfg = DacConfig(n_bits=12, vdd=VDD, devices=MISMATCHED, topology=TOPOLOGIES[name])
        curve = transfer_curve(cfg)
        codes = sample_codes(np.arange(cfg.d_max + 1))
        rows = [curve.rows[code] for code in codes]
        assert np.array_equal(float_bits(rows), float_bits([solve_units(cfg, code) for code in codes]))
        assert_matches_oracle(cfg, rows[::8])

    def test_int_and_one_element_list_agree(self):
        one = solve_units(cfg4(), 9)
        network._last = None
        assert solve_units(cfg4(), [9]) == (one,)
        assert solve_units(cfg4(), []) == ()

    def test_out_of_range_count_in_a_batch(self):
        with pytest.raises(ValueError, match="pullup_units 16 out of range"):
            solve_units(cfg4(), [3, 16, -1])
        with pytest.raises(ValueError, match=r"pullup_units -1 out of range 0\.\.15$"):
            solve_units(cfg4(), [0, 5, 15, -1, 16])
        with pytest.raises(ValueError, match="pullup_units 17 out of range"):
            solve_units(cfg4(), np.array([15, 0, 17, 2**63], dtype=np.uint64))

    @pytest.mark.parametrize("counts, bad", [
        (2**70, 2**70), ([2**70], 2**70), ([3, 2**64], 2**64), ([3, -(2**64), 2**64], -(2**64)),
        ([-1, 2**63], -1), ([2**63], 2**63),
    ])
    def test_a_count_beyond_int64_is_out_of_range(self, counts, bad):
        with pytest.raises(ValueError, match=rf"^pullup_units {bad} out of range 0\.\.15$"):
            solve_units(cfg4(), counts)

    # A 2x2 list is not four counts, and a ragged one is refused naming the input, not with
    # numpy's "inhomogeneous shape" message.
    @pytest.mark.parametrize("counts", [[[1, 2], [3, 4]], [[1, 2], [3]]], ids=["nested", "ragged"])
    def test_nested_counts_are_refused_naming_the_input(self, counts):
        with pytest.raises(ValueError, match=r"^pullup_units must be an integer or a flat sequence"):
            solve_units(cfg4(), counts)

    def test_fractional_count_rejected(self):
        with pytest.raises(ValueError, match="must be integers"):
            solve_units(cfg4(), 2.5)
        with pytest.raises(ValueError, match="must be integers"):
            solve_units(cfg4(), [1, 2.5])


class TestFormerFailures:
    """Configs where the damped-Newton solver and its bisection fallback failed."""

    def test_failing_config_solves_code_3_and_matches_the_oracle(self):
        curve = transfer_curve(FAILING)
        assert not per_code_solve(FAILING, 3)[4]  # the old solver's failure
        assert_matches_oracle(FAILING, curve.rows[2:5])
        assert curve.rows[3].kcl_residual <= 1e-12 * curve.rows[3].i_total
        good = [0, 1, 2, 4, 9, 15]
        assert solve_units(FAILING, good) == tuple(curve.rows[c] for c in good)

    def test_flat_residual_at_the_linear_guess(self):
        # At the linear guess both groups saturate on codes 6-9, where the old solver's
        # 1x1 Jacobian was exactly zero and those codes went to bisection.
        pair = DevicePair(
            pmos=MosfetParams(2.0, PAIR.pmos.k),
            nmos=MosfetParams(2.0, PAIR.nmos.k),
        )
        curve = transfer_curve(DacConfig(n_bits=4, vdd=VDD, devices=pair))
        assert_matches_per_code_solver(curve)
        assert_matches_oracle(curve.config, curve.rows[5:11])

    def test_mismatched_10_bit_supply_attached_points(self):
        # Code 435 at rpp 5, rpn 7 and codes 439-451 at rpp = rpn from 2.35 to 12 ohm.
        base = DacConfig(n_bits=10, vdd=VDD, devices=MISMATCHED, topology=TOPOLOGIES["four_supply"])
        assert not per_code_solve(base, 435)[4]
        assert_matches_oracle(base, [solve_units(base, 435)])
        for rp in (2.35, 5.0, 12.0):
            cfg = DacConfig(10, VDD, MISMATCHED, Network(10.0, 2.0, rp, rp, SUPPLY))
            rows = solve_units(cfg, list(range(439, 452)))
            assert all(row.kcl_residual <= 1e-12 * row.i_total for row in rows)
            assert_matches_oracle(cfg, rows[::6])
        assert not per_code_solve(cfg, 439)[4]

    def test_16_bit_supply_attached_rsn0_curve(self):
        cfg = DacConfig(16, VDD, PAIR, Network(10.0, 0.0, 5.0, 5.0, SUPPLY))
        curve = transfer_curve(cfg)
        assert np.all((curve.vdac >= 0.0) & (curve.vdac <= VDD))
        assert_matches_oracle(cfg, [curve.rows[code] for code in sample_codes(np.arange(1 << 16))[::4]])

    def test_kiloampere_config_is_accepted_on_its_own_scale(self, monkeypatch):
        # ~1e5 S of devices on a 10 mohm rail: rounding alone leaves residuals of ~1e-10 A,
        # next to the old fixed 1e-9 A tolerance; every rail solve still stops in a few steps.
        pair = DevicePair(MosfetParams(0.5, 10.0), MosfetParams(0.6, 10.0))
        cfg = DacConfig(16, VDD, pair, Network(0.01, 0.01, 0.01, 0.01))
        steps = []
        bracketed = network._bracketed

        def spy(level, *args):
            def counted(pos, x):
                steps.append(len(x))
                return level(pos, x)

            return bracketed(counted, *args)

        monkeypatch.setattr(network, "_bracketed", spy)
        curve = transfer_curve(cfg)
        residual = curve.columns["kcl_residual"]
        assert np.max(residual) > 1e-10
        assert np.max(residual) <= 1e-11 * np.max(np.abs(curve.i_total))
        assert len(steps) < 200
        assert_matches_oracle(cfg, [curve.rows[code] for code in sample_codes(np.arange(1 << 16))[::8]])


class TestRails:
    """The output node at any held rails, and the rails' tie on inner rails."""

    @pytest.mark.parametrize("name", ["four_supply", "rsn0_supply", "four_inner"])
    def test_output_node_at_off_balance_rails_is_the_bisected_root(self, name):
        # Off the rails' balance, supply-attached resistors can put the root outside [vs, vd].
        cfg = DacConfig(6, VDD, MISMATCHED, TOPOLOGIES[name])
        pmos, nmos, topo = cfg.devices.pmos, cfg.devices.nmos, cfg.topology
        counts = np.arange(cfg.d_max + 1)
        rng = np.random.default_rng(5)
        vd = rng.uniform(0.0, VDD, len(counts))
        vs = rng.uniform(0.0, 1.0, len(counts)) * vd
        with np.errstate(all="ignore"):
            got = network._Lanes([cfg], counts).output_node(vd, vs)
        supply = topo.parallel_attach is SUPPLY
        for m, x, y, v in zip(counts, vd, vs, got):
            top, bottom = (VDD, 0.0) if supply else (x, y)

            def f(vdac):
                return (m * device_current(pmos, x - y, x - vdac) - (cfg.d_max - m) * device_current(
                    nmos, x - y, vdac - y) + (top - vdac) / topo.rpp - (vdac - bottom) / topo.rpn)

            lo, hi = (bottom, top)
            for _ in range(100):
                lo, hi = (0.5 * (lo + hi), hi) if f(0.5 * (lo + hi)) > 0.0 else (lo, 0.5 * (lo + hi))
            assert abs(v - 0.5 * (lo + hi)) <= 1e-12
        if supply:
            assert np.any((got > vd) | (got < vs))

    @pytest.mark.parametrize("n_bits", [4, 12])
    def test_inner_rails_carry_one_current(self, n_bits):
        cfg = DacConfig(n_bits, VDD, MISMATCHED, TOPOLOGIES["four_inner"])
        curve = transfer_curve(cfg)
        vd, vs = curve.columns["vd"], curve.columns["vs"]
        assert np.allclose((VDD - vd) / 10.0, vs / 2.0, rtol=1e-14, atol=0.0)  # rsp 10, rsn 2
        assert np.max(curve.columns["kcl_residual"]) <= 1e-12 * np.max(curve.i_total)


def sample_codes(codes: np.ndarray) -> list[int]:
    """41 of the given codes: 33 evenly spaced through them and 8 random others."""
    even = codes[np.linspace(0, len(codes) - 1, 33).round().astype(int)]
    extra = np.random.default_rng(7).choice(np.setdiff1d(codes, even), 8, replace=False)
    return sorted({*even.tolist(), *extra.tolist()})


class TestWarmStart:
    """A four-resistor batch of over 2 * WARM_STRIDE distinct counts starts its rails from
    solves at every WARM_STRIDE-th count, interpolated."""

    @pytest.mark.parametrize("name", FOUR)
    def test_12_bit_curve_matches_cold_solves(self, name):
        cfg = DacConfig(n_bits=12, vdd=VDD, devices=MISMATCHED, topology=TOPOLOGIES[name])
        curve = transfer_curve(cfg)
        codes = sample_codes(np.arange(cfg.d_max + 1))
        cold = solve_units(cfg, codes)  # 41 distinct counts: not warm-started
        # At 12 bits a rail voltage is only defined to ~1e-13 V: one ulp of vdac moves the
        # rail's residual by thousands of units' conductance times that ulp.
        assert voltage_gap([curve.rows[c] for c in codes], cold) <= 1e-12
        assert_matches_oracle(cfg, cold[::8])

    def test_only_four_resistor_batches_over_two_strides_of_distinct_counts_warm_start(
            self, monkeypatch):
        calls = []
        warm_start = network._warm_start

        def spy(configs, counts, distinct):
            calls.append(len(distinct))
            return warm_start(configs, counts, distinct)

        monkeypatch.setattr(network, "_warm_start", spy)
        cfg = DacConfig(n_bits=8, vdd=VDD, devices=MISMATCHED, topology=TOPOLOGIES["four_inner"])
        limit = 2 * network.WARM_STRIDE
        solve_units(cfg, list(range(limit)) * 2)
        assert calls == []
        solve_units(cfg, list(range(limit + 1)) * 2)
        assert calls == [limit + 1]
        transfer_curve(DacConfig(n_bits=12, vdd=VDD, devices=MISMATCHED, topology=TOPOLOGIES["two"]))
        assert calls == [limit + 1]

    def test_the_start_is_the_grid_solve_at_every_grid_count(self):
        cfg = DacConfig(n_bits=8, vdd=VDD, devices=MISMATCHED, topology=TOPOLOGIES["four_inner"])
        counts = np.arange(cfg.d_max + 1)[::-1]  # the grid is drawn from the sorted distinct counts
        with np.errstate(all="ignore"):
            start = network._warm_start([cfg], counts, np.unique(counts))
        grid = [0, 1, 64, 128, 192, 254, 255]
        solved = solve_units(cfg, grid)
        at_grid = np.isin(counts, grid)
        for name, column in zip(("vd", "vs"), start):
            want = {row.code: getattr(row, name) for row in solved}
            assert column[at_grid].tolist() == [want[c] for c in counts[at_grid]]
            between = [float(np.interp(c, grid, [want[g] for g in grid])) for c in counts[~at_grid]]
            assert column[~at_grid].tolist() == between

    @pytest.mark.parametrize("name", FOUR)
    def test_any_start_gives_the_same_solution(self, name, monkeypatch):
        cfg = DacConfig(n_bits=8, vdd=VDD, devices=MISMATCHED, topology=TOPOLOGIES[name])
        want = transfer_curve(cfg)
        rng = np.random.default_rng(11)

        def scrambled(configs, counts, distinct):
            vd = rng.uniform(0.0, VDD, len(counts))
            return vd, rng.uniform(0.0, 1.0, len(counts)) * vd

        monkeypatch.setattr(network, "_warm_start", scrambled)
        network._last = None  # else the batch is served from the solve above, never scrambled
        got = transfer_curve(cfg)
        assert voltage_gap(got.rows, want.rows) <= 1e-12
        assert max(row.kcl_residual for row in got.rows) <= 1e-12


class TestCurveColumns:
    """A curve keeps the solver's columns; rows, vdac and i_total derive from them."""

    def test_rows_are_built_once_and_equal_solve_units(self):
        curve = transfer_curve(cfg4(TOPOLOGIES["four_inner"]))
        assert curve.rows is curve.rows
        network._last = None
        assert curve.rows == solve_units(curve.config, list(range(16)))

    def test_vdac_and_i_total_are_the_read_only_columns(self):
        cfg = cfg4(TOPOLOGIES["two"])
        curve = transfer_curve(cfg)
        vdac, i_total = curve.vdac, curve.i_total
        assert vdac is curve.columns["vdac"] and i_total is curve.columns["i_total"]
        assert vdac.dtype == np.float64 and i_total.dtype == np.float64
        for column in (vdac, i_total):
            with pytest.raises(ValueError, match="read-only"):
                column[:] = -1.0
        assert curve.vdac.tolist() == [r.vdac for r in curve.rows]
        assert curve.i_total.tolist() == [r.i_total for r in curve.rows]
        network._last = None
        assert curve == transfer_curve(cfg)

    def test_equality_and_hash(self):
        a = transfer_curve(cfg4())
        network._last = None
        b = transfer_curve(cfg4())
        assert a == b and hash(a) == hash(b)
        assert a != transfer_curve(cfg4(TOPOLOGIES["two"]))
        assert a != a.rows
        assert len({a, b}) == 1

    def test_pickle_and_deepcopy_rebuild_an_equal_read_only_curve(self):
        curve = transfer_curve(cfg4(TOPOLOGIES["four_inner"]))
        for other in (pickle.loads(pickle.dumps(curve)), copy.deepcopy(curve)):
            assert other == curve and other is not curve
            assert column_bytes(other.columns) == column_bytes(curve.columns)
            with pytest.raises(ValueError, match="read-only"):
                other.vdac[:] = 0.0

    def test_constructor_checks_columns(self):
        curve = transfer_curve(cfg4())
        columns = dict(curve.columns)
        network.TransferCurve(curve.config, columns)
        with pytest.raises(ValueError, match="code column"):
            network.TransferCurve(curve.config, {**columns, "code": np.arange(16)[::-1]})
        with pytest.raises(ValueError, match="columns must be"):
            network.TransferCurve(curve.config, {k: v for k, v in columns.items() if k != "vs"})
        # A 5-entry vdac once gave a 4-bit curve 5 rows, and its summary 4 DNL steps.
        wrong = {"vdac": columns["vdac"][:5], "i_total": np.append(columns["i_total"], 0.0),
                 "region_n": columns["region_n"][1:]}
        for name, column in wrong.items():
            with pytest.raises(ValueError, match=f"the {name} column has {len(column)} entries"):
                network.TransferCurve(curve.config, {**columns, name: column})

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_columns_are_read_only(self, name):
        curve = transfer_curve(cfg4(TOPOLOGIES[name]))
        want = column_bytes(curve.columns)
        for column in curve.columns.values():
            assert type(column) is np.ndarray and column.shape == (curve.config.d_max + 1,)
            with pytest.raises(ValueError, match="read-only"):
                column[:] = column[::-1]
        assert column_bytes(curve.columns) == want
        assert curve.rows == solve_units(curve.config, list(range(16)))
        network._last = None
        assert curve == transfer_curve(curve.config)

    @pytest.mark.parametrize("name", ["standalone", "two", "four_inner", "four_supply"])
    def test_what_a_solve_gives_is_read_only(self, name):
        cfg = DacConfig(8, VDD, MISMATCHED, TOPOLOGIES[name])
        counts = np.arange(cfg.d_max + 1)
        fresh = network._solve([cfg], counts)[1]
        served = network._solve([cfg], counts)[1]
        assert all(a is b for a, b in zip(served, fresh))  # the same arrays, not copies
        curve = transfer_curve(cfg)
        wave = synthesize(cfg, list(range(cfg.d_max + 1)), TimingParams(30e-9, 30e-9, 5e-9, 50e-9))
        with pytest.raises(TypeError, match="does not support item assignment"):
            curve.columns["vdac"] = np.zeros(cfg.d_max + 1)
        with pytest.raises(TypeError, match="does not support item deletion"):
            del curve.columns["vdac"]
        arrays = [*fresh, *curve.columns.values(), curve.vdac, curve.i_total, wave._levels]
        for x in arrays:
            with pytest.raises(ValueError, match="read-only"):
                x[:] = x[::-1]
        network._last = None
        assert curve == transfer_curve(cfg)
        assert wave._levels.tobytes() == curve.vdac.tobytes()  # a staircase solves 0..d_max

    def test_a_curve_leaves_the_arrays_it_is_given_writable(self):
        columns = {k: v.copy() for k, v in transfer_curve(cfg4()).columns.items()}
        curve = network.TransferCurve(cfg4(), columns)
        with pytest.raises(ValueError, match="read-only"):
            curve.columns["vdac"][:] = 0.0
        columns["vdac"][:] = 0.0
        assert not columns["vdac"].any()

    @pytest.mark.parametrize("name", ["standalone", "two", "rsn0_inner", "rsn0_supply"])
    def test_a_rail_without_a_series_resistor_is_a_lane_array(self, name):
        cfg = cfg4(TOPOLOGIES[name])
        columns = transfer_curve(cfg).columns
        assert columns["vs"].tolist() == [0.0] * 16
        if name in ("standalone", "two"):
            assert columns["vd"].tolist() == [VDD] * 16
        assert [row.vs for row in solve_units(cfg, [0, 15])] == [0.0, 0.0]

    def test_a_curve_of_list_columns_equals_the_curve_of_arrays(self):
        curve = transfer_curve(cfg4(TOPOLOGIES["four_inner"]))
        lists = network.TransferCurve(curve.config, {k: v.tolist() for k, v in curve.columns.items()})
        assert lists == curve and lists.rows == curve.rows
        for column in lists.columns.values():
            with pytest.raises(ValueError, match="read-only"):
                column[:] = column[::-1]
        with pytest.raises(ValueError, match="the vd column has 1 entries, not d_max"):
            network.TransferCurve(curve.config, {**curve.columns, "vd": VDD})


class TestColumnReaders:
    """Every reader of a curve gives exactly what its row-by-row reference gives."""

    # 8 bits put codes of the supply-attached configs on the window's edges; 12 bits is the
    # size of the benchmark's curves.
    @pytest.mark.parametrize(
        "n_bits, topology",
        [pytest.param(8, topology, id=name) for name, topology in TOPOLOGIES.items()]
        + [pytest.param(12, TOPOLOGIES["rsn0_inner"], id="rsn0_inner-12bit")],
    )
    @pytest.mark.parametrize("devices", [PAIR, MISMATCHED], ids=["matched", "mismatched"])
    def test_transfer_csv_and_window_flags(self, n_bits, topology, devices):
        cfg = DacConfig(n_bits=n_bits, vdd=VDD, devices=devices, topology=topology)
        curve = transfer_curve(cfg)
        assert transfer_csv(curve) == per_row_transfer_csv(curve)
        network._last = None  # the check solves the curve again
        assert check_saturation_window(cfg) == per_row_saturation_flags(curve)

    def test_window_flags_are_python_bools_on_both_sides_of_the_window(self):
        cfg = DacConfig(n_bits=5, vdd=VDD, devices=MISMATCHED, topology=TOPOLOGIES["rsn0_inner"])
        flags = check_saturation_window(cfg)
        assert all(type(f) is bool for f in flags)
        assert True in flags and False in flags

    def test_summary_tuples_are_python_floats(self):
        report = summary(transfer_curve(cfg4()))
        assert all(type(x) is float for x in report.dnl + report.inl)


CUT, TRI, SAT = OperatingRegion.CUTOFF, OperatingRegion.TRIODE, OperatingRegion.SATURATION


class TestRegions:
    """The region columns are the region rule, applied row by row."""

    @pytest.mark.parametrize("n_bits", [4, 10])
    @pytest.mark.parametrize("devices", DIGEST_DEVICES)
    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_every_curve_s_regions_are_the_per_row_rule(self, name, devices, n_bits):
        cfg = DacConfig(n_bits, VDD, DIGEST_DEVICES[devices], TOPOLOGIES[name])
        curve = transfer_curve(cfg)
        want = [per_row_regions(cfg, row) for row in curve.rows]
        assert list(zip(curve.columns["region_p"].tolist(), curve.columns["region_n"].tolist())) == want

    # (count, vdac, vd, vs, region_p, region_n) at vth = 1 V and d_max = 15, each voltage exact.
    EDGES = [
        (5, 1.0, 3.0, 0.0, SAT, TRI),  # pull-up vds = vgs - vth: the boundary is saturation
        (5, 2.0, 3.0, 0.0, TRI, SAT),  # pull-down vds = vgs - vth
        (5, 1.5, 3.0, 0.0, TRI, TRI),
        (5, 1.5, 2.0, 1.0, SAT, SAT),  # vgs = vth: not cut off, and vds >= 0 = vgs - vth
        (5, 2.5, 2.0, 1.0, SAT, SAT),  # vgs = vth with the pull-ups' vds < 0, taken as 0
        (5, 1.5, 1.875, 1.0, CUT, CUT),  # vgs < vth
        (5, 1.5, 1.0, 2.0, CUT, CUT),  # vgs < 0
        (0, 1.5, 3.0, 0.0, CUT, TRI),  # code 0: no pull-ups are active
        (15, 1.5, 3.0, 0.0, TRI, CUT),  # code d_max: no pull-downs are active
    ]

    @pytest.mark.parametrize(
        "pmos, want",
        [(MosfetParams(1.0, 0.01), [(p, n) for *_, p, n in EDGES]),
         (LinearSwitch(0.02), [(CUT if count == 0 else TRI, n) for count, *_, n in EDGES])],
        ids=["mosfet", "switch"],
    )
    def test_columns_at_chosen_voltages(self, pmos, want):
        cfg = DacConfig(4, 3.0, DevicePair(pmos, MosfetParams(1.0, 0.01)), Network())
        count, vdac, vd, vs = (np.array(c) for c in list(zip(*self.EDGES))[:4])
        columns = network._Lanes([cfg], count).columns(vdac, vd, vs)
        got = list(zip(columns["region_p"].tolist(), columns["region_n"].tolist()))
        assert got == want
        assert got == [per_row_regions(cfg, row) for row in network._rows(columns)]


def column_bytes(columns) -> list:
    """Every column's bytes; the region columns, object arrays, as their members."""
    return [c.tolist() if c.dtype == object else c.tobytes() for c in columns.values()]


@pytest.fixture
def solves(monkeypatch) -> list:
    """Records each _Lanes.solve call, warm-start grids included."""
    calls, real = [], network._Lanes.solve

    def counted(self, start=None):
        calls.append(len(self.counts))
        return real(self, start)

    monkeypatch.setattr(network._Lanes, "solve", counted)
    return calls


class TestLastSolve:
    """_solve serves a batch equal to the last one it solved (equal configs, equal counts) that
    solve's read-only arrays."""

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_a_repeated_batch_is_bit_for_bit_a_fresh_solve(self, name, solves):
        cfg = DacConfig(8, VDD, MISMATCHED, TOPOLOGIES[name])  # four-resistor ones warm-start
        transfer_curve(cfg)
        made = len(solves)
        again = column_bytes(transfer_curve(cfg).columns)
        assert len(solves) == made
        network._last = None
        assert again == column_bytes(transfer_curve(cfg).columns)
        assert len(solves) == 2 * made

    @pytest.mark.parametrize("name", ["two", "four_supply"])
    def test_writing_into_what_a_solve_gave_changes_no_later_one(self, name, solves):
        cfg = DacConfig(8, VDD, MISMATCHED, TOPOLOGIES[name])
        counts = np.arange(cfg.d_max + 1)
        [columns] = network._solve_lanes([cfg], counts)
        want = column_bytes(columns)
        network._last = None
        _, solved = network._solve([cfg], counts)
        counts[:] = 0
        made = len(solves)
        served = transfer_curve(cfg).columns
        for x in [*solved, *served.values()]:  # the solve's arrays and a curve's refuse writes
            with pytest.raises(ValueError, match="read-only"):
                x[:] = 0
        assert column_bytes(served) == want
        assert column_bytes(transfer_curve(cfg).columns) == want
        assert len(solves) == made

    def test_one_batch_is_kept(self, solves):
        a, b = cfg4(), cfg4(TOPOLOGIES["two"])
        for config in (a, a, b, a, a):
            transfer_curve(config)
        assert len(solves) == 3
        solve_units(a, 3)
        solve_units(a, [3])
        solve_units(a, [3, 3])
        assert len(solves) == 5

    def test_a_config_that_differs_only_in_encoding_is_another_batch(self, solves):
        binary = cfg4(TOPOLOGIES["four_inner"])
        thermometer = replace(binary, encoding=Encoding.THERMOMETER)
        transfer_curve(binary)
        transfer_curve(thermometer)
        assert len(solves) == 2

    @pytest.mark.parametrize("attach", list(ParallelAttach), ids=lambda a: a.value)
    def test_rsn_of_either_zero_sign_solves_to_the_same_bytes(self, attach, solves):
        # The configs compare equal, so one may be served the other's solve.
        zero, negative = (DacConfig(8, VDD, MISMATCHED, Network(10.0, rsn, 5.0, 7.0, attach))
                          for rsn in (0.0, -0.0))
        assert zero == negative
        want = column_bytes(transfer_curve(zero).columns)
        network._last = None
        assert column_bytes(transfer_curve(negative).columns) == want
        made = len(solves)
        assert column_bytes(transfer_curve(zero).columns) == want
        assert len(solves) == made

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_an_int_vdd_solves_to_the_bytes_of_its_float(self, name):
        # Equal configs, so one may be served the other's solve; an int once truncated the
        # rails of a supply-rail batch with rsn > 0 to whole volts.
        pair = calibrated_pair(3.0, 1.0, 40.0)
        as_int, as_float = (DacConfig(8, vdd, pair, TOPOLOGIES[name]) for vdd in (3, 3.0))
        assert as_int == as_float and type(as_int.vdd) is float
        want = column_bytes(transfer_curve(as_float).columns)
        network._last = None
        assert column_bytes(transfer_curve(as_int).columns) == want

    @pytest.mark.parametrize("attach", list(ParallelAttach), ids=lambda a: a.value)
    def test_the_saturation_check_after_the_curve_solves_nothing(self, attach, solves):
        cfg = DacConfig(8, VDD, MISMATCHED, replace(TOPOLOGIES["four_inner"], parallel_attach=attach))
        curve = transfer_curve(cfg)
        made = len(solves)
        flags = check_saturation_window(replace(cfg, topology=replace(cfg.topology)))
        assert len(solves) == made
        assert flags == per_row_saturation_flags(curve)
