"""Pin-skew replay: glitch generation and detection."""

import hashlib
import re
from bisect import bisect_left
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gpiodac.network
from gpiodac.config import (
    MAX_BITS,
    DacConfig,
    Encoding,
    Network,
    ParallelAttach,
    TimingParams,
    calibrated_pair,
)
from gpiodac.network import WARM_STRIDE, _solve_lanes, solve_units, transfer_curve
from gpiodac.transient import (
    _MULTIPLIER,
    Waveform,
    _drawn_staggers,
    _pin_events,
    _powers,
    detect_glitches,
    staircase_codes,
    synthesize,
)
from oracles import (
    lcg_sum,
    per_draw_staggers,
    per_pin_states,
    per_pin_synthesize,
    per_sample_detect_glitches,
    transition_counts,
)

VDD = 3.3
PAIR = calibrated_pair(VDD, 1.15, 40.0)
TIMING = TimingParams(t_rise=30e-9, t_fall=30e-9, skew_max=5e-9, sample_period=50e-9)


def config(encoding: Encoding) -> DacConfig:
    return DacConfig(n_bits=4, vdd=VDD, devices=PAIR, encoding=encoding)


def pin_events(encoding: Encoding, old: int, new: int) -> tuple[list[int], list[int]]:
    """(pins in event order, unit counts) of one transition of ``_pin_events``.

    A skew of d_max staggers pin j by exactly j seconds, so each event time is its pin.
    """
    cfg = config(encoding)
    times, counts = _pin_events(cfg, np.array([old, new]), np.zeros(2), float(cfg.d_max), None)
    assert times[0] == 0.0 and all(t.is_integer() for t in times.tolist())
    return [int(t) for t in times[1:]], counts.tolist()


class TestPinEvents:
    def test_binary_weighting(self):
        # code 0b1010 asserts the bit-1 pair and the bit-3 group of eight
        pins, counts = pin_events(Encoding.BINARY, 0, 0b1010)
        assert pins == [1, 2, *range(7, 15)]
        assert counts == list(range(11))

    def test_thermometer_prefix(self):
        assert pin_events(Encoding.THERMOMETER, 0, 5) == ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5])
        assert pin_events(Encoding.THERMOMETER, 5, 2) == ([2, 3, 4], [5, 4, 3, 2])

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_changed_pins_are_the_pins_whose_state_differs(self, encoding):
        for old in range(16):
            for new in range(16):
                was, now = per_pin_states(old, 4, encoding), per_pin_states(new, 4, encoding)
                pins, counts = pin_events(encoding, old, new)
                assert pins == [j for j in range(15) if was[j] != now[j]], (old, new)
                assert counts == [old, *transition_counts(was, now, order=pins)], (old, new)
                assert counts[-1] == new


class TestSynthesize:
    def test_thermometer_staircase_is_monotone_within_each_step(self):
        wave = synthesize(config(Encoding.THERMOMETER), staircase_codes(4), TIMING)
        diffs = np.diff(wave.values)
        assert np.all(diffs >= -1e-9)  # rising staircase never undershoots

    @pytest.mark.parametrize("n_bits", [0, -1, MAX_BITS + 1])
    def test_staircase_of_a_width_outside_1_to_max_bits_is_refused_naming_it(self, n_bits):
        # Each is refused before a list is built (MAX_BITS + 1 would hold 2^17 codes).
        with pytest.raises(ValueError) as info:
            staircase_codes(n_bits)
        assert str(info.value) == f"n_bits must be in 1..{MAX_BITS}, got {n_bits}"

    @pytest.mark.parametrize("n_bits", [True, 4.0, np.float64(4.0), "4", None])
    def test_staircase_of_a_width_that_is_not_an_integer_is_refused_naming_it(self, n_bits):
        with pytest.raises(ValueError) as info:
            staircase_codes(n_bits)
        assert str(info.value) == f"n_bits must be an integer, got {n_bits!r}"

    def test_binary_major_carry_dips_through_zero_state(self):
        # the low-indexed (LSB) pins fall before the bit-3 group rises, so the
        # asserted count passes through zero exactly as the ordering oracle says
        old = per_pin_states(7, 4, Encoding.BINARY)
        new = per_pin_states(8, 4, Encoding.BINARY)
        counts = transition_counts(old, new, order=range(15))
        assert min(counts) == 0
        wave = synthesize(config(Encoding.BINARY), [7, 8], TIMING)
        assert min(wave.values) == pytest.approx(0.0, abs=1e-9)

    def test_zero_skew_has_no_intermediate_states(self):
        timing = TimingParams(30e-9, 30e-9, 0.0, 50e-9)
        wave = synthesize(config(Encoding.BINARY), [7, 8], timing)
        assert len(wave.values) == 2  # settled 7, settled 8, nothing between

    def test_zero_skew_binary_equals_thermometer_at_settled_instants(self):
        timing = TimingParams(30e-9, 30e-9, 0.0, 50e-9)
        codes = staircase_codes(4)
        wb = synthesize(config(Encoding.BINARY), codes, timing)
        wt = synthesize(config(Encoding.THERMOMETER), codes, timing)
        assert wb.times == wt.times
        assert wb.values == pytest.approx(wt.values, abs=1e-12)

    def test_settled_levels_match_static_solver(self):
        wave = synthesize(config(Encoding.BINARY), [3, 12], TIMING)
        assert wave.values[0] == pytest.approx(solve_units(config(Encoding.BINARY), 3).vdac)
        assert wave.values[-1] == pytest.approx(solve_units(config(Encoding.BINARY), 12).vdac)

    @pytest.mark.parametrize("encoding", list(Encoding))
    @pytest.mark.parametrize("skew_mode", ["deterministic", "random"])
    def test_settled_levels_equal_transfer_curve_exactly(self, encoding, skew_mode):
        cfg = config(encoding)
        codes = staircase_codes(4) + [7, 8, 3, 12, 0, 15, 9]
        wave = synthesize(cfg, codes, TIMING, skew_mode=skew_mode, seed=3)
        gpiodac.network._last = None  # the curve solves its codes again
        levels = transfer_curve(cfg).vdac
        for step, code in enumerate(codes):
            end = bisect_left(wave.times, (step + 1) * TIMING.sample_period)
            assert wave.values[end - 1] == levels[code], (step, code)

    def test_times_strictly_ascending_and_bounded(self):
        wave = synthesize(config(Encoding.BINARY), staircase_codes(4), TIMING)
        assert all(b > a for a, b in zip(wave.times, wave.times[1:]))
        assert all(-1e-9 <= v <= VDD + 1e-9 for v in wave.values)

    def test_repeated_code_is_a_no_op(self):
        wave = synthesize(config(Encoding.BINARY), [5, 5, 5], TIMING)
        assert len(wave.values) == 1

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_non_integer_code_is_rejected(self, encoding):
        with pytest.raises(ValueError, match="code 2.5 is not an integer"):
            synthesize(config(encoding), [0, 2.5], TIMING)
        with pytest.raises(ValueError, match="code 4.0 is not an integer"):
            synthesize(config(encoding), [4.0, 2], TIMING)

    # A 2x2 list is not four codes, and a ragged one is refused naming the input, not with
    # numpy's "inhomogeneous shape" message.
    @pytest.mark.parametrize("codes", [[[1, 2], [7, 8]], [[1, 2], [3]]], ids=["nested", "ragged"])
    def test_nested_codes_are_refused_naming_the_input(self, codes):
        with pytest.raises(ValueError, match=r"^code must be an integer or a flat sequence"):
            synthesize(config(Encoding.BINARY), codes, TIMING)

    @pytest.mark.parametrize("codes, bad", [([1, 2**64], 2**64), ([2**70, 1], 2**70), ([-(2**70)], -(2**70))])
    def test_a_code_beyond_int64_is_out_of_range(self, codes, bad):
        with pytest.raises(ValueError, match=rf"^code {bad} out of range 0\.\.15$"):
            synthesize(config(Encoding.BINARY), codes, TIMING)

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_numpy_integer_codes_replay_like_python_ints(self, encoding):
        codes = [7, 8, 3, 12]
        want = synthesize(config(encoding), codes, TIMING)
        for same in (np.array(codes), [np.uint8(c) for c in codes], [np.uint64(c) for c in codes]):
            gpiodac.network._last = None
            assert synthesize(config(encoding), same, TIMING) == want

    @pytest.mark.parametrize("skew_mode", ["deterministic", "random"])
    def test_times_are_python_floats(self, skew_mode):
        wave = synthesize(config(Encoding.BINARY), staircase_codes(4), TIMING, skew_mode, seed=5)
        assert all(type(t) is float for t in wave.times)
        assert all(type(v) is float for v in wave.values)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize(config(Encoding.BINARY), [], TIMING)
        with pytest.raises(ValueError):
            synthesize(config(Encoding.BINARY), [99], TIMING)
        with pytest.raises(ValueError):
            TimingParams(60e-9, 30e-9, 5e-9, 50e-9)  # rise slower than a sample
        with pytest.raises(ValueError):
            synthesize(config(Encoding.BINARY), [1], TIMING, skew_mode="bogus")
        wave = synthesize(config(Encoding.BINARY), [7, 8], TIMING)
        for band in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="band must be >= 0"):
                detect_glitches(wave, band)

    def test_random_skew_needs_a_seed(self):
        # An unseeded PCG64 seeds from OS entropy, so no two replays would agree.
        with pytest.raises(ValueError, match="random skew mode needs a seed"):
            synthesize(config(Encoding.BINARY), [7, 8], TIMING, "random")
        seeded = synthesize(config(Encoding.BINARY), [7, 8], TIMING, "random", 0)
        gpiodac.network._last = None
        assert synthesize(config(Encoding.BINARY), [7, 8], TIMING, "random", 0) == seeded

    @pytest.mark.parametrize("skew_mode", ["deterministic", "random"])
    @pytest.mark.parametrize("seed", [7.0, 7.5, "7", True, False, np.True_, [1, 2], (7,),
                                      np.array(7), -1, np.int64(-1)])
    def test_a_seed_that_is_not_a_non_negative_integer_is_refused_naming_it(self, skew_mode, seed):
        # numpy seeds PCG64 from True and from sequences, and raises a TypeError for 7.0 or "7".
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got "):
            synthesize(config(Encoding.BINARY), [7, 8], TIMING, skew_mode, seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint8(7), np.uint64(2**64 - 1), 2**200])
    def test_python_and_numpy_integer_seeds_of_any_size_are_the_per_pin_loop(self, seed):
        cfg = config(Encoding.BINARY)
        want = per_pin_synthesize(cfg, [7, 8, 3], TIMING, "random", int(seed))
        assert synthesize(cfg, [7, 8, 3], TIMING, "random", seed) == want

    @pytest.mark.parametrize("field", ["t_rise", "t_fall", "skew_max", "sample_period"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9])
    def test_timing_rejects_non_finite_and_negative_values(self, field, value):
        args = {"t_rise": 30e-9, "t_fall": 30e-9, "skew_max": 5e-9, "sample_period": 50e-9}
        with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0"):
            TimingParams(**{**args, field: value})

    def test_waveform_rejects_nan_times(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            Waveform((0.0, float("nan"), 2.0), (0.0, 1.0, 2.0), (), 1.0, VDD)
        with pytest.raises(ValueError, match="strictly ascending"):
            Waveform((float("nan"), 1.0), (0.0, 1.0), (), 1.0, VDD)

    def test_waveform_rejects_repeated_and_falling_times(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            Waveform((0.0, 1.0, 1.0), (0.0, 1.0, 2.0), (), 1.0, VDD)
        with pytest.raises(ValueError, match="strictly ascending"):
            Waveform((0.0, 2.0, 1.0), (0.0, 1.0, 2.0), (), 1.0, VDD)

    @pytest.mark.parametrize("code", [7.9, 8.0, True, np.True_, "7", None])
    def test_waveform_rejects_an_annotation_code_that_is_not_an_integer(self, code):
        # 7.9 was once kept as 7 and True as 1, making a waveform equal to one built with ints.
        message = f"annotation code {re.escape(repr(code))} is not an integer"
        for marks in (((0.0, code),), ((0.0, 0), (1.0, code))):
            with pytest.raises(ValueError, match=message):
                Waveform((0.0, 1.0), (0.0, 1.0), marks, 1.0, VDD)
        for good in (7, np.int64(7), np.uint8(7)):
            wave = Waveform((0.0, 1.0), (0.0, 1.0), ((0.0, 0), (1.0, good)), 1.0, VDD)
            assert wave.annotations[1] == (1.0, 7)

    @pytest.mark.parametrize("code", [2**63, 2**70, -(2**63) - 1, np.uint64(2**64 - 1)])
    def test_waveform_rejects_an_annotation_code_beyond_int64(self, code):
        # 2**70 once raised OverflowError from the int64 conversion.
        with pytest.raises(ValueError, match=rf"^annotation code {code} out of range "):
            Waveform((0.0, 1.0), (0.0, 1.0), ((0.0, 0), (1.0, code)), 1.0, VDD)
        extremes = ((0.0, -(2**63)), (1.0, 2**63 - 1))
        assert Waveform((0.0, 1.0), (0.0, 1.0), extremes, 1.0, VDD).annotations == extremes

    def test_waveform_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            Waveform((0.0, 1.0), (0.0,), (), 1.0, VDD)


class TestWaveformContract:
    """A waveform is kept as arrays; what it shows is a frozen dataclass of tuples."""

    @pytest.mark.parametrize("skew_mode", ["deterministic", "random"])
    def test_tuples_hold_python_floats_and_ints(self, skew_mode):
        wave = synthesize(config(Encoding.BINARY), staircase_codes(4), TIMING, skew_mode, seed=5)
        for field in (wave.times, wave.values, wave.annotations):
            assert type(field) is tuple
        assert all(type(t) is float for t in wave.times)
        assert all(type(v) is float for v in wave.values)
        assert all(type(t) is float and type(c) is int for t, c in wave.annotations)
        assert wave.annotations == tuple((k * TIMING.sample_period, k) for k in range(16))
        assert type(wave.lsb_ref) is float
        assert wave.times is wave.times  # built once, then kept

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_waveform_of_sequences_equals_and_hashes_like_the_replay(self, encoding):
        wave = synthesize(config(encoding), staircase_codes(4) + [7, 8], TIMING)
        fields = (wave.times, wave.values, wave.annotations, wave.lsb_ref, wave.vdd)
        as_lists = (*map(list, fields[:3]), wave.lsb_ref, wave.vdd)
        for built in (Waveform(*fields), Waveform(*as_lists)):
            assert built == wave and wave == built
            assert hash(built) == hash(wave)
            assert (built.times, built.values, built.annotations) == fields[:3]
        other = Waveform(wave.times, wave.values, wave.annotations, wave.lsb_ref / 2, wave.vdd)
        assert other != wave
        assert wave != fields and wave.__eq__(fields) is NotImplemented
        assert len({wave, Waveform(*fields)}) == 1

    def test_assignment_and_deletion_are_refused(self):
        wave = synthesize(config(Encoding.BINARY), [7, 8], TIMING)
        for name in ("times", "values", "annotations", "lsb_ref", "vdd", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(wave, name, ())
        for name in ("times", "lsb_ref"):
            with pytest.raises(FrozenInstanceError):
                delattr(wave, name)
        gpiodac.network._last = None
        assert wave == synthesize(config(Encoding.BINARY), [7, 8], TIMING)

    @pytest.mark.parametrize("skew_mode", ["deterministic", "random"])
    def test_11_bit_values_share_one_float_per_level(self, skew_mode):
        # A binary staircase passes through each level many times.
        cfg = DacConfig(11, VDD, PAIR)
        wave = synthesize(cfg, staircase_codes(11), TIMING, skew_mode, seed=1)
        assert len(wave.values) > 5 * (cfg.d_max + 1)
        assert len({id(v) for v in wave.values}) <= cfg.d_max + 1

    @pytest.mark.parametrize("skew_mode", ["deterministic", "random"])
    def test_glitch_times_are_the_waveform_floats(self, skew_mode):
        wave = synthesize(DacConfig(11, VDD, PAIR), staircase_codes(11), TIMING, skew_mode, seed=1)
        glitches = detect_glitches(wave, 0.5)
        assert glitches
        own = {id(t) for t in wave.times}
        assert all(id(t) in own for t, _ in glitches)


class TestReplayLevels:
    @pytest.mark.parametrize(
        "topology",
        [None, *(Network(10.0, 2.0, 5.0, 7.0, attach) for attach in ParallelAttach)],
        ids=["standalone", *(f"four_{attach.value}" for attach in ParallelAttach)],
    )
    @pytest.mark.parametrize("skew_mode", ["deterministic", "random"])
    def test_levels_are_the_static_solve_bit_for_bit(self, monkeypatch, topology, skew_mode):
        cfg = DacConfig(8, VDD, PAIR, **({"topology": topology} if topology else {}))
        warm_starts, real = [], gpiodac.network._warm_start

        def counted(*args):
            warm_starts.append(args)
            return real(*args)

        monkeypatch.setattr(gpiodac.network, "_warm_start", counted)
        # A staircase reaches every count, so the replay solves 0..d_max as one batch.
        wave = synthesize(cfg, staircase_codes(8), TIMING, skew_mode, seed=2)
        assert cfg.d_max + 1 > 2 * WARM_STRIDE
        assert len(warm_starts) == (topology is not None)
        gpiodac.network._last = None  # solve the batch again, not served from the replay's solve
        [columns] = _solve_lanes([cfg], np.arange(cfg.d_max + 1))
        vdac = columns["vdac"]
        assert len(warm_starts) == 2 * (topology is not None)
        assert wave._levels.tobytes() == vdac.tobytes()
        assert set(wave.values) == set(vdac.tolist())


class TestGlitchReport:
    """detect_glitches reports a list of (time, excursion) pairs, each time the waveform's float."""

    @pytest.mark.parametrize("skew_mode", ["deterministic", "random"])
    def test_11_bit_pairs_are_the_per_sample_list(self, skew_mode):
        wave = synthesize(DacConfig(11, VDD, PAIR), staircase_codes(11), TIMING, skew_mode, seed=1)
        glitches = detect_glitches(wave, 0.5)
        assert type(glitches) is list and len(glitches) > 10_000
        assert glitches == per_sample_detect_glitches(wave, 0.5)

    def test_one_reported_sample_is_a_one_pair_list(self):
        wave = Waveform((0.0, 1.0, 2.0), (0.0, 5.0, 1.0), ((0.0, 0), (0.5, 1)), 1.0, VDD)
        glitches = detect_glitches(wave, 0.0)
        assert glitches == [(1.0, 4.0)]
        assert glitches[0][0] is wave.times[1]

    def test_annotations_out_of_time_order_are_refused(self):
        # Out of time order a sample could be scanned, and reported, twice; such waveforms are
        # refused when built, as falling sample times are.
        times, values = (0.0, 1.0, 2.0, 3.0), (0.0, 5.0, -4.0, 1.0)
        with pytest.raises(ValueError, match="annotation times must be ascending"):
            Waveform(times, values, ((0.0, 0), (0.5, 1), (2.5, 2), (0.5, 3)), 1.0, VDD)
        for nan_first in (True, False):
            marks = ((float("nan"), 0), (0.5, 1)) if nan_first else ((0.0, 0), (float("nan"), 1))
            with pytest.raises(ValueError, match="annotation times must be ascending and not NaN"):
                Waveform(times, values, marks, 1.0, VDD)
        with pytest.raises(ValueError, match="annotation times must be ascending and not NaN"):
            Waveform(times, values, ((float("nan"), 0),), 1.0, VDD)
        # Repeated annotation times are in order: the earlier transition holds no sample.
        wave = Waveform(times, values, ((0.0, 0), (0.5, 1), (0.5, 2), (2.5, 3)), 1.0, VDD)
        glitches = detect_glitches(wave, 0.0)
        assert glitches == per_sample_detect_glitches(wave, 0.0)
        assert glitches == [(1.0, 5.0)] and glitches[0][0] is wave.times[1]


class TestDetectGlitches:
    def test_thermometer_staircase_is_clean(self):
        wave = synthesize(config(Encoding.THERMOMETER), staircase_codes(4), TIMING)
        assert detect_glitches(wave, band=0.0) == []

    def test_thermometer_clean_for_random_skews(self):
        cfg = config(Encoding.THERMOMETER)
        for seed in range(40):
            wave = synthesize(cfg, staircase_codes(4), TIMING, skew_mode="random", seed=seed)
            assert detect_glitches(wave, band=0.0) == []

    def test_binary_staircase_glitches_worst_at_major_carry(self):
        wave = synthesize(config(Encoding.BINARY), staircase_codes(4), TIMING)
        glitches = detect_glitches(wave, band=0.0)
        assert glitches
        t_worst, magnitude = max(glitches, key=lambda g: g[1])
        # the 7 -> 8 transition happens at sample 8
        assert 8 * TIMING.sample_period <= t_worst < 9 * TIMING.sample_period
        assert magnitude > 1.0

    def test_major_carry_excursion_exceeds_one_lsb(self):
        wave = synthesize(config(Encoding.BINARY), [7, 8], TIMING)
        glitches = detect_glitches(wave, band=1.0)
        assert glitches
        assert max(m for _, m in glitches) > 1.0

    def test_zero_skew_produces_none(self):
        timing = TimingParams(30e-9, 30e-9, 0.0, 50e-9)
        wave = synthesize(config(Encoding.BINARY), staircase_codes(4), timing)
        assert detect_glitches(wave, band=0.0) == []

    def test_infinite_band_reports_nothing(self):
        wave = synthesize(config(Encoding.BINARY), staircase_codes(4), TIMING)
        assert detect_glitches(wave, band=float("inf")) == []

    def test_magnitude_non_decreasing_in_skew(self):
        cfg = config(Encoding.BINARY)

        def worst(skew):
            timing = TimingParams(30e-9, 30e-9, skew, 50e-9)
            wave = synthesize(cfg, [7, 8], timing)
            glitches = detect_glitches(wave, band=0.0)
            return max((m for _, m in glitches), default=0.0)

        magnitudes = [worst(s) for s in (0.0, 1e-9, 2e-9, 5e-9)]
        assert all(b >= a - 1e-12 for a, b in zip(magnitudes, magnitudes[1:]))
        assert magnitudes[0] == 0.0 and magnitudes[-1] > 1.0


@st.composite
def replays(draw):
    """A small config, a code list with repeats, a skew mode and a skew_max."""
    n_bits = draw(st.integers(1, 7))
    cfg = DacConfig(n_bits, VDD, PAIR, encoding=draw(st.sampled_from(list(Encoding))))
    runs = draw(st.lists(st.tuples(st.integers(0, cfg.d_max), st.integers(1, 3)), min_size=1, max_size=40))
    codes = [code for code, repeat in runs for _ in range(repeat)][:40]
    period = 50e-9
    # 0 makes every edge of a transition simultaneous; the last is the widest legal skew.
    skew = draw(st.sampled_from([0.0, 1e-9, 5e-9, float(np.nextafter(period, 0.0))]))
    timing = TimingParams(30e-9, 30e-9, skew, period)
    mode = draw(st.sampled_from(["deterministic", "random"]))
    return cfg, codes, timing, mode, draw(st.integers(0, 2**31))


class TestPerPinReference:
    @settings(max_examples=50)
    @given(case=replays())
    def test_replay_is_bitwise_the_per_pin_loop(self, case):
        cfg, codes, timing, mode, seed = case
        want = per_pin_synthesize(cfg, codes, timing, mode, seed)
        got = synthesize(cfg, codes, timing, mode, seed)
        assert got.times == want.times
        assert got.values == want.values
        assert got.annotations == want.annotations
        assert got.lsb_ref == want.lsb_ref

    @pytest.mark.parametrize("encoding", list(Encoding))
    @pytest.mark.parametrize("skew_mode", ["deterministic", "random"])
    def test_staircase_with_repeats_is_bitwise_the_per_pin_loop(self, encoding, skew_mode):
        cfg = DacConfig(6, VDD, PAIR, encoding=encoding)
        codes = staircase_codes(6) * 2 + [31, 32, 32, 0, 63, 63]
        want = per_pin_synthesize(cfg, codes, TIMING, skew_mode, 11)
        assert synthesize(cfg, codes, TIMING, skew_mode, 11) == want

    @pytest.mark.parametrize("encoding", list(Encoding))
    @pytest.mark.parametrize("skew_mode", ["deterministic", "random"])
    def test_random_9_bit_sequence_is_bitwise_the_per_pin_loop(self, encoding, skew_mode):
        cfg = DacConfig(9, VDD, PAIR, encoding=encoding)
        codes = np.random.default_rng(9).integers(0, cfg.d_max + 1, size=200).tolist()
        want = per_pin_synthesize(cfg, codes, TIMING, skew_mode, 23)
        assert synthesize(cfg, codes, TIMING, skew_mode, 23) == want

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_idle_steps_still_consume_their_draws(self, encoding):
        # Repeated codes move no pin, yet each takes its d_max doubles of the
        # stream, so the staggers of the 9 -> 2 step come from the fifth block.
        cfg = DacConfig(4, VDD, PAIR, encoding=encoding)
        codes = [5, 5, 5, 9, 9, 2]
        want = per_pin_synthesize(cfg, codes, TIMING, "random", 4)
        assert synthesize(cfg, codes, TIMING, "random", 4) == want

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_random_mode_with_zero_skew_is_bitwise_the_per_pin_loop(self, encoding):
        cfg = DacConfig(5, VDD, PAIR, encoding=encoding)
        timing = TimingParams(30e-9, 30e-9, 0.0, 50e-9)
        codes = staircase_codes(5) + [31, 0, 16, 15, 15]
        want = per_pin_synthesize(cfg, codes, timing, "random", 2)
        got = synthesize(cfg, codes, timing, "random", 2)
        assert got == want
        # every edge of a step lands at once: one sample per code change
        assert len(got.times) == 1 + sum(a != b for a, b in zip(codes, codes[1:]))

    @pytest.mark.parametrize("encoding", list(Encoding))
    @pytest.mark.parametrize("codes", [[9], [9, 9, 9]])
    def test_random_replay_without_events_is_the_per_pin_loop(self, encoding, codes):
        cfg = DacConfig(4, VDD, PAIR, encoding=encoding)
        want = per_pin_synthesize(cfg, codes, TIMING, "random", 6)
        got = synthesize(cfg, codes, TIMING, "random", 6)
        assert got == want
        assert got.times == (0.0,)

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_16_bit_full_swings_and_major_carry_are_the_per_pin_loop(self, encoding):
        cfg = DacConfig(16, VDD, PAIR, encoding=encoding)
        codes = [0, 65535, 32767, 32768, 32768, 0]
        want = per_pin_synthesize(cfg, codes, TIMING, "random", 2**63)
        assert synthesize(cfg, codes, TIMING, "random", 2**63) == want


class TestStaggerStream:
    """The seeded stream contract behind synthesize's random skew mode.

    Step s of a replay owns d_max uniform draws of the PCG64 stream that
    default_rng(seed) gives, one per pin, and pin j of step s takes draw
    (s - 1) * d_max + j. synthesize computes each draw it needs from the
    seeded 128-bit state by LCG jump-ahead instead of drawing; the reference
    per_draw_staggers skips to each draw with bit_generator.advance() and
    takes it with uniform(). Both must give numpy's doubles bit for bit.
    """

    @pytest.mark.parametrize("seed", [0, 1, 11, 2**31 - 1])
    @pytest.mark.parametrize("d_max, lo, hi", [
        (1, 0, 1), (1, 0, 0), (1, 1, 1), (15, 0, 15), (15, 3, 9), (15, 7, 7),
        (15, 0, 0), (15, 15, 15), (1023, 511, 1023), (1023, 1023, 1023),
    ])
    def test_advance_then_span_draw_is_the_full_draw(self, seed, d_max, lo, hi):
        broke = "numpy's PCG64 stream no longer skips uniform draws with advance(); " \
                "the per_draw_staggers reference relies on it"
        full, part = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # two steps, so the second starts from an advanced state
            want = full.uniform(0.0, 5e-9, size=d_max)[lo:hi]
            part.bit_generator.advance(lo)
            got = part.uniform(0.0, 5e-9, size=hi - lo)
            part.bit_generator.advance(d_max - hi)
            assert got.tobytes() == want.tobytes(), broke
            assert part.bit_generator.state == full.bit_generator.state, broke

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**63])
    def test_jump_ahead_draws_are_the_advanced_draws_at_far_positions(self, seed):
        # 16-bit steps reach draw ~2^32; the pins run from a step's first draw to its last.
        d_max = 65535
        steps = [1, 2, 255, 256, 257, 4097, 65535, 65536]
        pins = [0, 1, 254, 255, 256, 511, 4095, 65279, 65534]
        step = np.repeat(steps, len(pins))
        pin = np.tile(pins, len(steps))
        got = _drawn_staggers(np.random.PCG64(seed).state["state"], step, pin, d_max, 5e-9)
        want = per_draw_staggers(seed, step, pin, d_max, 5e-9)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2**63])
    def test_synthesize_seeds_the_generator_default_rng_seeds(self, seed):
        # per_pin_synthesize draws from default_rng(seed); synthesize reads PCG64(seed).
        assert np.random.default_rng(seed).bit_generator.state == np.random.PCG64(seed).state


@pytest.fixture
def cold_tables():
    """An empty table cache before and after the test."""
    _powers.cache_clear()
    yield
    _powers.cache_clear()


def as_int(table: np.ndarray, row: int, k: int) -> int:
    """Row row's k-th entry of a _powers table as a 128-bit integer."""
    return int(table[0, row, k]) << 64 | int(table[1, row, k])


@pytest.mark.usefixtures("cold_tables")
class TestPowerTables:
    """The seed-free jump tables: A^(k stride) and S_(k stride), kept read-only in a small cache."""

    @pytest.mark.parametrize("stride", [1, 15, 2047, 65535])
    def test_rows_are_the_big_int_powers_and_sums(self, stride):
        table = _powers(stride, 65536)
        assert table.shape == (2, 2, 65536) and table.nbytes == 2 << 20
        for k in (0, 1, 255, 256, 65535):
            assert as_int(table, 0, k) == pow(_MULTIPLIER, k * stride, 1 << 128)
            assert as_int(table, 1, k) == lcg_sum(_MULTIPLIER, k * stride)

    @pytest.mark.parametrize("k", [0, 1, 255, 256, 65534])
    def test_the_sums_follow_their_recurrence(self, k):
        # S_(n+1) = A * S_n + 1, and F^stride takes row k to row k + 1.
        ones, wide = _powers(1, 65536), _powers(2047, 65536)
        assert as_int(ones, 1, k + 1) == (_MULTIPLIER * as_int(ones, 1, k) + 1) % (1 << 128)
        a, s = as_int(wide, 0, 1), as_int(wide, 1, 1)
        assert as_int(wide, 1, k + 1) == (a * as_int(wide, 1, k) + s) % (1 << 128)

    def test_a_write_into_a_cached_table_raises(self):
        table = _powers(15, 16)
        for view in (table, table[:, :, :4], table.swapaxes(0, 1)):
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0, 0] = 1
        assert as_int(_powers(15, 16), 0, 0) == 1

    def test_replays_of_any_seed_share_at_most_8_entries(self):
        assert _powers.cache_info().maxsize == 8
        cfg = DacConfig(11, VDD, PAIR)
        for seed in (1, 2, 2**63):
            synthesize(cfg, staircase_codes(11), TIMING, "random", seed)
        # one step table (stride d_max) and one pin table (stride 1), whatever the seed
        assert _powers.cache_info().currsize == 2 and _powers.cache_info().misses == 2

    @pytest.mark.parametrize("seed", [0, 3, 2**63])
    def test_cold_and_warm_tables_give_the_per_draw_reference(self, seed):
        # 2048 steps fill the 2048-row step table; 2049 steps need the 4096-row one.
        pcg, d_max, pins = np.random.PCG64(seed).state["state"], 2047, [0, 1, 255, 256, 2046]
        draws = {}
        for last in (2048, 2049, 2048):
            steps = [1, 2, 1024, last - 1, last]
            step, pin = np.repeat(steps, len(pins)), np.tile(pins, len(steps))
            got = _drawn_staggers(pcg, step, pin, d_max, 5e-9)
            assert got.tobytes() == draws.setdefault(last, got).tobytes()
            assert got.tobytes() == per_draw_staggers(seed, step, pin, d_max, 5e-9).tobytes()
        # the pin table and the 2048- and 4096-row step tables, each built once
        assert _powers.cache_info()[:4] == (3, 3, 8, 3)  # hits, misses, maxsize, currsize

    @pytest.mark.parametrize("seed", [0, 2**63])
    def test_cold_and_warm_tables_give_the_16_bit_far_draws(self, seed):
        d_max, steps = 65535, [1, 2, 255, 256, 257, 4097, 65535, 65536]
        pins = [0, 1, 254, 255, 256, 511, 4095, 65279, 65534]
        step, pin = np.repeat(steps, len(pins)), np.tile(pins, len(steps))
        pcg = np.random.PCG64(seed).state["state"]
        cold = _drawn_staggers(pcg, step, pin, d_max, 5e-9)
        warm = _drawn_staggers(pcg, step, pin, d_max, 5e-9)
        assert cold.tobytes() == warm.tobytes()
        assert cold.tobytes() == per_draw_staggers(seed, step, pin, d_max, 5e-9).tobytes()

    @pytest.mark.parametrize("n_codes, step_rows", [(2**16 + 1, 2**16), (2**16 + 2, 2**17)])
    def test_a_replay_caches_no_table_longer_than_2_to_the_max_bits(self, monkeypatch, n_codes,
                                                                    step_rows):
        # n_codes - 1 steps: 2^16 fill a 2^16-row step table, one more needs a 2^17-row one,
        # which each replay builds for itself and leaves uncached.
        built, real = [], gpiodac.transient._orbits
        monkeypatch.setattr(gpiodac.transient, "_orbits", lambda *a: built.append(a[2]) or real(*a))
        cfg, codes = DacConfig(1, VDD, PAIR), [0, 1] * (n_codes // 2) + [0] * (n_codes % 2)
        waves = [synthesize(cfg, codes, TIMING, "random", 7) for _ in range(2)]
        kept = step_rows <= 1 << MAX_BITS
        assert built == [step_rows, 2] + ([] if kept else [step_rows])  # the pin table has 2 rows
        assert _powers.cache_info().currsize == 1 + kept
        assert waves[0] == waves[1] == per_pin_synthesize(cfg, codes, TIMING, "random", 7)

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_replays_across_a_table_size_are_the_cold_replays(self, encoding):
        cfg = DacConfig(11, VDD, PAIR, encoding=encoding)
        short, long = staircase_codes(11) + [0], staircase_codes(11) + [0, 2047]  # 2048, 2049 steps
        warm = [synthesize(cfg, codes, TIMING, "random", 9) for codes in (short, long, short)]
        cold = []
        for codes in (short, long):
            _powers.cache_clear()
            cold.append(synthesize(cfg, codes, TIMING, "random", 9))
        assert warm == [cold[0], cold[1], cold[0]]


@st.composite
def scanned_waveforms(draw):
    """A random piecewise-constant waveform, annotations on and off its sample times, a band."""
    n = draw(st.integers(0, 30))
    steps = draw(st.lists(st.floats(1e-3, 2.0), min_size=n, max_size=n))
    times = tuple(np.cumsum(steps).tolist())
    # A NaN level compares false both ways, so it tells Python's min/max from np.minimum/maximum.
    level = st.one_of(st.floats(-5.0, 5.0), st.just(float("nan")))
    values = tuple(draw(st.lists(level, min_size=n, max_size=n)))
    marks = draw(st.lists(st.one_of(st.sampled_from(times) if times else st.nothing(),
                                    st.floats(-1.0, 62.0)), max_size=12))
    annotations = tuple((t, k) for k, t in enumerate(sorted(marks)))
    lsb_ref = draw(st.floats(1e-3, 3.0))
    band = draw(st.sampled_from([0.0, 0.5, float("inf")]))
    return Waveform(times, values, annotations, lsb_ref, VDD), band


class TestPerSampleReference:
    @settings(max_examples=200)
    @given(case=scanned_waveforms())
    def test_scan_is_the_per_sample_loop(self, case):
        wave, band = case
        got = detect_glitches(wave, band)
        assert got == per_sample_detect_glitches(wave, band)
        assert all(type(t) is float and type(d) is float for t, d in got)

    @pytest.mark.parametrize("band", [0.0, 0.5, float("inf")])
    @pytest.mark.parametrize("skew_mode", ["deterministic", "random"])
    def test_staircase_scan_is_the_per_sample_loop(self, band, skew_mode):
        wave = synthesize(DacConfig(7, VDD, PAIR), staircase_codes(7) * 2 + [64, 63, 63],
                          TIMING, skew_mode, seed=3)
        got = detect_glitches(wave, band)
        assert got == per_sample_detect_glitches(wave, band)
        assert bool(got) == (band < float("inf"))


WIDEST_SKEW = TimingParams(30e-9, 30e-9, float(np.nextafter(50e-9, 0.0)), 50e-9)


def replay_digest(wave: Waveform) -> str:
    """sha256 of a replay's arrays (sample times, level index, levels) and its glitch pairs."""
    parts = (wave._times, np.asarray(wave._index, np.int64), wave._levels,
             np.array(detect_glitches(wave, 0.5), np.float64))
    return hashlib.sha256(b"".join(part.tobytes() for part in parts)).hexdigest()


# encoding/skew mode/n_bits/skew_max, recorded before the replay stopped sorting: "random-N" seeds
# the stream with N; "5ns" is TIMING's skew_max, "widest" the largest one below the sample period.
REPLAY_DIGESTS = {
    "binary/deterministic/8/5ns": "0d33fcc66a867e0adb2a1b0c47f5d79b1862158d2b5cd7b0c20eb765515490f4",
    "binary/deterministic/8/widest": "d27b49376b2cbf60117100165a5baa97cbeafb5f9d79ec976766268e69385137",
    "binary/deterministic/11/5ns": "40e7595ad03a27941b3da35c2cd873be9737f227b641938f957b58148022390d",
    "binary/deterministic/11/widest": "96dd792bef264c998632f603e7fe47a80469aecac774429e8f1dac810c9787f5",
    "binary/random-7/8/5ns": "a52e95f3a42328114824289312e3037f877d3d0d7ac4ef7b91d96ac5a05c3b26",
    "binary/random-7/8/widest": "eae1055808a826484859f9c82590753fcb22bbc9af61d43da2ec5464b58f9020",
    "binary/random-7/11/5ns": "5946dde251bcdec819722a7ab8a45328f9cdce56412e5eb35dea33cc44d557f4",
    "binary/random-7/11/widest": "52e2dfaa45460ff6db7a0c1d940fd518590c01d1bb181641ce485493eb4a839d",
    "binary/random-2026/8/5ns": "4db8a5b02e07dad75caa937b288eba362eb67f4c9153106727689120568652be",
    "binary/random-2026/8/widest": "401ec8aa7d58b19b3410c87b7509998aaa09497840436b22901326ed1a8c241a",
    "binary/random-2026/11/5ns": "cb2c7a8eb066da81cf234f17fff5684e9d78ec191d7b2f0af709a039b2b546a9",
    "binary/random-2026/11/widest": "e802f03d1cbe39fc47ec86b6cc09f2e669b93a4953ed3a36a5f6321d3e3f000b",
    "thermometer/deterministic/8/5ns": "cf1fd8449c0fe1b575841a51656d20baa8bdef4ad27e79a54ca257f3e2045420",
    "thermometer/deterministic/8/widest": "3d0c6f4d4833c9df734cbaa050d8ba48f93ffb03ef4c6a9cd9ee8f4243dec71a",
    "thermometer/deterministic/11/5ns": "13df624176d289d8d2cc860fa51bea3c0bfd6689bf82ed3583df2b7f97b718ee",
    "thermometer/deterministic/11/widest": "fd679dd58a7e0f9ff176ff9578c9322bc1055e3a267fe9a9c4a3a63b8a80ae01",
    "thermometer/random-7/8/5ns": "6aff98f8a2bf9fb104a0c20e63bd48a86a32cd8a94268ba59391b8ed4ff803b8",
    "thermometer/random-7/8/widest": "26ff5753e21396f0078d18a0a22329d9d68cba3398976195f0aaf92c704395a3",
    "thermometer/random-7/11/5ns": "9df94788f8819a49fae4c53393db7a83f5d5f938aaeac2cbdedc0f48d92bc3c2",
    "thermometer/random-7/11/widest": "d4211f516550afedcaadf767a4c83e575321e4e05bf6236ce04b34c95f0dc2d6",
    "thermometer/random-2026/8/5ns": "b7a294172dddb27cc88a9f32f134d0c7cdeebfa41771dae9478aa62f16e07936",
    "thermometer/random-2026/8/widest": "d1bd80d376aaac3309b8d3e29227f503d50ca40b4d6c2db945505580b011a41e",
    "thermometer/random-2026/11/5ns": "fb339810d3c8453b3ea5238b703bb0949ccce262265739ddf2d84a69501ae449",
    "thermometer/random-2026/11/widest": "4ea1ca7debddebd175cb840fd4e881a0b06506e1f65b68b96d700a90fb0f7592",
}


class TestReplayDigests:
    """Staircase replays keep their arrays and glitch reports bit for bit."""

    @pytest.mark.parametrize("key", REPLAY_DIGESTS)
    def test_replay_is_bit_for_bit_the_pinned_one(self, key):
        encoding, mode, n_bits, skew = key.split("/")
        cfg = DacConfig(int(n_bits), VDD, PAIR, encoding=Encoding(encoding))
        skew_mode, _, seed = mode.partition("-")
        timing = WIDEST_SKEW if skew == "widest" else TIMING
        wave = synthesize(cfg, staircase_codes(int(n_bits)), timing, skew_mode,
                          int(seed) if seed else None)
        assert replay_digest(wave) == REPLAY_DIGESTS[key]


def solved_batches(monkeypatch) -> list:
    """Records the counts of each _solve call synthesize makes."""
    batches, real = [], gpiodac.transient._solve

    def recorded(configs, counts):
        batches.append(counts.tolist())
        return real(configs, counts)

    monkeypatch.setattr(gpiodac.transient, "_solve", recorded)
    return batches


class TestReplayWork:
    """A replay sorts only random staggers and solves only the span its counts walk."""

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_a_deterministic_replay_sorts_and_searches_nothing(self, monkeypatch, encoding):
        calls = []
        for name in ("argsort", "lexsort", "sort", "searchsorted"):
            real = getattr(np, name)
            monkeypatch.setattr(gpiodac.transient.np, name,
                                lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k))
        cfg = DacConfig(11, VDD, PAIR, encoding=encoding)
        synthesize(cfg, staircase_codes(11) + [1024, 1023, 0], TIMING)
        assert calls == []
        synthesize(cfg, staircase_codes(11), TIMING, "random", seed=4)
        assert calls == ["lexsort"]

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_a_second_random_replay_of_one_width_builds_no_table(self, monkeypatch, encoding):
        built, real = [], gpiodac.transient._orbits
        monkeypatch.setattr(gpiodac.transient, "_orbits", lambda *a: built.append(a[2]) or real(*a))
        _powers.cache_clear()
        cfg = DacConfig(11, VDD, PAIR, encoding=encoding)
        synthesize(cfg, staircase_codes(11), TIMING, "random", seed=4)
        assert built == [2048, 2048]  # the step table and the pin table
        synthesize(cfg, staircase_codes(11), TIMING, "random", seed=5)
        assert built == [2048, 2048]

    @pytest.mark.parametrize("encoding", list(Encoding))
    @pytest.mark.parametrize("skew_mode", ["deterministic", "random"])
    @pytest.mark.parametrize("codes", [[7, 8], [8, 7], [5, 5], [15], [3, 12, 4], [0, 15, 0]])
    def test_the_batch_is_the_counts_span_with_0_and_d_max(self, monkeypatch, encoding, skew_mode,
                                                           codes):
        cfg = config(encoding)
        batches = solved_batches(monkeypatch)
        synthesize(cfg, codes, TIMING, skew_mode, seed=5)
        t_code = np.arange(len(codes)) * TIMING.sample_period
        pcg = np.random.PCG64(5).state["state"] if skew_mode == "random" else None
        _, counts = _pin_events(cfg, np.array(codes), t_code, TIMING.skew_max, pcg)
        span = set(range(counts.min(), counts.max() + 1))
        assert batches == [sorted(span | {0, cfg.d_max})]

    @pytest.mark.parametrize("n_bits, codes, batch", [
        (4, [7, 8], [*range(9), 15]), (4, [8, 7], [0, *range(7, 16)]),
        (11, [1023, 1024], [*range(1025), 2047]), (11, [1024, 1023], [0, *range(1023, 2048)]),
    ])
    def test_simultaneous_random_events_walk_in_pin_order(self, monkeypatch, n_bits, codes, batch):
        # With no skew every event of a transition is at once; the low bits' pins come first.
        batches = solved_batches(monkeypatch)
        wave = synthesize(DacConfig(n_bits, VDD, PAIR), codes, TimingParams(30e-9, 30e-9, 0.0, 50e-9),
                          "random", seed=5)
        assert batches == [batch]
        assert wave.times == (0.0, 50e-9)

    @pytest.mark.parametrize("codes", [[1023, 1024], [1024, 1023]])
    def test_random_events_at_equal_times_walk_in_pin_order(self, monkeypatch, codes):
        # A skew of 4 float spacings at t = 50 ns leaves a step's events a handful of distinct
        # times, shared by pins in shuffled order: the events of each time are walked in pin order.
        cfg = DacConfig(11, VDD, PAIR)
        timing = TimingParams(30e-9, 30e-9, 4 * float(np.spacing(50e-9)), 50e-9)
        batches = solved_batches(monkeypatch)
        wave = synthesize(cfg, codes, timing, "random", seed=8)
        count, counts = codes[0], {codes[0]}
        for step, (old, new) in enumerate(zip(codes, codes[1:]), start=1):
            target = per_pin_states(new, 11, cfg.encoding)
            pins = np.flatnonzero(np.array(per_pin_states(old, 11, cfg.encoding)) != target)
            t = step * timing.sample_period + _drawn_staggers(
                np.random.PCG64(8).state["state"], np.full(len(pins), step), pins, cfg.d_max,
                timing.skew_max)
            assert len(set(t.tolist())) < len(pins)  # events share times
            for _, pin in sorted(zip(t.tolist(), pins.tolist())):
                count += 1 if target[pin] else -1
                counts.add(count)
        assert batches == [sorted(set(range(min(counts), max(counts) + 1)) | {0, cfg.d_max})]
        assert wave == per_pin_synthesize(cfg, codes, timing, "random", 8)

    @pytest.mark.parametrize("encoding, batch", [
        (Encoding.THERMOMETER, [0, 7, 8, 65535]), (Encoding.BINARY, [*range(9), 65535]),
    ])
    def test_a_16_bit_small_step_solves_no_count_outside_its_walk(self, monkeypatch, encoding, batch):
        batches = solved_batches(monkeypatch)
        synthesize(DacConfig(16, VDD, PAIR, encoding=encoding), [7, 8], TIMING)
        assert batches == [batch]

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_an_event_rounding_past_the_next_transitions_is_refused(self, monkeypatch, encoding):
        # At the widest skew, t_code[76] plus the largest draw rounds past t_code[77]. A stream
        # whose draw for step 76 is the largest and for step 77 the least puts step 76's edge after
        # step 77's. Ordering them by time would fall the pin before it rose, down to count -1;
        # the replay refuses instead.
        timing, s, d_max = WIDEST_SKEW, 76, 1
        t_code = np.arange(s + 2) * timing.sample_period
        multiplier = gpiodac.transient._MULTIPLIER
        late = (1 << 64) - 1  # state after draw s - 1: halves 0 and 2^64 - 1, so XSL-RR gives 2^64 - 1
        inc = -multiplier * late % (1 << 128)  # state after draw s: 0, so the draw is 0
        state = late
        for _ in range(s):
            state = pow(multiplier, -1, 1 << 128) * (state - inc) % (1 << 128)
        pcg = {"state": state, "inc": inc}
        stagger = _drawn_staggers(pcg, np.array([s, s + 1]), np.array([0, 0]), d_max, timing.skew_max)
        assert stagger[1] == 0.0 and t_code[s] + stagger[0] > t_code[s + 1]

        class Seeded:
            def __init__(self, seed):
                self.state = {"state": pcg}

        monkeypatch.setattr(np.random, "PCG64", Seeded)
        cfg = DacConfig(1, VDD, PAIR, encoding=encoding)
        with pytest.raises(ValueError, match="strictly ascending"):
            synthesize(cfg, [0] * s + [1, 0], timing, "random", seed=0)
