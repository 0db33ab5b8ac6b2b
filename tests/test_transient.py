"""Pin-skew replay: glitch generation and detection."""

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpiodac.devices import calibrated_pair
from gpiodac.network import DacConfig, Encoding, solve_code, transfer_curve
from gpiodac.transient import (
    TimingParams,
    Waveform,
    _drawn_staggers,
    detect_glitches,
    pin_states,
    staircase_codes,
    synthesize,
)
from oracles import per_draw_staggers, per_pin_synthesize, per_sample_detect_glitches, transition_counts

VDD = 3.3
PAIR = calibrated_pair(VDD, 1.15, 40.0)
TIMING = TimingParams(t_rise=30e-9, t_fall=30e-9, skew_max=5e-9, sample_period=50e-9)


def config(encoding: Encoding) -> DacConfig:
    return DacConfig(n_bits=4, vdd=VDD, devices=PAIR, encoding=encoding)


class TestPinStates:
    def test_binary_weighting(self):
        # code 0b1010 asserts the bit-1 pair and the bit-3 group of eight
        states = pin_states(0b1010, 4, Encoding.BINARY)
        assert sum(states) == 10
        assert states[0] is False          # bit 0 group
        assert states[1] and states[2]     # bit 1 group
        assert not any(states[3:7])        # bit 2 group
        assert all(states[7:15])           # bit 3 group

    def test_thermometer_prefix(self):
        states = pin_states(5, 4, Encoding.THERMOMETER)
        assert states == tuple(j < 5 for j in range(15))

    def test_asserted_count_equals_code_for_both_encodings(self):
        for code in range(16):
            for enc in Encoding:
                assert sum(pin_states(code, 4, enc)) == code

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_states_are_python_bools_and_numpy_codes_are_accepted(self, encoding):
        states = pin_states(np.uint64(9), 4, encoding)
        assert states == pin_states(9, 4, encoding)
        assert all(type(s) is bool for s in states)

    @pytest.mark.parametrize("encoding", list(Encoding))
    @pytest.mark.parametrize("code", [2.5, 3.0, "3", True])
    def test_non_integer_code_is_rejected(self, encoding, code):
        with pytest.raises(ValueError, match=f"code {code!r} is not an integer"):
            pin_states(code, 4, encoding)


class TestSynthesize:
    def test_thermometer_staircase_is_monotone_within_each_step(self):
        wave = synthesize(config(Encoding.THERMOMETER), staircase_codes(4), TIMING)
        diffs = np.diff(wave.values)
        assert np.all(diffs >= -1e-9)  # rising staircase never undershoots

    def test_binary_major_carry_dips_through_zero_state(self):
        # the low-indexed (LSB) pins fall before the bit-3 group rises, so the
        # asserted count passes through zero exactly as the ordering oracle says
        old = pin_states(7, 4, Encoding.BINARY)
        new = pin_states(8, 4, Encoding.BINARY)
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
        assert wave.values[0] == pytest.approx(solve_code(config(Encoding.BINARY), 3).vdac)
        assert wave.values[-1] == pytest.approx(solve_code(config(Encoding.BINARY), 12).vdac)

    @pytest.mark.parametrize("encoding", list(Encoding))
    @pytest.mark.parametrize("skew_mode", ["deterministic", "random"])
    def test_settled_levels_equal_transfer_curve_exactly(self, encoding, skew_mode):
        cfg = config(encoding)
        codes = staircase_codes(4) + [7, 8, 3, 12, 0, 15, 9]
        wave = synthesize(cfg, codes, TIMING, skew_mode=skew_mode, seed=3)
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

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_numpy_integer_codes_replay_like_python_ints(self, encoding):
        codes = [7, 8, 3, 12]
        want = synthesize(config(encoding), codes, TIMING)
        assert synthesize(config(encoding), np.array(codes), TIMING) == want
        assert synthesize(config(encoding), [np.uint8(c) for c in codes], TIMING) == want
        assert synthesize(config(encoding), [np.uint64(c) for c in codes], TIMING) == want

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
        codes = staircase_codes(6, repeats=2) + [31, 32, 32, 0, 63, 63]
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
        # 16-bit steps reach draw ~2^32; the pins straddle the byte split of j + 1.
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
        wave = synthesize(DacConfig(7, VDD, PAIR), staircase_codes(7, repeats=2) + [64, 63, 63],
                          TIMING, skew_mode, seed=3)
        got = detect_glitches(wave, band)
        assert got == per_sample_detect_glitches(wave, band)
        assert bool(got) == (band < float("inf"))
