"""Event-driven settling model for code sequences.

Pins never switch at exactly the same instant in hardware; between the first
and last pin edge of a code transition the DAC sits at unintended intermediate
levels. With binary weighting a major-carry transition (e.g. 7 -> 8) can pass
through states far outside the two settled levels, which shows up as output
glitches; thermometer decoding flips pins in one direction only and cannot
glitch regardless of the edge ordering.

The pin model is two-state: a pin holds its old value until its event time,
then commits to the new one. The pins a transition changes form contiguous
ranges (thermometer: the pins between the two codes; binary: the 2^i pins of
each flipped bit i), so a whole code sequence is replayed in one pass of array
operations: the ranges expand into pin events, one sort orders them by
transition and event time, and one running sum of their +-1 steps gives the
asserted unit count after every event. Random mode computes each event's
draw of the seeded PCG64 stream by LCG jump-ahead, in array operations over
all events at once with no Python call per transition, so a replay costs
time linear in the number of changed pins and codes in both skew modes. The
unit counts of all intermediate pin states are then resolved together in one
batched call of the static operating-point solver, so the transient waveform
and the static transfer curve can never disagree on settled levels. Rise/fall
times are carried for documentation and sampling-rate checks; edge shapes are
not modeled because the glitch mechanism is purely an ordering effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import DacConfig, Encoding, TimingParams
from .network import _checked_counts, solve_columns


@dataclass(frozen=True)
class Waveform:
    """Piecewise-constant output: values[i] holds from times[i] to times[i+1].

    annotations mark the commanded code instants; lsb_ref is the static
    full-scale LSB so excursions can be reported in code units.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    annotations: tuple[tuple[float, int], ...]
    lsb_ref: float
    vdd: float

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if not np.all(np.diff(self.times) > 0):  # NaN compares false
            raise ValueError("times must be strictly ascending")


def pin_states(code: int, n_bits: int, encoding: Encoding) -> tuple[bool, ...]:
    """Asserted/deasserted state of each of the 2^n - 1 unit pins for a code.

    Binary: bit i owns the 2^i pins starting at index 2^i - 1.
    Thermometer: pin j is asserted iff j < code. Either way the asserted
    count equals the code, which is what makes the two encodings produce the
    same settled levels.
    """
    code = int(_checked_counts(code, (1 << n_bits) - 1, "code")[0])
    if encoding is Encoding.THERMOMETER:
        return tuple((np.arange((1 << n_bits) - 1) < code).tolist())
    bit = np.arange(n_bits)
    return tuple(np.repeat(code >> bit & 1 == 1, 1 << bit).tolist())


_MASK = (1 << 128) - 1
_LOW = (1 << 64) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # numpy PCG64's LCG multiplier A
_MAX_EVENTS = 1 << 13  # events whose draws one pass computes: bounds the temporaries, kept in cache


def _mul(x, a):
    """x * a mod 2^128 on (hi, lo) uint64 pairs; the 64x64-bit product of the lows in 32-bit halves."""
    (xh, xl), (ah, al) = x, a
    x0, x1, a0, a1 = xl & 0xFFFFFFFF, xl >> 32, al & 0xFFFFFFFF, al >> 32
    p01, p10 = x0 * a1, x1 * a0
    carry = (x0 * a0 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF) >> 32
    return x1 * a1 + (p01 >> 32) + (p10 >> 32) + carry + xl * ah + xh * al, xl * al


def _affine(a, c, x):
    """a * x + c mod 2^128 on (hi, lo) pairs, elementwise; a and c may be Python ints below 2^64."""
    hi, lo = _mul(x, a)
    lo_c = lo + c[1]
    return hi + c[0] + (lo_c < lo), lo_c


def _halves(x: int) -> tuple[int, int]:
    """The (hi, lo) 64-bit halves of a 128-bit integer."""
    return x >> 64, x & _LOW


def _jump(inc: int, n: int) -> tuple[int, int]:
    """(a, c) of F^n for PCG64's step F(y) = A * y + inc mod 2^128, by squaring."""
    a, c, power_a, power_c = 1, 0, _MULTIPLIER, inc
    while n:
        if n & 1:
            a, c = a * power_a & _MASK, (power_a * c + power_c) & _MASK
        power_a, power_c, n = power_a * power_a & _MASK, (power_a * power_c + power_c) & _MASK, n >> 1
    return a, c


def _orbits(a: int, cs: Sequence[int], xs: Sequence[int], n: int) -> np.ndarray:
    """M_r^0(x_r) .. M_r^(n-1)(x_r) for M_r(y) = a * y + c_r mod 2^128, one row r per (c_r, x_r).

    The result is a (2, rows, n) array of (hi, lo) halves. Doubling: with the
    first m states known, M^m maps them onto the next m, so n states cost
    log2(n) passes of array operations. The maps M^0 .. M^(n-1) are the rows
    (c, x) = (0, 1) and (c, 0), since M^k(y) = a^k * y + M^k(0).
    """
    orbit = np.zeros((2, len(xs), n), np.uint64)
    orbit[:, :, 0] = np.array([_halves(x) for x in xs], np.uint64).T
    m = 1
    while m < n:
        k = min(m, n - m)
        addend = np.array([_halves(c) for c in cs], np.uint64).T[:, :, None]
        orbit[:, :, m : m + k] = _affine(_halves(a), addend, orbit[:, :, :k])
        a, cs, m = a * a & _MASK, [(a * c + c) & _MASK for c in cs], 2 * m
    return orbit


def _drawn_staggers(
    pcg: dict, step: np.ndarray, pin: np.ndarray, d_max: int, skew_max: float
) -> np.ndarray:
    """The random staggers of events (step, pin), computed from PCG64's seeded state and increment.

    Step s owns draws (s - 1) * d_max up to s * d_max of the stream, one per
    pin. PCG64 steps its 128-bit state by F(y) = A * y + inc mod 2^128 and
    outputs XSL-RR of the new state, so pin j of step s reads the state
    F^((s-1) d_max + j + 1)(S0). Powers of F commute; with j + 1 = 256 h + l
    that state is F^l(F^(256 h)(G^(s-1)(S0))) for G = F^d_max. Three tables,
    none larger than the number of codes or 256 entries, hold the states
    G^(s-1)(S0) and the maps F^(256 h) and F^l. A run of events that share s
    and h shares F^(256 h)(G^(s-1)(S0)), so each event costs one affine map.
    A draw becomes a double as numpy's uniform() makes it,
    skew_max * ((raw >> 11) * 2^-53), so every stagger is bit for bit what
    advance() and uniform(0, skew_max) give.
    """
    s0, inc = pcg["state"], pcg["inc"]
    top = int(pin.max(initial=-1)) + 1  # the largest j + 1
    (a_step, c_step), (a_high, c_high) = _jump(inc, d_max), _jump(inc, 256)
    steps = _orbits(a_step, [c_step], [s0], int(step.max(initial=1)))[:, 0]
    high = _orbits(a_high, [0, c_high], [1, 0], (top >> 8) + 1)
    low = _orbits(_MULTIPLIER, [0, inc], [1, 0], min(top + 1, 256))
    stagger = np.empty(len(pin))
    for first in range(0, len(pin), _MAX_EVENTS):
        block = slice(first, first + _MAX_EVENTS)
        s, j = step[block], pin[block] + 1
        h = j >> 8
        new = np.append(True, (s[1:] != s[:-1]) | (h[1:] != h[:-1]))  # first event of a run
        maps = high[:, :, h[new]]
        x = _affine(maps[:, 0], maps[:, 1], steps[:, s[new] - 1])
        run = new.cumsum() - 1
        maps = low[:, :, j & 255]
        hi, lo = _affine(maps[:, 0], maps[:, 1], (x[0][run], x[1][run]))
        # XSL-RR: the halves xored, rotated right by the state's top 6 bits.
        v, rot = hi ^ lo, hi >> 58
        raw = v >> rot | v << (64 - rot & 63)
        stagger[block] = skew_max * ((raw >> 11) * 2.0**-53)
    return stagger


def _pin_events(
    config: DacConfig,
    code: np.ndarray,
    t_code: np.ndarray,
    skew_max: float,
    pcg: dict | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pass 1 of a replay: the time of every pin event and the unit count after it.

    Both arrays start with the first code at time 0. The pins a transition
    changes form contiguous ranges, so every event of every transition comes
    from one pass of array operations; its temporaries die with this call.
    """
    old, new = code[:-1], code[1:]
    if config.encoding is Encoding.THERMOMETER:
        # The pins between the two codes, all moving the same way.
        seg_step = np.arange(1, len(code))
        seg_start, seg_size, seg_rise = np.minimum(old, new), abs(new - old), new > old
    else:
        # Bit i owns the 2^i pins from 2^i - 1; a flipped bit moves all of them.
        bit = np.arange(config.n_bits)
        flip_step, flip_bit = ((old ^ new)[:, None] >> bit & 1).nonzero()
        seg_step = flip_step + 1
        seg_start, seg_size = (1 << flip_bit) - 1, 1 << flip_bit
        seg_rise = new[flip_step] >> flip_bit & 1 == 1
    # Events in (step, pin) order: pin ranges expanded with repeat/arange.
    pin = np.arange(seg_size.sum()) - np.repeat(seg_size.cumsum() - seg_size - seg_start, seg_size)
    step = np.repeat(seg_step, seg_size)
    if pcg is None:
        stagger = pin * skew_max / config.d_max
    else:
        stagger = _drawn_staggers(pcg, step, pin, config.d_max, skew_max)
    t_event = t_code[step] + stagger
    # Stable, so simultaneous events of one transition keep their pin order.
    order = np.lexsort((t_event, step))
    # The count before a transition is the old code and each changed pin
    # moves it by one, so one running sum from the first code gives every count.
    rise = np.repeat(seg_rise, seg_size)[order]
    times = np.append(0.0, t_event[order])
    return times, code[0] + np.append(0, np.where(rise, 1, -1).cumsum())


def synthesize(
    config: DacConfig,
    codes: Sequence[int],
    timing: TimingParams,
    skew_mode: str = "deterministic",
    seed: int | None = None,
) -> Waveform:
    """Replay a code sequence through per-pin switching events.

    Deterministic mode staggers pin j by j * skew_max / pin_count, which is
    reproducible and places lower-indexed (LSB-group) edges first. Random mode
    gives pin j of transition s the j-th of the pin_count U(0, skew_max) draws
    that transition s owns in the stream seeded with ``seed`` (a repeated code
    owns its draws too). Only the draws of changed pins are computed, by
    jump-ahead from the seeded state in array operations, each bit for bit
    what the stream gives. Either way the cost is linear in the number of
    changed pins and codes, and no step does work in proportion to pin_count.
    """
    if len(codes) == 0:
        raise ValueError("need at least one code")
    d_max = config.d_max
    codes = _checked_counts(codes, d_max, "code")
    if timing.skew_max >= timing.sample_period:
        raise ValueError("skew_max must be smaller than sample_period")
    if skew_mode not in ("deterministic", "random"):
        raise ValueError(f"unknown skew mode {skew_mode!r}")

    # The 128-bit state and increment of the PCG64 that default_rng(seed) seeds too; the
    # draws are PCG64 arithmetic, and NEP 19 keeps its stream fixed across numpy versions.
    pcg = np.random.PCG64(seed).state["state"] if skew_mode == "random" else None
    t_code = np.arange(len(codes)) * timing.sample_period
    times, counts = _pin_events(config, codes, t_code, timing.skew_max, pcg)
    # Simultaneous events collapse to one sample holding the last count.
    last = np.append(times[1:] != times[:-1], True)

    # Pass 2: one batched solve resolves every distinct count.
    needed = np.sort(np.concatenate(([d_max, 0], counts)))  # np.unique hashes, at ~4x the cost
    needed = needed[np.append(True, needed[1:] != needed[:-1])]
    # One float object per level, shared by every sample that holds it.
    level = dict(zip(needed.tolist(), solve_columns(config, needed)["vdac"].tolist()))
    vfs = level[d_max] - level[0]
    lsb_ref = vfs / d_max if vfs != 0.0 else config.vdd / d_max
    return Waveform(
        times=tuple(times[last].tolist()),
        values=tuple(map(level.__getitem__, counts[last].tolist())),
        annotations=tuple(zip(t_code.tolist(), codes.tolist())),
        lsb_ref=lsb_ref,
        vdd=config.vdd,
    )


def detect_glitches(w: Waveform, band: float) -> list[tuple[float, float]]:
    """Excursions beyond +-band LSB of the settled-to-settled envelope.

    For each annotated transition, intermediate levels are compared against
    the span between the settled level before and after the transition; any
    sample further than band LSB outside that span is reported as
    (time, excursion in LSB beyond the span edge).
    """
    if not band >= 0.0:  # NaN fails it too
        raise ValueError(f"band must be >= 0, got {band}")
    times, values = np.asarray(w.times, dtype=float), np.asarray(w.values, dtype=float)
    starts = [t for t, _ in w.annotations[1:]]
    # Transition k holds the samples from its own annotation time up to the next one's.
    edges = np.searchsorted(times, np.append(starts, np.inf))
    first, last = edges[:-1], edges[1:]
    moved = (first > 0) & (last > first)  # a sample before it, and a pin moved
    first, last = first[moved], last[moved]
    v_before, v_after = values[first - 1], values[last - 1]
    # Python's min(a, b) and max(a, b), which keep a unless b compares past it.
    lo = np.where(v_after < v_before, v_after, v_before) - band * w.lsb_ref
    hi = np.where(v_after > v_before, v_after, v_before) + band * w.lsb_ref
    # Every sample of every transition, in order: owner[j] is sample idx[j]'s transition.
    sizes = last - first
    owner = np.repeat(np.arange(len(sizes)), sizes)
    idx = np.arange(len(owner)) + np.repeat(first - (np.cumsum(sizes) - sizes), sizes)
    below, above = lo[owner] - values[idx], values[idx] - hi[owner]
    depth = np.where(above > below, above, below)
    hit = depth > 0.0
    # Reported times reuse the waveform's float objects instead of copying them.
    times_hit = map(w.times.__getitem__, idx[hit].tolist())
    return list(zip(times_hit, (depth[hit] / w.lsb_ref + band).tolist()))


def staircase_codes(n_bits: int, repeats: int = 1) -> list[int]:
    """0..d_max ramp, repeated; the standard bench pattern."""
    d_max = (1 << n_bits) - 1
    return list(range(d_max + 1)) * repeats


def parse_code_list(text: str, n_bits: int) -> list[int]:
    """Comma-separated code list, or the keyword 'staircase'."""
    if text.strip() == "staircase":
        return staircase_codes(n_bits)
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad code list {text!r}: {exc}") from exc


def export_rows(w: Waveform) -> Iterable[tuple[float, float]]:
    """(time_s, volts) rows for CSV export."""
    return zip(w.times, w.values)
