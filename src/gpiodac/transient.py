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
operations: the ranges expand into pin events in transition and pin order,
which is already time order with deterministic staggers and takes one stable
sort by transition and time with random ones, and one running sum of their
+-1 steps gives the asserted unit count after every event. Random mode
computes each event's draw of the seeded PCG64 stream by LCG jump-ahead. A
jump of n steps multiplies the state by A^n and adds the increment times
S_n = A^(n-1) + ... + A + 1; neither holds the seed, so both are built once
per width into a small cache of read-only tables. A replay adds its seed in
three vector products and then takes each event's state with one affine map,
in array operations over all events at once with no Python call per
transition, so a replay costs time linear in the number of changed pins and
codes in both skew modes. Each event moves the count by one, so the counts
fill one interval; that interval, with 0 and pin_count, is resolved in one
batched call of the static operating-point solver, so the transient waveform
and the static transfer curve can never disagree on settled levels. Rise/fall
times are carried for documentation and sampling-rate checks; edge shapes are
not modeled because the glitch mechanism is purely an ordering effect.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import cached_property, lru_cache
from itertools import compress, islice
from typing import Sequence

import numpy as np

from .config import MAX_BITS, DacConfig, Encoding, TimingParams, _integer
from .network import _checked_counts, _refuse_non_integers, _solve


class Waveform:
    """Piecewise-constant output: values[i] holds from times[i] to times[i+1].

    annotations mark the commanded code instants as (time, code) pairs, the
    times ascending (NaN refused, repeats allowed) and the codes integers;
    lsb_ref is the static full-scale LSB so excursions can be reported in
    code units.

    A waveform is kept as arrays: the sample times, the distinct levels with
    each sample's level index, and the annotation times and codes. The tuples
    times, values and annotations are built on first access; values shares
    one float object per level. Like a frozen dataclass of those five fields,
    it refuses assignment and compares and hashes by their values.
    """

    _FIELDS = ("times", "values", "annotations", "lsb_ref", "vdd")

    def __init__(
        self,
        times: Sequence[float],
        values: Sequence[float],
        annotations: Sequence[tuple[float, int]],
        lsb_ref: float,
        vdd: float,
    ) -> None:
        values = np.array(values, dtype=np.float64)
        marks = tuple(annotations)
        codes = [code for _, code in marks]
        _refuse_non_integers(codes, "annotation code")
        self._fill(
            np.array(times, dtype=np.float64),
            values,
            np.arange(len(values)),
            np.array([t for t, _ in marks], dtype=np.float64),
            np.array(codes, dtype=np.int64),
            lsb_ref,
            vdd,
        )

    @classmethod
    def _of_arrays(cls, *fields) -> Waveform:
        """The waveform of _fill's arrays, taken as they are."""
        wave = cls.__new__(cls)
        wave._fill(*fields)
        return wave

    def _fill(self, times, levels, index, mark_times, mark_codes, lsb_ref, vdd) -> None:
        if len(times) != len(index):
            raise ValueError("times and values must have equal length")
        if not np.all(np.diff(times) > 0):  # NaN compares false
            raise ValueError("times must be strictly ascending")
        if np.isnan(mark_times).any() or not np.all(np.diff(mark_times) >= 0):
            raise ValueError("annotation times must be ascending and not NaN")
        self.__dict__.update(
            _times=times, _levels=levels, _index=index, _mark_times=mark_times,
            _mark_codes=mark_codes, lsb_ref=lsb_ref, vdd=vdd,
        )

    @cached_property
    def times(self) -> tuple[float, ...]:
        return tuple(self._times.tolist())

    @cached_property
    def values(self) -> tuple[float, ...]:
        return tuple(map(self._levels.tolist().__getitem__, self._index.tolist()))

    @cached_property
    def annotations(self) -> tuple[tuple[float, int], ...]:
        return tuple(zip(self._mark_times.tolist(), self._mark_codes.tolist()))

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Waveform({', '.join(f'{name}={getattr(self, name)!r}' for name in self._FIELDS)})"


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
    """a * x + c mod 2^128 on (hi, lo) pairs, elementwise; any half may be a Python int below 2^64."""
    hi, lo = _mul(x, a)
    lo_c = lo + c[1]
    return hi + c[0] + (lo_c < lo), lo_c


def _halves(x: int) -> tuple[int, int]:
    """The (hi, lo) 64-bit halves of a 128-bit integer."""
    return x >> 64, x & _LOW


def _orbits(a: int, c: int, n: int) -> np.ndarray:
    """a^k and G^k(0), k < n, for G(y) = a * y + c mod 2^128: a (2, 2, n) array of (hi, lo) halves.

    Doubling: with the first m of each row known, G^m maps them onto the next
    m (a^(m+k) = a^m * a^k + 0 and G^(m+k)(0) = a^m * G^k(0) + G^m(0)), so n
    columns cost log2(n) passes of array operations.
    """
    orbit = np.zeros((2, 2, n), np.uint64)
    orbit[1, 0, 0] = 1  # a^0; G^0(0) = 0
    m = 1
    while m < n:
        k = min(m, n - m)
        addend = np.array([(0, 0), _halves(c)], np.uint64).T[:, :, None]
        orbit[:, :, m : m + k] = _affine(_halves(a), addend, orbit[:, :, :k])
        a, c, m = a * a & _MASK, (a * c + c) & _MASK, 2 * m
    return orbit


@lru_cache(maxsize=8)
def _powers(stride: int, size: int) -> np.ndarray:
    """The seed-free rows A^(k stride) and S_(k stride), k < size, read-only, as _orbits lays them out.

    They are the orbits of G = F^stride at increment 1, G(y) = A^stride * y +
    S_stride, so they hold no seed: a replay takes its first rows from the
    table of the next power-of-two size, and replays of one width share it.
    Only tables of at most 2^MAX_BITS rows, as many as a 16-bit DAC has pins,
    are cached; _drawn_staggers builds a longer one, which only a replay of
    more codes needs, through __wrapped__ for its call alone.
    """
    # S_n = (A^n - 1) / (A - 1) in integers, so A^n mod (A - 1) * 2^128 gives S_n mod 2^128.
    a = _MULTIPLIER
    table = _orbits(pow(a, stride, 1 << 128), (pow(a, stride, (a - 1) << 128) - 1) // (a - 1), size)
    table.flags.writeable = False
    return table


def _drawn_staggers(
    pcg: dict, step: np.ndarray, pin: np.ndarray, d_max: int, skew_max: float
) -> np.ndarray:
    """The random staggers of events (step, pin), computed from PCG64's seeded state and increment.

    Step s owns draws (s - 1) * d_max up to s * d_max of the stream, one per
    pin. PCG64 steps its 128-bit state by F(y) = A * y + inc mod 2^128 and
    outputs XSL-RR of the new state, so pin j of step s reads the state
    F^(j + 1)(X_(s-1)) with X_m = F^(m d_max)(S0). F^n(y) = A^n * y + inc * S_n
    with S_n = A^(n-1) + ... + A + 1, and neither A^n nor S_n depends on the
    seed: _powers keeps them, for n = m * d_max and for n = j + 1. The seed
    enters through three vector products, A^(m d_max) * S0 and inc * S_(m d_max)
    for the step states and inc * S_(j+1) for the pins, and each event then
    costs one affine map. A draw becomes a double as numpy's uniform() makes
    it, skew_max * ((raw >> 11) * 2^-53), so every stagger is bit for bit what
    advance() and uniform(0, skew_max) give.
    """
    s0, inc = _halves(pcg["state"]), _halves(pcg["inc"])
    (a_step, s_step), (a_pin, s_pin) = (
        (_powers if n <= 1 << MAX_BITS else _powers.__wrapped__)(stride, 1 << (n - 1).bit_length())
        [:, :, :n].swapaxes(0, 1)
        for stride, n in ((d_max, int(step.max(initial=1))), (1, int(pin.max(initial=-1)) + 2))
    )
    # The step states X_m for m below the last step, and each pin's map (A^(j+1), inc * S_(j+1)):
    # contiguous rows, which take() gathers from far faster than fancy indexing on a strided view.
    x, maps = np.array(_affine(a_step, _mul(s_step, inc), s0)), np.vstack((*a_pin, *_mul(s_pin, inc)))
    stagger = np.empty(len(pin))
    for first in range(0, len(pin), _MAX_EVENTS):
        block = slice(first, first + _MAX_EVENTS)
        s, j = step[block] - 1, pin[block] + 1
        pin_map = maps.take(j, axis=1)
        hi, lo = _affine(pin_map[:2], pin_map[2:], x.take(s, axis=1))
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
    Events are ordered by transition, then time, then pin. Deterministic
    staggers rise with the pin, so the (transition, pin) order the events are
    built in is that order already; random ones take one stable sort.
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
    # The count before a transition is the old code and each changed pin
    # moves it by one, so one running sum from the first code gives every count.
    move = np.repeat(np.where(seg_rise, 1, -1), seg_size)
    if pcg is None:
        t_event = t_code[step] + pin * skew_max / config.d_max
    else:
        t_event = t_code[step] + _drawn_staggers(pcg, step, pin, config.d_max, skew_max)
        # Stable, so simultaneous events of one transition keep their pin order.
        order = np.lexsort((t_event, step))
        t_event, move = t_event[order], move[order]
    return np.append(0.0, t_event), code[0] + np.append(0, move.cumsum())


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
    that transition s owns in the stream seeded with ``seed``, which it
    requires (a repeated code owns its draws too). Only the draws of changed
    pins are computed, by jump-ahead from the seeded state in array
    operations, each bit for bit what the stream gives. Events that share a
    time collapse into one sample, applied in pin order. Either way the cost
    is linear in the number of changed pins and codes, and no step does work
    in proportion to pin_count: the levels solved are the counts' interval,
    with 0 and pin_count. ``seed``, in either mode, must be None or a
    non-negative Python or numpy integer of any size; a bool, float, string
    or sequence is refused naming it.
    """
    if len(codes) == 0:
        raise ValueError("need at least one code")
    d_max = config.d_max
    codes = _checked_counts(codes, d_max, "code")
    if timing.skew_max >= timing.sample_period:
        raise ValueError("skew_max must be smaller than sample_period")
    if skew_mode not in ("deterministic", "random"):
        raise ValueError(f"unknown skew mode {skew_mode!r}")
    if skew_mode == "random" and seed is None:  # PCG64(None) seeds from OS entropy
        raise ValueError("random skew mode needs a seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
                             or seed < 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")

    # The 128-bit state and increment of the PCG64 that default_rng(seed) seeds too; the
    # draws are PCG64 arithmetic, and NEP 19 keeps its stream fixed across numpy versions.
    pcg = np.random.PCG64(seed).state["state"] if skew_mode == "random" else None
    t_code = np.arange(len(codes)) * timing.sample_period
    times, counts = _pin_events(config, codes, t_code, timing.skew_max, pcg)
    # Simultaneous events collapse to one sample holding the last count.
    last = np.append(times[1:] != times[:-1], True)

    # Pass 2: one batched solve resolves every count. Each event moves the count by one, so the
    # counts are every integer from their least to their most. 0 and d_max, which lsb_ref reads,
    # take the slots just past that interval where they lie outside it.
    lo, hi = int(counts.min()), int(counts.max())
    first, end = lo - (lo > 0), hi + (hi < d_max)
    needed = np.arange(first, end + 1)
    needed[0], needed[-1] = 0, d_max
    _, (levels, _, _) = _solve([config], needed)
    vfs = float(levels[-1]) - float(levels[0])  # needed runs from 0 to d_max
    lsb_ref = vfs / d_max if vfs != 0.0 else config.vdd / d_max
    return Waveform._of_arrays(times[last], levels, counts[last] - first, t_code, codes, lsb_ref,
                               config.vdd)


def detect_glitches(w: Waveform, band: float) -> list[tuple[float, float]]:
    """Excursions beyond +-band LSB of the settled-to-settled envelope.

    For each annotated transition, intermediate levels are compared against
    the span between the settled level before and after the transition; any
    sample further than band LSB outside that span is reported as
    (time, excursion in LSB beyond the span edge).
    """
    if not band >= 0.0:  # NaN fails it too
        raise ValueError(f"band must be >= 0, got {band}")
    times, values = w._times, w._levels[w._index]
    # Transition k holds the samples from its own annotation time up to the next one's.
    edges = np.searchsorted(times, np.append(w._mark_times[1:], np.inf))
    first, last = edges[:-1], edges[1:]
    moved = (first > 0) & (last > first)  # a sample before it, and a pin moved
    first, last = first[moved], last[moved]
    v_before, v_after = values[first - 1], values[last - 1]
    # Python's min(a, b) and max(a, b), which keep a unless b compares past it.
    lo = np.where(v_after < v_before, v_after, v_before) - band * w.lsb_ref
    hi = np.where(v_after > v_before, v_after, v_before) + band * w.lsb_ref
    # Every sample of every transition, in order, with its transition's bounds. The annotations
    # are in time order, so the transitions' samples tile one run, start:stop.
    sizes = last - first
    start, stop = first.min(initial=len(times)), last.max(initial=0)
    v = values[start:stop]
    below, above = np.repeat(lo, sizes) - v, v - np.repeat(hi, sizes)
    depth = np.where(above > below, above, below)
    hit = depth > 0.0
    if not hit.any():  # w.times is built only for a report
        return []
    excursions = (depth[hit] / w.lsb_ref + band).tolist()
    # Reported times are the waveform's own float objects, not copies; hit's bytes are 0 or 1.
    return list(zip(compress(islice(w.times, start, stop), hit.tobytes()), excursions))


def staircase_codes(n_bits: int) -> list[int]:
    """The 0..d_max ramp; the standard bench pattern."""
    n_bits = _integer("n_bits", n_bits)
    if not 1 <= n_bits <= MAX_BITS:  # refused before a list of 2^n_bits codes is built
        raise ValueError(f"n_bits must be in 1..{MAX_BITS}, got {n_bits}")
    return list(range(1 << n_bits))


def parse_code_list(text: str, n_bits: int) -> list[int]:
    """Comma-separated code list, or the keyword 'staircase'."""
    if text.strip() == "staircase":
        return staircase_codes(n_bits)
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad code list {text!r}: {exc}") from exc
