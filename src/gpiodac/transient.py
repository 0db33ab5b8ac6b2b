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
asserted unit count after every event. Random mode draws staggers only for
the span of pins each transition changes and skips the rest of the seeded
stream, so a replay costs time linear in the number of changed pins in both
skew modes. The unit counts of all intermediate pin states are then resolved
together in one batched call of the static operating-point solver, so the
transient waveform and the static transfer curve can never disagree on
settled levels. Rise/fall times are carried for documentation and
sampling-rate checks; edge shapes are not modeled because the glitch
mechanism is purely an ordering effect.
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


def _drawn_staggers(
    rng: np.random.Generator, step: np.ndarray, pin: np.ndarray, d_max: int, skew_max: float
) -> np.ndarray:
    """The random staggers of events given in (step, pin) order.

    Step s owns draws (s - 1) * d_max up to s * d_max of the stream, one per
    pin. Only the span from a step's first to its last changed pin is drawn;
    advance() skips the rest, which leaves every drawn double the same.
    """
    first = np.flatnonzero(np.diff(step, prepend=0))  # steps count from 1
    last = np.flatnonzero(np.diff(step, append=0))
    lo, size = pin[first], pin[last] + 1 - pin[first]
    drawn, position = [np.empty(0)], 0
    for begin, n in zip(((step[first] - 1) * d_max + lo).tolist(), size.tolist()):
        rng.bit_generator.advance(begin - position)
        drawn.append(rng.uniform(0.0, skew_max, size=n))
        position = begin + n
    offset = size.cumsum() - size - lo
    return np.concatenate(drawn)[pin + np.repeat(offset, last + 1 - first)]


def _pin_events(
    config: DacConfig,
    code: np.ndarray,
    t_code: np.ndarray,
    skew_max: float,
    rng: np.random.Generator | None,
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
    if rng is None:
        stagger = pin * skew_max / config.d_max
    else:
        stagger = _drawn_staggers(rng, step, pin, config.d_max, skew_max)
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
    owns its draws too), but draws only the span of pins the transition
    changes. Either way the cost is linear in the number of changed pins, and
    no step does work in proportion to pin_count.
    """
    if len(codes) == 0:
        raise ValueError("need at least one code")
    d_max = config.d_max
    codes = _checked_counts(codes, d_max, "code")
    if timing.skew_max >= timing.sample_period:
        raise ValueError("skew_max must be smaller than sample_period")
    if skew_mode not in ("deterministic", "random"):
        raise ValueError(f"unknown skew mode {skew_mode!r}")

    rng = np.random.default_rng(seed) if skew_mode == "random" else None
    t_code = np.arange(len(codes)) * timing.sample_period
    times, counts = _pin_events(config, codes, t_code, timing.skew_max, rng)
    # Simultaneous events collapse to one sample holding the last count.
    last = np.append(times[1:] != times[:-1], True)

    # Pass 2: one batched solve resolves every distinct count.
    needed = np.unique(np.concatenate(([d_max, 0], counts)))
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
    if band < 0.0:
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
