"""Event-driven settling model for code sequences.

Pins never switch at exactly the same instant in hardware; between the first
and last pin edge of a code transition the DAC sits at unintended intermediate
levels. With binary weighting a major-carry transition (e.g. 7 -> 8) can pass
through states far outside the two settled levels, which shows up as output
glitches; thermometer decoding flips pins in one direction only and cannot
glitch regardless of the edge ordering.

The pin model is two-state: a pin holds its old value until its event time,
then commits to the new one. The unit counts of all intermediate pin states
are collected first and then resolved together in one batched call of the
static operating-point solver, so the transient waveform and the static
transfer curve can never disagree on settled levels. Rise/fall times
are carried for documentation and sampling-rate checks; edge shapes are not
modeled because the glitch mechanism is purely an ordering effect.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .network import DacConfig, Encoding, solve_units


@dataclass(frozen=True)
class TimingParams:
    t_rise: float
    t_fall: float
    skew_max: float
    sample_period: float
    load_capacitance: float = 0.0  # oscilloscope/probe load, reporting only

    def __post_init__(self) -> None:
        for name in ("t_rise", "t_fall", "skew_max", "sample_period", "load_capacitance"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.sample_period <= max(self.t_rise, self.t_fall):
            raise ValueError(
                "sample_period must exceed max(t_rise, t_fall) for settled sampling"
            )


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
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly ascending")


def pin_states(code: int, n_bits: int, encoding: Encoding) -> tuple[bool, ...]:
    """Asserted/deasserted state of each of the 2^n - 1 unit pins for a code.

    Binary: bit i owns the 2^i pins starting at index 2^i - 1.
    Thermometer: pin j is asserted iff j < code. Either way the asserted
    count equals the code, which is what makes the two encodings produce the
    same settled levels.
    """
    d_max = (1 << n_bits) - 1
    if not 0 <= code <= d_max:
        raise ValueError(f"code {code} out of range 0..{d_max}")
    if encoding is Encoding.THERMOMETER:
        return tuple(j < code for j in range(d_max))
    states = []
    for bit in range(n_bits):
        on = bool(code & (1 << bit))
        states.extend([on] * (1 << bit))
    return tuple(states)


def _staggers(
    n_pins: int, skew_max: float, mode: str, rng: np.random.Generator | None
) -> list[float]:
    if mode == "deterministic":
        return [pin * skew_max / n_pins for pin in range(n_pins)]
    if mode == "random":
        if rng is None:
            raise ValueError("random skew mode needs a seeded generator")
        return list(rng.uniform(0.0, skew_max, size=n_pins))
    raise ValueError(f"unknown skew mode {mode!r}")


def synthesize(
    config: DacConfig,
    codes: Sequence[int],
    timing: TimingParams,
    skew_mode: str = "deterministic",
    seed: int | None = None,
) -> Waveform:
    """Replay a code sequence through per-pin switching events.

    Deterministic mode staggers pin j by j * skew_max / pin_count, which is
    reproducible and places lower-indexed (LSB-group) edges first; random mode
    draws per-transition staggers from U(0, skew_max) with the given seed.
    """
    if len(codes) == 0:
        raise ValueError("need at least one code")
    d_max = config.d_max
    for c in codes:
        if not 0 <= c <= d_max:
            raise ValueError(f"code {c} out of range 0..{d_max}")
    if timing.skew_max >= timing.sample_period:
        raise ValueError("skew_max must be smaller than sample_period")
    if skew_mode not in ("deterministic", "random"):
        raise ValueError(f"unknown skew mode {skew_mode!r}")

    rng = np.random.default_rng(seed) if skew_mode == "random" else None
    # Pass 1: the asserted unit count held from each event on. `needed` keeps the
    # distinct counts in first-use order; events share its one int per count.
    state = list(pin_states(codes[0], config.n_bits, config.encoding))
    times = [0.0]
    counts = [sum(state)]
    needed = {n: n for n in (d_max, 0, counts[0])}
    annotations = [(0.0, codes[0])]
    for step, code in enumerate(codes[1:], start=1):
        t_code = step * timing.sample_period
        annotations.append((t_code, code))
        target = pin_states(code, config.n_bits, config.encoding)
        staggers = _staggers(d_max, timing.skew_max, skew_mode, rng)
        events: dict[float, list[int]] = {}
        for pin in range(d_max):
            if state[pin] != target[pin]:
                events.setdefault(t_code + staggers[pin], []).append(pin)
        for t_event in sorted(events):
            for pin in events[t_event]:
                state[pin] = target[pin]
            count = sum(state)
            count = needed.setdefault(count, count)
            if t_event == times[-1]:
                counts[-1] = count  # simultaneous events collapse to one sample
            else:
                times.append(t_event)
                counts.append(count)

    # Pass 2: one batched solve resolves every distinct count to its level.
    level = {n: row.vdac for n, row in zip(needed, solve_units(config, list(needed)))}
    vfs = level[d_max] - level[0]
    lsb_ref = vfs / d_max if vfs != 0.0 else config.vdd / d_max
    return Waveform(
        times=tuple(times),
        values=tuple(map(level.__getitem__, counts)),
        annotations=tuple(annotations),
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
    glitches: list[tuple[float, float]] = []
    anns = w.annotations
    for k in range(1, len(anns)):
        t_start = anns[k][0]
        t_end = anns[k + 1][0] if k + 1 < len(anns) else float("inf")
        first = bisect_left(w.times, t_start)
        if first == 0:
            continue
        v_before = w.values[first - 1]
        last = bisect_left(w.times, t_end)
        if last == first:
            continue  # no pin moved for this transition
        v_after = w.values[last - 1]
        lo = min(v_before, v_after) - band * w.lsb_ref
        hi = max(v_before, v_after) + band * w.lsb_ref
        for idx in range(first, last):
            v = w.values[idx]
            depth = max(lo - v, v - hi)
            if depth > 0.0:
                glitches.append((w.times[idx], depth / w.lsb_ref + band))
    return glitches


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
