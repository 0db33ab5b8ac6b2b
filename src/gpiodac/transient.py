"""Event-driven settling model for code sequences.

Pins never switch at exactly the same instant in hardware; between the first
and last pin edge of a code transition the DAC sits at unintended intermediate
levels. With binary weighting a major-carry transition (e.g. 7 -> 8) can pass
through states far outside the two settled levels, which shows up as output
glitches; thermometer decoding flips pins in one direction only and cannot
glitch regardless of the edge ordering.

The pin model is two-state: a pin holds its old value until its event time,
then commits to the new one. A transition is replayed with array operations
on the pins it changes: their event times are sorted and a cumulative sum of
their +-1 steps gives the asserted unit count after every event, so a replay
costs time linear in the number of changed pins (plus one d_max-long stagger
draw per step in random mode). The unit counts of all intermediate pin states
are then resolved together in one batched call of the static operating-point
solver, so the transient waveform and the static transfer curve can never
disagree on settled levels. Rise/fall times are carried for documentation and
sampling-rate checks; edge shapes are not modeled because the glitch
mechanism is purely an ordering effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .network import DacConfig, Encoding, solve_columns


@dataclass(frozen=True)
class TimingParams:
    t_rise: float
    t_fall: float
    skew_max: float
    sample_period: float
    load_capacitance: float = 0.0  # oscilloscope/probe load, reporting only

    def __post_init__(self) -> None:
        for name in ("t_rise", "t_fall", "skew_max", "sample_period", "load_capacitance"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
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
        if any(not b > a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly ascending")


def _pin_owners(n_bits: int, encoding: Encoding) -> np.ndarray:
    """What decides each of the 2^n - 1 unit pins: its bit (binary) or its own index."""
    if encoding is Encoding.THERMOMETER:
        return np.arange((1 << n_bits) - 1)
    return np.repeat(np.arange(n_bits), 1 << np.arange(n_bits))


def _asserted(code: int, owners: np.ndarray, encoding: Encoding) -> np.ndarray:
    if encoding is Encoding.THERMOMETER:
        return owners < code
    return (code >> owners) & 1 == 1


def _checked(code: int, d_max: int) -> int:
    """The code as a Python int; ValueError unless it is an integer in 0..d_max."""
    if isinstance(code, bool) or not isinstance(code, (int, np.integer)):
        raise ValueError(f"code {code!r} is not an integer")
    if not 0 <= code <= d_max:
        raise ValueError(f"code {code} out of range 0..{d_max}")
    return int(code)


def pin_states(code: int, n_bits: int, encoding: Encoding) -> tuple[bool, ...]:
    """Asserted/deasserted state of each of the 2^n - 1 unit pins for a code.

    Binary: bit i owns the 2^i pins starting at index 2^i - 1.
    Thermometer: pin j is asserted iff j < code. Either way the asserted
    count equals the code, which is what makes the two encodings produce the
    same settled levels.
    """
    code = _checked(code, (1 << n_bits) - 1)
    return tuple(_asserted(code, _pin_owners(n_bits, encoding), encoding).tolist())


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
    codes = [_checked(c, d_max) for c in codes]
    if timing.skew_max >= timing.sample_period:
        raise ValueError("skew_max must be smaller than sample_period")
    if skew_mode not in ("deterministic", "random"):
        raise ValueError(f"unknown skew mode {skew_mode!r}")

    rng = np.random.default_rng(seed) if skew_mode == "random" else None
    owners = _pin_owners(config.n_bits, config.encoding)
    stagger = np.arange(d_max) * timing.skew_max / d_max
    # Pass 1: the event times of every transition and the asserted unit count
    # held from each on. The count before a transition is the old code, and
    # each changed pin moves it by one, in the order of its event time.
    state = _asserted(codes[0], owners, config.encoding)
    times = [np.zeros(1)]
    counts = [np.array([codes[0]])]
    annotations = [(0.0, codes[0])]
    for step, code in enumerate(codes[1:], start=1):
        t_code = step * timing.sample_period
        annotations.append((t_code, code))
        if rng is not None:  # drawn every step, so seeded waveforms never shift
            stagger = rng.uniform(0.0, timing.skew_max, size=d_max)
        target = _asserted(code, owners, config.encoding)
        pins = (state != target).nonzero()[0]
        t_event = t_code + stagger[pins]
        order = t_event.argsort(kind="stable")
        times.append(t_event[order])
        counts.append(codes[step - 1] + np.where(target[pins[order]], 1, -1).cumsum())
        state = target
    times, counts = np.concatenate(times), np.concatenate(counts)
    # Simultaneous events collapse to one sample holding the last count.
    last = np.append(times[1:] != times[:-1], True)

    # Pass 2: one batched solve resolves every distinct count. First-use order
    # makes a SolverError name the first failing count the replay reaches.
    needed = np.concatenate(([d_max, 0], counts))
    needed = needed[np.sort(np.unique(needed, return_index=True)[1])]
    # One float object per level, shared by every sample that holds it.
    level = dict(zip(needed.tolist(), solve_columns(config, needed)["vdac"].tolist()))
    vfs = level[d_max] - level[0]
    lsb_ref = vfs / d_max if vfs != 0.0 else config.vdd / d_max
    return Waveform(
        times=tuple(times[last].tolist()),
        values=tuple(map(level.__getitem__, counts[last].tolist())),
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
