"""Static linearity and current figures of merit for a transfer curve.

DNL/INL are referenced to the end-point line (code 0 to code d_max), the
stricter and simpler of the two common conventions; the report records the
choice so a best-fit variant can be added without ambiguity. Metrics are
always computed over the full code range: a corrected configuration compresses
the voltage span, but the code count (and therefore the LSB denominator)
stays put.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .config import MetricsError
from .network import TransferCurve

# Adjacent steps this far negative (in volts) still count as monotone; the
# operating-point solver is only trusted to ~1e-9 V.
MONOTONIC_SLACK = 1e-9


@dataclass(frozen=True)
class LinearityReport:
    dnl: tuple[float, ...]
    inl: tuple[float, ...]
    dnl_max_abs: float
    inl_max_abs: float
    dynamic_range: float
    monotonic: bool
    i_max: float
    i_at_midrange: float
    lsb_ref: float
    inl_reference: ClassVar[str] = "endpoint"


def _linearity(levels: Sequence[float]) -> tuple[np.ndarray, np.ndarray, float]:
    """(DNL, INL, LSB) of levels: the per-step deviation from one LSB (length d_max) and the
    deviation from the end-point line (length d_max + 1), in LSB units, and the LSB in volts."""
    v = np.asarray(levels, dtype=float)
    if v.size < 2:
        raise MetricsError("need at least 2 levels")
    span = float(v[-1] - v[0])
    if span == 0.0:
        raise MetricsError("zero full-scale span: vdac(d_max) equals vdac(0)")
    lsb = span / (v.size - 1)
    return np.diff(v) / lsb - 1.0, (v - (v[0] + lsb * np.arange(v.size))) / lsb, lsb


def summary(curve: TransferCurve) -> LinearityReport:
    levels = curve.vdac
    currents = curve.i_total
    d, i, lsb = _linearity(levels)
    deltas = np.diff(levels)
    d_max = curve.config.d_max
    mid_code = (d_max + 1) // 2
    return LinearityReport(
        dnl=tuple(d.tolist()),
        inl=tuple(i.tolist()),
        dnl_max_abs=float(np.max(np.abs(d))),
        inl_max_abs=float(np.max(np.abs(i))),
        dynamic_range=float(levels[-1] - levels[0]),
        monotonic=bool(np.all(deltas >= -MONOTONIC_SLACK)),
        i_max=float(np.max(np.abs(currents))),
        i_at_midrange=float(currents[mid_code]),
        lsb_ref=lsb,
    )
