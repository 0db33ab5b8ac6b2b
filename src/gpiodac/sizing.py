"""Parameter extraction from a transfer curve and correction-resistor sizing.

The extraction mirrors the bench procedure: read the threshold voltage off the
linear (triode-triode) region's span, and the unit on-resistance off the
per-GPIO current near mid-scale. The sizing formulas then place the parallel
resistors so the output pins at one threshold away from each rail, and the
series resistors so a chosen total current keeps both device groups in strong
inversion and simultaneous saturation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import groupby, repeat
from operator import attrgetter, eq
from typing import TYPE_CHECKING

from .config import (
    DacConfig,
    FourResistor,
    OperatingRegion,
    SizingError,
    Standalone,
    Topology,
    TwoResistor,
    _integer,
    _nonfinite_conductance,
)

if TYPE_CHECKING:
    from .network import TransferCurve


@dataclass(frozen=True)
class ExtractedParams:
    """Device knobs recovered from a standalone transfer curve.

    vth is conservative: at coarse code granularity the detected linear span
    undershoots the true one, which biases vth high, never low. ron is the
    mid-scale secant resistance of one unit (output voltage over per-unit
    current), the same quantity a bench measurement produces.
    """

    vth: float
    ron: float
    vdd: float
    linear_range: tuple[float, float]

    def __post_init__(self) -> None:
        if not 0.0 < self.vth < 0.5 * self.vdd:
            raise SizingError(
                f"vth must be within (0, vdd/2), got vth={self.vth}, vdd={self.vdd}"
            )
        if self.vdd == math.inf:  # vth < vdd/2 has passed, so vdd > 0
            raise SizingError("vdd must be finite, got inf")
        if not 0.0 < self.ron < math.inf:
            raise SizingError(f"ron must be finite and > 0, got {self.ron}")
        lo, hi = self.linear_range
        if not (0.0 <= lo <= hi <= self.vdd):
            raise SizingError(f"linear_range {self.linear_range} outside [0, vdd]")


@dataclass(frozen=True)
class SizingResult:
    topology: Topology
    predicted_dynamic_range: tuple[float, float]
    alpha_g: float | None = None
    it_bounds: tuple[float, float] | None = None
    rs_bounds: tuple[float, float] | None = None
    strong_inversion_ok: bool = True
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        """Refuse a number beyond float range, naming it: report.json holds every one."""
        for obj in (self.topology, self):
            for f in fields(obj):
                value = getattr(obj, f.name)
                numbers = value if isinstance(value, tuple) else (value,)
                if not all(math.isfinite(v) for v in numbers if isinstance(v, float)):
                    raise SizingError(f"{f.name} = {value} is not finite")


def extract_from_table(
    codes: list[int],
    vdac: list[float],
    i_per_pullup: list[float],
    region_p: list[str],
    region_n: list[str],
    vdd: float,
) -> ExtractedParams:
    """Extraction from raw columns (e.g. an imported measurement CSV).

    Rows are read in order, so the codes must be consecutive and ascending.
    Detects the linear region as the longest run of codes where both device
    groups are in triode, derives vth from its span, and inverts the triode
    law at the in-run code nearest mid-scale to get the unit resistance.
    """
    n = len(codes)
    if not (len(vdac) == len(i_per_pullup) == len(region_p) == len(region_n) == n):
        raise SizingError("column lengths differ")
    for before, code in zip(codes, codes[1:]):
        if code != before + 1:
            raise SizingError(
                f"codes must be consecutive and ascending: code {code} follows code {before}"
            )

    # Runs of both-triode codes; the longest wins, the first on a tie.
    triode = OperatingRegion.TRIODE.value
    both = map(eq, zip(region_p, region_n), repeat((triode, triode)))  # compared in C, row by row
    start = lo_idx = length = 0
    for in_run, cells in groupby(both):
        size = len(list(cells))
        if in_run and size > length:
            lo_idx, length = start, size
        start += size
    if length < 2:
        raise SizingError(
            "no triode-triode run of at least 2 codes found "
            "(curve too coarse, or already corrected)"
        )
    hi_idx = lo_idx + length - 1

    linear_range = (vdac[lo_idx], vdac[hi_idx])
    # The true region boundary falls between the last in-run code and its
    # out-of-run neighbor; take the midpoint of that bracket so the span (and
    # the vth read off it) is not biased by a full code step.
    edge_lo = 0.5 * (vdac[lo_idx - 1] + vdac[lo_idx]) if lo_idx > 0 else vdac[lo_idx]
    edge_hi = 0.5 * (vdac[hi_idx] + vdac[hi_idx + 1]) if hi_idx < n - 1 else vdac[hi_idx]
    span = edge_hi - edge_lo
    vth = 0.5 * (vdd - span)

    # The in-run code nearest mid-scale, the lowest on a tie. A NaN distance comes first, so
    # a NaN voltage in the run is the code read, and fails below rather than being passed over.
    half = 0.5 * vdd
    distance = {i: abs(vdac[i] - half) for i in range(lo_idx, hi_idx + 1)}
    mid_idx = min(distance, key=lambda i: (not math.isnan(distance[i]), distance[i]))
    i_unit = i_per_pullup[mid_idx]
    if i_unit <= 0.0:
        raise SizingError("no pull-up current at the mid-range code")

    # Invert the triode law at the measured point, then express the result as
    # the mid-scale secant resistance vds/i at vds = vdd/2.
    vov = vdd - vth
    vsd = vdd - vdac[mid_idx]
    denom = vov * vsd - 0.5 * vsd * vsd
    if denom <= 0.0:
        raise SizingError("mid-range point is not inside the triode region")
    k_est = i_unit / denom
    # No conductance (vth = 3/4 vdd, or an underflow) makes ron infinite, which ExtractedParams
    # refuses, naming the vth beyond vdd/2 first.
    conductance = k_est * (vov - 0.25 * vdd)
    ron = 1.0 / conductance if conductance else math.inf
    return ExtractedParams(vth=vth, ron=ron, vdd=vdd, linear_range=linear_range)


def extract_parameters(curve: TransferCurve) -> ExtractedParams:
    """Extraction from a simulated standalone curve."""
    if not isinstance(curve.config.topology, Standalone):
        raise SizingError("extraction expects a standalone (no-resistor) curve")
    columns = curve.columns
    return extract_from_table(
        codes=columns["code"].tolist(),
        vdac=columns["vdac"].tolist(),
        i_per_pullup=columns["i_per_pullup"].tolist(),
        # Each region's .value, read in C instead of through Enum's Python-level property.
        region_p=list(map(attrgetter("_value_"), columns["region_p"].tolist())),
        region_n=list(map(attrgetter("_value_"), columns["region_n"].tolist())),
        vdd=curve.config.vdd,
    )


def size_two_resistor(p: ExtractedParams, d_max: int) -> SizingResult:
    """Parallel-only correction: rpp = rpn = ron / alpha_g.

    alpha_g = d_max * vth / (vdd - 2 vth) stretches the triode-triode region
    over the whole code range, pinning the output at vth and vdd - vth.
    """
    d_max = _integer("d_max", d_max)
    if d_max < 1:
        raise SizingError(f"d_max must be >= 1, got {d_max}")
    window = p.vdd - 2.0 * p.vth  # > 0, since ExtractedParams holds 0 < vth < vdd/2
    alpha_g = d_max * p.vth / window
    if alpha_g == 0.0:
        raise SizingError(
            f"vth = {p.vth:.4g} V is too small: alpha_g = d_max * vth / (vdd - 2*vth) "
            "underflows to 0"
        )
    rp = p.ron / alpha_g
    if _nonfinite_conductance(p.vdd, [("rp", rp)]):
        raise SizingError(
            f"ron = {p.ron:.4g} ohm is too small: it sizes rpp = rpn = {rp:.4g} ohm, "
            "and vdd / rp is not finite"
        )
    return SizingResult(
        topology=TwoResistor(rpp=rp, rpn=rp),
        predicted_dynamic_range=(p.vth, p.vdd - p.vth),
        alpha_g=alpha_g,
        notes=("sizing assumes constant on-conductance inside the stretched region",),
    )


def size_four_resistor(
    p: ExtractedParams,
    it_target: float,
    split: float = 1.0,
    rs_total: float | None = None,
) -> SizingResult:
    """Series + parallel correction for a target total current.

    The feasible series total lies in
    [(vdd - 2 vth) / it, (vdd - vth) / it]; the lower edge opens the
    simultaneous-saturation window, the upper edge keeps the gate swing in
    strong inversion. The deterministic default is the interval midpoint
    (callers with board constraints may pass rs_total explicitly). Parallel
    resistors are vth / it on both sides, which pins one threshold of drop
    across them at the code-range ends.
    """
    if not 0.0 < it_target < math.inf:
        raise SizingError(f"it_target must be finite and > 0, got {it_target}")
    if not 0.0 <= split <= 1.0:
        raise SizingError(f"split must be in [0, 1], got {split}")
    window = p.vdd - 2.0 * p.vth  # > 0, since ExtractedParams holds 0 < vth < vdd/2
    rs_lo = window / it_target
    rs_hi = (p.vdd - p.vth) / it_target
    if rs_hi == math.inf:
        raise SizingError(
            f"it_target {it_target:.4g} A is too small: the series bound "
            f"(vdd - vth)/it_target overflows"
        )
    if rs_total is None:
        rs_total = 0.5 * rs_lo + 0.5 * rs_hi  # halved first, so the sum cannot overflow
        notes = ("rs_total set to the midpoint of its feasible interval",)
    else:
        notes = ()
        if math.isnan(rs_total):
            raise SizingError("rs_total must be a number, got nan")
        if rs_total < rs_lo * (1.0 - 1e-12):
            raise SizingError(
                f"rs_total {rs_total:.4g} below saturation-window bound {rs_lo:.4g} "
                f"(vdd - 2*vth)/it_target"
            )
        if rs_total > rs_hi * (1.0 + 1e-12):
            raise SizingError(
                f"rs_total {rs_total:.4g} violates strong-inversion bound {rs_hi:.4g} "
                f"(vdd - vth)/it_target"
            )
    rsp = split * rs_total
    rsn = (1.0 - split) * rs_total
    rp = p.vth / it_target
    bad = _nonfinite_conductance(p.vdd, [("rsp", rsp), ("rsn", rsn), ("rpp", rp), ("rpn", rp)])
    if bad is not None:
        raise SizingError(
            f"it_target {it_target:.4g} A with split {split:.4g} sizes {bad[0]} = {bad[1]:.4g} ohm, "
            f"and vdd / {bad[0]} is not finite"
        )
    strong_inversion_ok = p.vdd - it_target * rs_total >= p.vth
    vdac_min = p.vdd - it_target * rsp - p.vth
    vdac_max = it_target * rsn + p.vth
    return SizingResult(
        topology=FourResistor(rsp=rsp, rsn=rsn, rpp=rp, rpn=rp),
        predicted_dynamic_range=(vdac_min, vdac_max),
        it_bounds=(window / rs_total, (p.vdd - p.vth) / rs_total),
        rs_bounds=(rs_lo, rs_hi),
        strong_inversion_ok=strong_inversion_ok,
        notes=notes,
    )


def check_saturation_window(config: DacConfig) -> list[bool]:
    """Per-code flags: do the solved rails put both groups in saturation?

    Evaluated on the solved node voltages: strong inversion vd - vs >= vth,
    pull-down saturation vdac >= vd - vth, pull-up saturation
    vdac <= vs + vth. Without series resistors the last two require
    vdd <= 2 vth, so the window is empty for any realistic device; that is
    exactly why the four-resistor correction exists.
    """
    import numpy as np  # here, so that importing sizing loads no numpy

    from .network import _solve

    pmos = config.devices.pmos
    nmos = config.devices.nmos
    vth_p = getattr(pmos, "vth", 0.0)
    vth_n = getattr(nmos, "vth", 0.0)
    # The curve's voltages alone; right after transfer_curve(config), _solve serves that batch again.
    _, (vdac, vd, vs) = _solve([config], np.arange(config.d_max + 1))
    strong = vd - vs >= max(vth_n, vth_p)
    return (strong & (vdac >= vd - vth_n) & (vdac <= vs + vth_p)).tolist()
