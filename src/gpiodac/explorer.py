"""Resistor-value sweeps and the resulting linearity/current trade-off table.

Larger parallel resistors widen the dynamic range and cut the total current
but weaken the stretching that keeps the devices in their well-matched region,
so DNL/INL degrade; the sweep makes that trade-off explicit so a designer can
pick a point. The points solve as one batch, but a point whose metrics fail
(a zero full-scale span) keeps its error in its own row: sweeps exist
precisely to find the corners where the network misbehaves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .config import DacConfig, FourResistor, MetricsError, TwoResistor
from .metrics import LinearityReport, summary
from .network import _curves

SWEEP_COLUMNS = (
    "rp_ohm",
    "rs_ohm",
    "dnl_max_lsb",
    "inl_max_lsb",
    "dr_volt",
    "imax_amp",
    "monotonic",
    "status",
)


@dataclass(frozen=True)
class SweepPoint:
    rp: float
    rs: float
    report: LinearityReport | None
    status: str  # "ok" or "error: <reason>"


def _with_rp(config: DacConfig, rp: float) -> DacConfig:
    topo = config.topology
    if isinstance(topo, TwoResistor):
        return replace(config, topology=TwoResistor(rpp=rp, rpn=rp))
    if isinstance(topo, FourResistor):
        return replace(config, topology=replace(topo, rpp=rp, rpn=rp))
    raise ValueError("sweep base must use a two-resistor or four-resistor topology")


def _rs_of(config: DacConfig) -> float:
    topo = config.topology
    if isinstance(topo, FourResistor):
        return topo.rsp + topo.rsn
    return 0.0


def sweep_parallel(base: DacConfig, rp_values: Sequence[float]) -> list[SweepPoint]:
    """A report per parallel resistor value, bit for bit summary(transfer_curve(config)).

    The curves solve as one lane batch; output order follows the input. A point
    whose metrics fail is recorded in-row with an error status and the sweep
    continues.
    """
    if len(rp_values) == 0:
        raise ValueError("rp_values must be non-empty")
    rs = _rs_of(base)
    points = []
    for rp, curve in zip(rp_values, _curves([_with_rp(base, rp) for rp in rp_values])):
        try:
            points.append(SweepPoint(rp=rp, rs=rs, report=summary(curve), status="ok"))
        except MetricsError as exc:
            points.append(SweepPoint(rp=rp, rs=rs, report=None, status=f"error: {exc}"))
    return points


def sweep_rows(points: Sequence[SweepPoint]) -> list[tuple]:
    """CSV rows matching SWEEP_COLUMNS."""
    rows = []
    for p in points:
        if p.report is None:
            rows.append((p.rp, p.rs, "", "", "", "", "", p.status))
        else:
            r = p.report
            rows.append(
                (
                    p.rp,
                    p.rs,
                    r.dnl_max_abs,
                    r.inl_max_abs,
                    r.dynamic_range,
                    r.i_max,
                    str(r.monotonic).lower(),
                    p.status,
                )
            )
    return rows
