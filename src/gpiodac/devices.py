"""First-order transistor model for the GPIO output stage.

A GPIO output driver is treated as a CMOS pair: one PMOS unit pulling toward
the local supply rail and one NMOS unit pulling toward the local ground rail.
Currents follow the square law with channel-length modulation neglected, so a
device is fully described by its threshold voltage and transconductance
parameter. All voltages handled here are source-referenced magnitudes; the
``polarity`` field only records which sign convention the caller must apply.

``LinearSwitch`` is the ideal counterpart (a fixed on-conductance with no
threshold); it turns the network into a plain resistor divider and is used to
check that the nonlinear solver degenerates to the ideal DAC.

``current_and_derivatives`` and ``classify_region`` also take arrays, one
element per solver lane, so a whole batch of operating points is evaluated in
one call. The device types themselves (``MosfetParams``, ``LinearSwitch``,
``DevicePair``, ``calibrated_pair``) are defined in ``config``.
"""

from __future__ import annotations

import numpy as np

# The device types are defined in the numpy-free config layer and importable from here too.
from .config import (
    DeviceError,
    DevicePair,
    LinearSwitch,
    MosfetParams,
    OperatingRegion,
    Polarity,
    UnitDevice,
    calibrated_pair,
)

_REGIONS = np.array(
    [OperatingRegion.CUTOFF, OperatingRegion.TRIODE, OperatingRegion.SATURATION], dtype=object
)


def classify_region(p: UnitDevice, vgs_mag: float | np.ndarray, vds_mag: float | np.ndarray):
    """Operating region at (vgs, vds), both source-referenced magnitudes.

    The vds == vgs - vth boundary is assigned to saturation (both current
    formulas agree there, but reporting must be deterministic). Array inputs
    give an object array holding one region per element.
    """
    _check_domain(np.min(vgs_mag), np.min(vds_mag))
    if isinstance(p, LinearSwitch):
        index = np.ones(np.broadcast(vgs_mag, vds_mag).shape, dtype=int)
    else:
        index = np.where(vgs_mag < p.vth, 0, np.where(vds_mag >= vgs_mag - p.vth, 2, 1))
    return _REGIONS[index]


def drain_current(p: UnitDevice, vgs_mag: float, vds_mag: float) -> float:
    """Drain current [A] of one unit device at source-referenced magnitudes."""
    _check_domain(vgs_mag, vds_mag)
    if isinstance(p, LinearSwitch):
        return p.g * vds_mag
    vov = vgs_mag - p.vth
    if vov <= 0.0:
        return 0.0
    if vds_mag >= vov:
        return 0.5 * p.k * vov * vov
    return p.k * (vov * vds_mag - 0.5 * vds_mag * vds_mag)


def on_resistance(p: UnitDevice, vgs_mag: float) -> float:
    """Small-signal triode resistance 1/(k*(vgs - vth)) at vds -> 0 [ohm]."""
    if isinstance(p, LinearSwitch):
        return 1.0 / p.g
    if vgs_mag <= p.vth:
        raise DeviceError(
            f"no conduction: vgs {vgs_mag} V does not exceed vth {p.vth} V"
        )
    return 1.0 / (p.k * (vgs_mag - p.vth))


def midrange_resistance(p: UnitDevice, vgs_mag: float, vdd: float) -> float:
    """Secant resistance vds/i of one unit at vds = vdd/2 [ohm].

    This is the quantity a bench extraction sees when dividing the mid-scale
    output voltage by the per-GPIO current; it is larger than the small-signal
    on-resistance because the triode curve bends over.
    """
    if isinstance(p, LinearSwitch):
        return 1.0 / p.g
    half = 0.5 * vdd
    i = drain_current(p, vgs_mag, half)
    if i <= 0.0:
        raise DeviceError("no conduction at mid-scale; device stays cut off")
    return half / i


def current_and_derivatives(
    p: UnitDevice, vgs: float | np.ndarray, vds: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, di/dvgs, di/dvds) with a signed extension for solver iterations.

    Off-solution points may put vds < 0 or vgs < 0; the current is extended
    antisymmetrically in vds and clamped to cutoff for vgs <= vth, so the
    branch stays continuous, C1 and monotone. vgs and vds are floats or
    arrays that broadcast together, one element per solver lane (or point),
    and every element is the float a one-element call gives.
    """
    mag = np.abs(vds)
    if isinstance(p, LinearSwitch):
        i, dvgs, dvds = p.g * mag, np.zeros_like(mag), np.full_like(mag, p.g)
    else:
        vov = np.maximum(np.subtract(vgs, p.vth), 0.0)  # no overdrive in cutoff
        m = np.minimum(mag, vov)  # saturation holds vds at vov
        dvgs = p.k * m
        dvds = p.k * (vov - m)
        i = dvgs * (vov - 0.5 * m)
    return np.copysign(i, vds), np.copysign(dvgs, vds), dvds


def _check_domain(vgs_mag: float, vds_mag: float) -> None:
    if vgs_mag < 0.0 or vds_mag < 0.0:
        raise DeviceError(
            f"voltages must be source-referenced magnitudes >= 0, "
            f"got vgs={vgs_mag}, vds={vds_mag}"
        )
