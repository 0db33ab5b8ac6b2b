"""First-order transistor model for the GPIO output stage.

A GPIO output driver is treated as a CMOS pair: one PMOS unit pulling toward
the local supply rail and one NMOS unit pulling toward the local ground rail.
Currents follow the square law with channel-length modulation neglected, so a
device is fully described by its threshold voltage and transconductance
parameter. All voltages handled here are source-referenced magnitudes; which
rail a unit pulls toward is the ``DevicePair`` slot it fills.

``LinearSwitch`` is the ideal counterpart (a fixed on-conductance with no
threshold); it turns the network into a plain resistor divider and is used to
check that the nonlinear solver degenerates to the ideal DAC.

``current_and_derivatives``, the package's one square law, takes floats or
arrays, one element per solver lane, so a whole batch of operating points is
evaluated in one call. The solver calls the law's private forms: ``_law``,
which leaves out the derivatives its caller drops, and ``_at_ends``, its
values at the ends of the output node's bracket, where one group has vds = 0
and the other vds = vgs. The solver decides each group's operating region
itself, from the voltages it solved. The device types themselves
(``MosfetParams``, ``LinearSwitch``, ``DevicePair``, ``calibrated_pair``)
are defined in ``config``.
"""

from __future__ import annotations

import numpy as np

from .config import LinearSwitch, UnitDevice


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
    return _law(p, _overdrive(p, vgs), vds)


def _overdrive(p: UnitDevice, vgs):
    """vgs - vth, or 0 in cutoff; None for a LinearSwitch, which has no threshold."""
    return None if isinstance(p, LinearSwitch) else np.maximum(np.subtract(vgs, p.vth), 0.0)


def _law(p: UnitDevice, vov, vds, dvgs: bool = True, dvds: bool = True):
    """current_and_derivatives from the unit's _overdrive. A derivative the caller does not
    ask for is None and is not computed; every other element is the same float."""
    mag = np.abs(vds)
    if isinstance(p, LinearSwitch):
        i = p.g * mag
        di_g = np.zeros_like(mag) if dvgs else None
        di_d = np.full_like(mag, p.g) if dvds else None
    else:
        m = np.minimum(mag, vov)  # saturation holds vds at vov
        di_g = p.k * m
        di_d = p.k * (vov - m) if dvds else None
        i = di_g * (vov - 0.5 * m)
    return np.copysign(i, vds), (np.copysign(di_g, vds) if dvgs else None), di_d


def _at_ends(p: UnitDevice, vov, vds):
    """(i, di/dvds) of a unit where its vds is 0 and where it is vgs, bit for bit what
    current_and_derivatives gives there, from a few operations per element.

    These are the ends of the output node's bracket [vs, vd]: at each, one
    group has vds = 0 and the other vds = vgs, which saturates a MosfetParams
    (vgs >= vov). vov is the unit's _overdrive; vds() gives the two vds as
    the bracket's ends make them, and a LinearSwitch is evaluated there.
    Where vs > vd the bracket collapses to vd and those vds are not 0 and
    vgs, but vgs < 0 then cuts a MosfetParams off: it carries nothing. A
    None is a 0 whatever vov is: the current at vds = 0, the slope in
    saturation.
    """
    if isinstance(p, LinearSwitch):
        return [_law(p, vov, v, dvgs=False)[::2] for v in vds()]
    di_d = p.k * vov  # the slope at vds = 0
    return (None, di_d), (di_d * (vov - 0.5 * vov), None)

