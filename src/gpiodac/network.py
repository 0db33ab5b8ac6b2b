"""DC operating points of the shorted-GPIO DAC network, solved in lane batches.

For an input code m out of d_max = 2^n - 1 unit cells, m drivers pull up and
d_max - m pull down into the common output node. One network is solved,
its config's Network saying which of its resistors are present:

* parallel resistors rpp (supply side to output) and rpn (output to ground
  side) stretch the linear region;
* series resistors rsp/rsn derate the local rails vd/vs, which also lowers
  the gate swing (driver gates ride the local rails, so vgs = vd - vs for
  both device groups).

Without either, the drivers alone are the standalone DAC, whose local rails
are the supply rails; a conductance of an absent resistor is 0.

The nonlinear system is the KCL balance at the floating nodes: the output,
and the local rails vd/vs when series resistors are present. One solve takes
an array of pull-up counts, one lane per count; every step is an array
operation over the lanes that still need it.

* The output node is solved exactly. With the rails held, each group's unit
  current is piecewise quadratic in vdac (square law without channel-length
  modulation, extended antisymmetrically to vds < 0), so the residual is a
  decreasing, C1, piecewise-quadratic function of vdac. Its knees are where
  a group saturates or its vds changes sign. The two knees that bracket the
  root fix one quadratic, whose root the cancellation-free formula gives.
  Within [vs, vd] the residual is needed on four rows: the bracket's ends
  and the two saturation knees between them. The general law runs on the
  two knee rows only. At each end one group has vds = 0 and the other
  vds = vgs, which saturates it, so both follow per lane from k*vov in a few
  operations, bit for bit what the law gives there. A lane whose root
  supply-attached resistors pull past the local rails is solved again over
  [0, vdd], on the general rows.
* The rails of a network with series resistors are solved by Newton steps
  kept inside per-lane brackets (0 <= vs <= vd <= vdd), bisecting where a
  step leaves its bracket or stalls, each evaluation putting the levels below
  on their balance. On inner rails, without rsn, and without parallel
  resistors (whose attach mode then changes nothing), the level is the
  current through rsp, which sets vd and vs; on supply rails with rsn > 0,
  it is vd, with vs nested inside it.
  Derivatives follow the balances by implicit differentiation. A lane stops
  once its residual is within rounding of its currents, or once its step or
  bracket is a few ulps of vdd.

No level can fail, so no finite config fails to solve. A lane's
voltages depend only on its own count and config, so a batch gives each lane
bit for bit its one-code result, with one exception: a batch with series
resistors of over 2 * WARM_STRIDE distinct counts starts its rails from
solves at every WARM_STRIDE-th count, interpolated. Such a batch agrees with one-code solves
only as far as rounding defines the rails: ~1e-13 V for 12-bit curves of
calibrated devices, more where the rails are weakly tied to the supply.
Configs that differ only in rpp/rpn (an rp sweep) solve as one batch with
per-lane conductances, each curve bit for bit as it solves alone; a batch
of one config keeps them as floats. A solve
returns columns, one array per NodeSolution field with one entry per lane; a
TransferCurve keeps them and builds its NodeSolution rows only when they are
first read.

A solve's arrays are read-only: the solved voltages are made so once, and
are what a repeated batch is served; a TransferCurve's columns are a
read-only mapping of read-only views. A write into either raises, so no
caller can change what another one reads.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import groupby
from types import MappingProxyType
from typing import Any, Mapping, Sequence

import numpy as np

from .config import DacConfig, MosfetParams, OperatingRegion, ParallelAttach, _is_integer
from .devices import _at_ends, _law, _overdrive, current_and_derivatives

MAX_ITERATIONS = 200  # Newton or bisection steps per lane and rail level
WARM_STRIDE = 64  # coarse-grid spacing, in distinct counts, of a large series batch's start
_RTOL = 1e-15  # rounding left on a node's residual, relative to its current magnitudes
_ATOL = 1e-18  # amperes, for nodes that carry no current
_XTOL = 8.0 * np.finfo(float).eps  # of a level's span: a root this close is as good as found
_MAX_LANES = 1 << 16  # lanes of one batch of whole curves (one 16-bit curve): bounds peak memory
_DISCARDED = dict(divide="ignore", over="ignore", invalid="ignore")  # a solve's nan and inf are dropped
_REGIONS = np.array(
    [OperatingRegion.CUTOFF, OperatingRegion.TRIODE, OperatingRegion.SATURATION], dtype=object
)


@dataclass(frozen=True)
class NodeSolution:
    """Solved DC point for one input code (or raw unit count mid-transition)."""

    code: int
    vdac: float
    vd: float
    vs: float
    i_total: float
    i_per_pullup: float
    i_per_pulldown: float
    i_rpp: float
    i_rpn: float
    region_p: OperatingRegion
    region_n: OperatingRegion
    kcl_residual: float


FIELDS = tuple(f.name for f in fields(NodeSolution))
# One array per NodeSolution field, in field order, one entry per lane; the regions are
# object arrays.
Columns = Mapping[str, np.ndarray]


def _rows(columns: Columns) -> tuple[NodeSolution, ...]:
    return tuple(map(NodeSolution, *(c.tolist() for c in columns.values())))


@dataclass(frozen=True, eq=False)
class TransferCurve:
    """Solved codes 0..d_max, kept as columns; rows are built on first access.

    columns is a read-only mapping of read-only views of the columns the
    curve is given, arrays or array-likes each of d_max + 1 entries: neither
    a write into a column nor rebinding one changes the curve, and the
    arrays passed in stay as writable as they were. vdac and i_total are
    those views.
    """

    config: DacConfig
    columns: Columns

    def __post_init__(self) -> None:
        if tuple(self.columns) != FIELDS:
            raise ValueError(f"columns must be {FIELDS}, got {tuple(self.columns)}")
        n = self.config.d_max + 1
        if not np.array_equal(self.columns["code"], np.arange(n)):
            raise ValueError("the code column must be 0..d_max in ascending order")
        columns = {}
        for name, column in self.columns.items():
            column = columns[name] = np.asarray(column).view()
            if column.shape != (n,):
                raise ValueError(f"the {name} column has {column.size} entries, not d_max + 1 = {n}")
            column.setflags(write=False)
        object.__setattr__(self, "columns", MappingProxyType(columns))

    @cached_property
    def rows(self) -> tuple[NodeSolution, ...]:
        return _rows(self.columns)

    @property
    def vdac(self) -> np.ndarray:
        return self.columns["vdac"]

    @property
    def i_total(self) -> np.ndarray:
        return self.columns["i_total"]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransferCurve):
            return NotImplemented
        return self.config == other.config and all(
            np.array_equal(c, other.columns[name]) for name, c in self.columns.items()
        )

    def __hash__(self) -> int:
        return hash(self.config)

    def __reduce__(self) -> tuple:
        # A mappingproxy does not pickle or deep-copy; the curve rebuilds from a dict of columns.
        return TransferCurve, (self.config, dict(self.columns))


class _Lanes:
    """KCL of a batch of lanes, one pull-up count and config per lane, and its solve.

    The lanes are the counts under each config in turn. The configs' networks
    are one network with its parallel resistors changed at most (an rp sweep),
    all solved on one rail path, so where they differ gpp and gpn are per-lane
    arrays like up and dn, else floats. Node voltages are floats or arrays
    over the lanes; take(lanes) gives the batch of some lanes, and
    take(slice(None)) the batch itself.
    """

    def __init__(self, configs: Sequence[DacConfig], counts: np.ndarray):
        self.cfg = config = configs[0]
        topo = config.topology
        self.series, self.has_vs = topo.has_series, topo.rsn > 0.0
        gp = [(1.0 / c.topology.rpp, 1.0 / c.topology.rpn) for c in configs]
        if len(set(gp)) == 1:
            self.gpp, self.gpn = gp[0]
        else:
            point = np.repeat(np.arange(len(configs)), len(counts))
            self.gpp, self.gpn = (np.array(g)[point] for g in zip(*gp))
        counts = np.tile(counts, len(configs))
        self.gp = self.gpp + self.gpn
        self.inner = _inner_path(config)
        self.gsp = 1.0 / topo.rsp if self.series else 0.0
        self.gsn = 1.0 / topo.rsn if self.has_vs else 0.0
        # Inner rails carry one current from rsp through the network to rsn, so vs is tied to
        # vd: gsn*vs = gsp*(vdd - vd), and dvs/dvd = -tie.
        self.tie = self.gsp / self.gsn if self.has_vs and self.inner else 0.0
        self.counts = counts
        self.up, self.dn = counts.astype(float), (config.d_max - counts).astype(float)

    def take(self, lanes) -> _Lanes:
        if isinstance(lanes, slice):
            return self
        sub = copy(self)
        for name in ("counts", "up", "dn", "gpp", "gpn", "gp"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                setattr(sub, name, value[lanes])
        return sub

    def knees(self, vd, vs, over, wide: bool) -> list:
        """vdac where a group's unit current changes formula: it saturates, or its vds changes
        sign. over holds each group's vgs - vth, None for a LinearSwitch, which has no knee.
        Within [vs, vd] only the saturation edges fall; wide adds those past the rails."""
        knees = []
        for rail, u, pmos in ((vd, over[0], True), (vs, over[1], False)):
            if u is not None:
                knees += [rail - u, rail, rail + u] if wide else [rail - u if pmos else rail + u]
        return knees

    def output_node(self, vd, vs, wide: bool = False) -> np.ndarray:
        """vdac at which the output node balances, the rails held at vd and vs.

        The residual f falls from >= 0 at lo to <= 0 at hi. Between the knees
        it is quadratic, and it is C1 across them. The last point with f >= 0
        and the next one bound the root, which f and df/dvdac there give in
        closed form. The root lies within [lo, hi] = [vs, vd] on inner rails.
        Supply-attached resistors can pull it past the local rails, but not
        past the supply rails (0 <= vs <= vd <= vdd): a lane whose root is
        not within [vs, vd] is solved again over [0, vdd] (wide).
        """
        cfg = self.cfg
        vgs = vd - vs
        over = [vgs - dev.vth if isinstance(dev, MosfetParams) else None
                for dev in (cfg.devices.pmos, cfg.devices.nmos)]
        vov = [None if u is None else np.maximum(u, 0.0) for u in over]  # as _overdrive gives it
        lo, hi = (0.0, cfg.vdd) if wide else (vs, vd)
        knees = self.knees(vd, vs, over, wide)
        # One row per point, ascending; one column per lane (or one for all lanes).
        at = np.empty((len(knees) + 2, np.size(vgs)))
        at[0], at[-1] = lo, hi
        if not wide and len(knees) == 2:  # in order, as a sort over rows would put them, faster
            np.minimum(*knees, out=at[1])
            np.maximum(*knees, out=at[2])
        else:
            for row, knee in enumerate(knees, 1):
                at[row] = knee
        at = np.minimum(np.maximum(at, lo, out=at), hi, out=at)  # np.clip, without its wrapper
        if wide:
            at.sort(axis=0)
        f, s = self.output_kcl(at, vd, vs, vov, bracket=not wide)
        n = len(self.up)
        above = np.add.reduce(f >= 0.0, axis=0)  # f falls along the rows, >= 0 at lo
        left, right = above - 1, np.minimum(above, len(at) - 1)
        # Flat indices of each lane's two rows in f and s, and in at, which may have one column
        # for all lanes; a left of -1 is the last row, as in f[-1].
        lanes = np.arange(n)
        i0, i1 = left * n + lanes, right * n + lanes
        j0, j1 = (i0, i1) if at.shape[1] > 1 else (left, right)
        points, slopes = at.ravel(), s.ravel()
        x0, x1, f0, s0, s1 = points[j0], points[j1], f.ravel()[i0], slopes[i0], slopes[i1]
        # f0 - s0*t + a*t^2 = 0 on [x0, x1], where s is linear, a = (s0 - s1) / (2 (x1 - x0));
        # s0 > 0 <= f0, so the root 2*f0 / (sqrt(s0^2 - 4*a*f0) + s0) adds two terms of one sign.
        # Where x1 = x0 the root is x0 (a may be nan there; fmin drops the nan).
        a2 = (s0 - s1) / (x1 - x0)
        t = 2.0 * f0 / (np.sqrt(np.maximum(s0 * s0 - 2.0 * a2 * f0, 0.0)) + s0)
        vdac = np.fmin(x0 + np.where(f0 > 0.0, t, 0.0), x1)
        if not (self.inner or wide):
            miss = np.flatnonzero((f[0] < 0.0) | (f[-1] > 0.0))
            if miss.size:
                vd, vs = (v[miss] if np.ndim(v) else v for v in (vd, vs))
                vdac[miss] = self.take(miss).output_node(vd, vs, wide=True)
        return vdac

    def output_kcl(self, at, vd, vs, vov, bracket: bool):
        """Output-node residual f and -df/dvdac at the rows of at, one column per lane (or one
        for all lanes); vov holds each group's _overdrive.

        On a bracket, the first and last rows are the ends of [vs, vd], clipped
        (min(vs, vd) and vd), and the general law runs on the rows between
        only. At each end one group has vds = 0 and the other vds = vgs, so
        _at_ends gives their currents and slopes there, bit for bit.
        """
        cfg = self.cfg
        pmos, nmos = cfg.devices.pmos, cfg.devices.nmos
        f, s = np.empty((2, len(at), len(self.up)))
        rows = slice(1, -1) if bracket else slice(None)
        ip, _, dip = _law(pmos, vov[0], vd - at[rows], dvgs=False)
        in_, _, din = _law(nmos, vov[1], at[rows] - vs, dvgs=False)
        np.subtract(self.up * ip, self.dn * in_, out=f[rows])
        np.add(self.up * dip, self.dn * din, out=s[rows])
        if bracket:
            lo, hi = at[0], at[-1]
            # (i, di/dvds) of each group at the end where its vds is 0, then where it is vgs.
            (ip_hi, dip_hi), (ip_lo, dip_lo) = _at_ends(pmos, vov[0], lambda: (vd - hi, vd - lo))
            (in_lo, din_lo), (in_hi, din_hi) = _at_ends(nmos, vov[1], lambda: (lo - vs, hi - vs))
            up, dn = self.up, self.dn
            for row, ip, in_, dip, din in ((0, ip_lo, in_lo, dip_lo, din_lo),
                                           (-1, ip_hi, in_hi, dip_hi, din_hi)):
                # A None is a 0 that _at_ends knows of; 0.0 stands for its product, bit for bit.
                np.subtract(0.0 if ip is None else up * ip, 0.0 if in_ is None else dn * in_, out=f[row])
                np.add(0.0 if dip is None else up * dip, 0.0 if din is None else dn * din, out=s[row])
        resistors = self.gpp * (vd if self.inner else cfg.vdd) + (self.gpn * vs if self.inner else 0.0)
        f += resistors - self.gp * at
        s += self.gp
        return f, s

    def rails(self, vdac, vd, vs):
        """Levels (residual, derivative, tolerance, curvature) of the vd node, with dvs/dvd,
        and of the vs node where it is solved on its own (supply rails, rsn > 0), else None.

        vdac is on its balance; derivatives follow it, and vs(vd) (the tie or the vs
        balance), by implicit differentiation. A tolerance is _RTOL times the node's
        branch currents and its conductance to vdac times vdac, plus _ATOL; vd's adds what
        vs's tolerance moves it by. The curvature is the residual's if the current through
        the devices were the square of a linear function of the node voltage.
        """
        cfg = self.cfg
        vgs = vd - vs
        ip, dip_g, dip_d = current_and_derivatives(cfg.devices.pmos, vgs, vd - vdac)
        in_, din_g, din_d = current_and_derivatives(cfg.devices.nmos, vgs, vdac - vs)
        gpp, gpn = (self.gpp, self.gpn) if self.inner else (0.0, 0.0)  # parallel resistors on the rails
        # Conductances of the groups and resistors seen from the nodes; f, g, h are the output,
        # vd and vs residuals, and e.g. f_x is -df/dvdac.
        p_d, p_g, n_d, n_g = self.up * dip_d, self.up * dip_g, self.dn * din_d, self.dn * din_g
        f_x = p_d + n_d + self.gp
        g_x = p_d + gpp
        x_d = (g_x + p_g - n_g) / f_x  # dvdac/dvd
        dg = -self.gsp - p_g - g_x * (1.0 - x_d)
        supplied, drawn = self.gsp * (cfg.vdd - vd), self.up * ip + gpp * (vd - vdac)
        g = supplied - drawn
        tol = _RTOL * (supplied + np.abs(drawn) + np.abs(g_x * vdac)) + _ATOL
        s_d, vs_level = -self.tie, None  # dvs/dvd; the tie is 0 without rsn
        if self.has_vs:
            h_x = n_d + gpn
            x_s = (h_x + n_g - p_g) / f_x  # dvdac/dvs along the output balance
            g_s = p_g + g_x * x_s  # dg/dvs along the output balance
            if not self.inner:
                dh = -self.gsn - n_g - h_x * (1.0 - x_s)
                arriving = self.dn * in_  # from the network into the vs node
                h_tol = _RTOL * (np.abs(arriving) + self.gsn * vs + np.abs(h_x * vdac)) + _ATOL
                s_d = (n_g + h_x * x_d) / -dh  # along the vs balance
                tol = tol + np.abs(g_s) * np.maximum(h_tol / -dh, _XTOL * cfg.vdd)
                vs_level = arriving - self.gsn * vs, dh, h_tol, _square_law(arriving, dh + self.gsn)
            dg = dg + g_s * s_d
        return (g, dg, tol, -_square_law(drawn, dg + self.gsp), s_d), vs_level

    def solve(self, start=None):
        """(vdac, vd, vs) of every lane; a rail without a series resistor is one float.

        The vd node is solved by bracketed Newton, from vdd or the start's
        (vd, vs); vdac is on its balance at every step. On inner rails (as
        _inner_path decides), or without rsn, the level is the current through
        rsp, which sets vd and (tied) vs. On supply rails with rsn > 0, it is
        vd itself, and vs is on its balance too, found the same way in [0, vd].
        """
        vdd = self.cfg.vdd
        if not self.series:
            return self.output_node(vdd, 0.0), vdd, 0.0
        n = len(self.counts)
        vd, vs = start or (np.full(n, vdd), np.zeros(n))
        vdac = np.empty(n)
        if self.inner or not self.has_vs:
            # Solved in the current i through rsp, which also flows through rsn: vd = vdd - rsp*i
            # and vs = rsn*i keep their precision whatever the ratio of rsp to rsn.
            rsp, rsn = self.cfg.topology.rsp, self.cfg.topology.rsn
            top = vdd / (rsp + rsn)  # where vs meets vd

            def i_node(lanes, i):
                net, x, y = self.take(lanes), vdd - rsp * i, rsn * i if self.has_vs else 0.0
                vdac[lanes] = v = net.output_node(x, y)
                g, dg, tol, c = net.rails(v, x, y)[0][:4]
                return -g, rsp * dg, tol, -rsp * rsp * c

            i = _bracketed(i_node, np.clip((vdd - vd) / rsp, 0.0, top), 0.0, top, top)
            return vdac, vdd - rsp * i, rsn * i if self.has_vs else 0.0

        # vd's level at each lane's last vs point; where vd moves, vs starts on its tangent.
        level, last_vd, slope = np.empty((4, n)), vd.copy(), np.zeros(n)

        def vd_node(lanes, x):
            net = self.take(lanes)

            def vs_node(pos, y):
                sub, at = net.take(pos), pos if isinstance(lanes, slice) else lanes[pos]
                vdac[at] = v = sub.output_node(x[pos], y)
                (*level[:, at], slope[at]), vs_level = sub.rails(v, x[pos], y)
                return vs_level

            vs0 = np.clip(vs[lanes] + slope[lanes] * (x - last_vd[lanes]), 0.0, x)
            vs[lanes] = _bracketed(vs_node, vs0, 0.0, x, vdd)
            last_vd[lanes] = x
            return level[:, lanes]

        return vdac, _bracketed(vd_node, vd, 0.0, vdd, vdd), vs

    def columns(self, vdac, vd, vs) -> Columns:
        cfg = self.cfg
        pmos, nmos, vgs = cfg.devices.pmos, cfg.devices.nmos, vd - vs
        vds_p, vds_n = vd - vdac, vdac - vs
        ip = _law(pmos, _overdrive(pmos, vgs), vds_p, dvgs=False, dvds=False)[0]
        in_ = _law(nmos, _overdrive(nmos, vgs), vds_n, dvgs=False, dvds=False)[0]
        i_rpp = self.gpp * ((vd if self.inner else cfg.vdd) - vdac)
        i_rpn = self.gpn * (vdac - (vs if self.inner else 0.0))
        Ip, In = self.up * ip, self.dn * in_
        residual = np.abs(Ip + i_rpp - In - i_rpn)
        if self.series:
            i_total = self.gsp * (cfg.vdd - vd)
            residual = np.maximum(residual, np.abs(i_total - Ip - (i_rpp if self.inner else 0.0)))
            if not self.inner:
                i_total += i_rpp
        else:
            i_total = Ip + i_rpp  # Ip itself, bit for bit, where gpp is 0 (no rpp)
        if self.has_vs:
            residual = np.maximum(residual, np.abs(In + (i_rpn if self.inner else 0.0) - self.gsn * vs))
        # Each group's region, indexing _REGIONS. A group with no active units has its gates
        # parked at its own source rail: it carries nothing and is cut off. An active group is
        # cut off where vgs < vth, saturated from vds = vgs - vth up, and in triode between;
        # a LinearSwitch, which has no threshold, is in triode.
        vgs_mag = np.maximum(vgs, 0.0)
        units, regions = [], []
        for dev, i, vds, active in ((pmos, ip, vds_p, self.counts > 0),
                                    (nmos, in_, vds_n, self.counts < cfg.d_max)):
            index = active.astype(np.intp)
            if isinstance(dev, MosfetParams):
                index[vgs_mag < dev.vth] = 0
                index *= 1 + (np.maximum(vds, 0.0) >= vgs_mag - dev.vth)
            units.append(np.where(active, i, 0.0))
            regions.append(_REGIONS[index])
        columns = (self.counts, vdac, vd, vs, i_total, *units, i_rpp, i_rpn, *regions, residual)
        return dict(zip(FIELDS, columns))


def _inner_path(config: DacConfig) -> bool:
    """Whether config's rails are solved as inner rails, tied by the current through rsp.

    Only supply-attached parallel resistors with series resistors need the
    nested supply-rail path. Without either kind of resistor the attach mode
    changes no balance, and the inner path balances rows the nested one may not.
    """
    topo = config.topology
    return (topo.parallel_attach is ParallelAttach.INNER_RAILS
            or not (topo.has_series and topo.has_parallel))


def _square_law(current, slope):
    """Second derivative of the square of a linear function with this value and slope."""
    return np.where(current > 0.0, slope * slope / (4.0 * current), 0.0)


def _bracketed(level, x: np.ndarray, lo, hi, span: float) -> np.ndarray:
    """Roots of per-lane decreasing functions by Newton steps kept inside brackets (rtsafe).

    level(pos, x) gives (residual, derivative, tolerance, curvature) of the
    lanes at positions pos at points x, pos being slice(None) while every
    lane is live; lo <= x <= hi (floats or arrays) bracket every root. Where
    the curvature lengthens the Newton step (it has the sign of the
    residual), a step goes to the nearer root of the quadratic with that
    value, slope and curvature instead. A step that
    leaves the bracket, or that is not under half the step before last,
    bisects instead. A lane stops at the point it evaluated last once its
    residual is within its tolerance, or its step or its bracket is under
    _XTOL * span. Returns the roots.
    """
    xtol = _XTOL * span
    roots = x.copy()
    live = slice(None)
    lo, hi = np.broadcast_to(lo, x.shape), np.broadcast_to(hi, x.shape)
    older = last = 2.0 * (hi - lo)  # the step before last and the last step: any first step fits
    for _ in range(MAX_ITERATIONS):
        g, dg, tol, c = level(live, x)
        roots[live] = x
        rising = g > 0.0
        lo, hi = np.where(rising, x, lo), np.where(rising, hi, x)
        # g + dg*t + c*t^2 = 0, dg < 0, c*g >= 0: the root of the sign of g, free of cancellation.
        step = -2.0 * g / (dg - np.sqrt(np.maximum(dg * dg - 4.0 * np.maximum(c * g, 0.0), 0.0)))
        new, size = x + step, np.abs(step)
        newton = (new > lo) & (new < hi) & (size + size <= np.abs(older))
        older, last = last, np.where(newton, step, 0.5 * (lo + hi) - x)
        going = (np.abs(g) > tol) & ~(size <= xtol) & (hi - lo > xtol)  # nan steps bisect
        if not going.any():
            break
        x = x + last
        if not going.all():
            live = np.flatnonzero(going) if isinstance(live, slice) else live[going]
            x, lo, hi, older, last = np.array((x, lo, hi, older, last))[:, going]
    return roots


def _warm_start(configs: Sequence[DacConfig], counts: np.ndarray, distinct: np.ndarray):
    """Starts (vd, vs) for counts under each config in turn, each interpolated over
    that config's own solves at every WARM_STRIDE-th distinct count and at the first two
    and last two, next to where a group's count is zero and the rails move fastest."""
    grid = np.union1d(distinct[::WARM_STRIDE], distinct[[1, -2, -1]])
    solved = _Lanes(configs, grid).solve()[1:]
    return tuple(np.concatenate([np.interp(counts, grid, part) for part in np.split(x, len(configs))])
                 if np.ndim(x) else x for x in solved)


# The last batch _solve solved: (configs, a copy of its counts, its read-only (vdac, vd, vs)).
_last: tuple | None = None


def _solve(configs: Sequence[DacConfig], counts: np.ndarray) -> tuple[_Lanes, tuple]:
    """counts under each config in turn as one lane batch: the batch and its (vdac, vd, vs).

    A batch with series resistors of over 2 * WARM_STRIDE distinct counts
    starts its rails from _warm_start; any other starts cold. The arrays are read-only,
    one entry per lane each: a rail without a series resistor, which
    _Lanes.solve gives as one float, is broadcast over the lanes.
    The solve is a function of the configs and counts alone, so a batch equal
    to the last one solved (equal configs, equal counts) is served that
    solve's arrays, bit for bit what solving it again gives.
    """
    global _last
    configs = tuple(configs)
    last = _last
    if last is not None and last[0] == configs and np.array_equal(last[1], counts):
        return _Lanes(configs, counts), last[2]
    net = _Lanes(configs, counts)
    with np.errstate(**_DISCARDED):
        start = None
        if net.series:
            distinct = np.sort(counts)  # np.unique hashes ints first, at ~10x the cost of a sort
            distinct = distinct[np.append(True, distinct[1:] != distinct[:-1])]
            if len(distinct) > 2 * WARM_STRIDE:
                start = _warm_start(configs, counts, distinct)
        solved = tuple(np.broadcast_to(x, net.counts.shape) for x in net.solve(start))  # read-only views
    _last = configs, counts.copy(), solved
    return net, solved


def _solve_lanes(configs: Sequence[DacConfig], counts: np.ndarray) -> list[Columns]:
    """counts under each config in turn as one lane batch: per config, its columns."""
    net, solved = _solve(configs, counts)
    with np.errstate(**_DISCARDED):
        columns = net.columns(*solved)
    n = len(counts)
    return [{name: c[first : first + n] for name, c in columns.items()}
            for first in range(0, len(net.counts), n)]


def _refuse_non_integers(values: Any, name: str, lo: int = -(1 << 63), hi: int = (1 << 63) - 1) -> None:
    """ValueError naming the first of values that is not an integer in lo..hi (int64 by
    default): Python and numpy integers pass; bools, floats (even integral ones) and strings
    do not."""
    for v in values:
        if not _is_integer(v):
            raise ValueError(f"{name} {v!r} is not an integer (all {name} values must be integers)")
        if not lo <= v <= hi:
            raise ValueError(f"{name} {v} out of range {lo}..{hi}")


def _checked_counts(values: Any, d_max: int, name: str) -> np.ndarray:
    """values, one integer or a flat sequence of them, as a flat int64 array; a ValueError
    naming name for nested or ragged values, or for one that is not an integer in 0..d_max.

    One dtype check on the whole array decides whether each is an integer;
    only an array that fails it (integers beyond int64 fail it too) is
    searched, by _refuse_non_integers, for the value to name.
    """
    try:
        counts = np.asarray(values)
    except ValueError:  # numpy refuses ragged nesting
        counts = None
    if counts is None or counts.ndim > 1:
        raise ValueError(f"{name} must be an integer or a flat sequence of integers, not nested")
    counts = counts.reshape(-1)
    if counts.dtype.kind not in "iu":
        counts = np.asarray(values, dtype=object).reshape(-1)
        _refuse_non_integers(counts, name, 0, d_max)
    elif counts.size and not 0 <= counts.min() <= counts.max() <= d_max:
        bad = counts[(counts < 0) | (counts > d_max)][0]
        raise ValueError(f"{name} {bad} out of range 0..{d_max}")
    return counts.astype(np.int64)


def solve_units(
    config: DacConfig, pullup_units: int | Sequence[int]
) -> NodeSolution | tuple[NodeSolution, ...]:
    """Operating point at an explicit pull-up unit count (0..d_max).

    An int gives one NodeSolution. A sequence of counts is solved as one
    batch and gives one NodeSolution per count, in order, each bit for bit
    what a one-count call gives (a series-resistor batch that warm-starts
    agrees with it to rounding; see the module docstring). A count need not
    correspond to any encodable code: it may be a mid-transition pin state.
    """
    counts = _checked_counts(pullup_units, config.d_max, "pullup_units")
    if not counts.size:
        return ()
    rows = _rows(*_solve_lanes([config], counts))
    return rows[0] if np.ndim(pullup_units) == 0 else rows


def _curves(configs: Sequence[DacConfig]) -> list[TransferCurve]:
    """Transfer curves of configs that differ at most in rpp and rpn, in order; consecutive
    configs on one rail path are solved together, as many whole curves as _MAX_LANES hold."""
    n = configs[0].d_max + 1
    curves = []
    for _, run in groupby(configs, _inner_path):
        run = list(run)
        for start in range(0, len(run), _MAX_LANES // n):
            batch = run[start : start + _MAX_LANES // n]
            curves += map(TransferCurve, batch, _solve_lanes(batch, np.arange(n)))
    return curves


def transfer_curve(config: DacConfig) -> TransferCurve:
    """Full static sweep code = 0..d_max, solved as one batch."""
    [curve] = _curves([config])
    return curve


def complement_check(curve: TransferCurve) -> float:
    """Max over codes of |vdac(d_max - m) - (vdd - vdac(m))| [V].

    For a mirror-symmetric configuration (matched devices, rpp == rpn,
    rsp == rsn) the network maps code m to the complement of code d_max - m,
    so this is a solver self-consistency probe that must sit at numerical
    noise. For mismatched devices it measures the asymmetry itself.
    """
    vdd = curve.config.vdd
    v = curve.vdac
    return float(np.max(np.abs(v[::-1] - (vdd - v))))
