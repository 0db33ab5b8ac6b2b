"""DC operating points of the shorted-GPIO DAC network, solved in lane batches.

For an input code m out of d_max = 2^n - 1 unit cells, m drivers pull up and
d_max - m pull down into the common output node. Three topologies are solved:

* standalone: drivers only, local rails are the supply rails;
* two-resistor: extra resistors rpp (supply to output) and rpn (output to
  ground) that stretch the linear region;
* four-resistor: series resistors rsp/rsn derate the local rails vd/vs, which
  also lowers the gate swing (driver gates ride the local rails, so
  vgs = vd - vs for both device groups), plus the two parallel resistors.

The nonlinear system is the KCL balance at the floating nodes (output, and
vd/vs when series resistors are present). One solve takes an array of
pull-up counts, one lane per count: one array evaluation of the device model
gives every lane's residuals and 1x1/2x2/3x3 Jacobian, and damped Newton
steps all unfinished lanes at once, each with its own step size, iteration
count and outcome. Branch currents are monotone in their node voltages, so
lanes where Newton stalls fall back to per-node bisection sweeps for the rest
of their budget. Two full Newton steps then polish each converged lane onto
its fixed point. A batch of over 2 * WARM_STRIDE distinct counts starts from
Newton solves at every WARM_STRIDE-th count, interpolated; a lane that fails
from there restarts from the linear guess. A lane's voltages thus depend on
its batch only within 1e-14 V, and not at all in a smaller batch. Configs
that differ only in rpp/rpn (an rp sweep) solve as one batch with per-lane
conductances, each curve bit for bit as it solves alone. A solve returns
columns, one array per NodeSolution field; a TransferCurve keeps them and
builds its NodeSolution rows only when they are first read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, reduce
from itertools import repeat
from typing import Any, Mapping, Sequence, Union

import numpy as np

# The config types are defined in the numpy-free config layer and importable from here too.
from .config import (
    MAX_BITS,
    DacConfig,
    Encoding,
    FourResistor,
    OperatingRegion,
    ParallelAttach,
    SolverError,
    Standalone,
    Topology,
    TwoResistor,
)
from .devices import classify_region, current_and_derivatives

RESIDUAL_TOL = 1e-9  # amperes
MAX_ITERATIONS = 200
WARM_STRIDE = 64  # coarse-grid spacing, in distinct counts, of a warm-started batch
_MAX_LANES = 1 << 16  # lanes of one batch of whole curves (one 16-bit curve): bounds peak memory


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
# One array per NodeSolution field, in field order; a rail without a series
# resistor (vd or vs) is one shared float, and the regions are object arrays.
Columns = Mapping[str, Union[np.ndarray, float]]


def _rows(columns: Columns) -> tuple[NodeSolution, ...]:
    values = (c.tolist() if np.ndim(c) else repeat(c) for c in columns.values())
    return tuple(map(NodeSolution, *values))


@dataclass(frozen=True, eq=False)
class TransferCurve:
    """Solved codes 0..d_max, kept as columns; rows are built on first access."""

    config: DacConfig
    columns: Columns

    def __post_init__(self) -> None:
        if tuple(self.columns) != FIELDS:
            raise ValueError(f"columns must be {FIELDS}, got {tuple(self.columns)}")
        if not np.array_equal(self.columns["code"], np.arange(self.config.d_max + 1)):
            raise ValueError("the code column must be 0..d_max in ascending order")

    @cached_property
    def rows(self) -> tuple[NodeSolution, ...]:
        return _rows(self.columns)

    @property
    def vdac(self) -> np.ndarray:
        return np.array(self.columns["vdac"], dtype=np.float64)

    @property
    def i_total(self) -> np.ndarray:
        return np.array(self.columns["i_total"], dtype=np.float64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransferCurve):
            return NotImplemented
        return self.config == other.config and all(
            np.array_equal(c, other.columns[name]) for name, c in self.columns.items()
        )

    def __hash__(self) -> int:
        return hash(self.config)


class _Lanes:
    """KCL residuals and Jacobians at an array of pull-up counts, one config per lane.

    Lane j is configs[point[j]] (by default, counts under each config in turn)
    with counts[j] drivers pulling up. The configs differ at most in rpp and
    rpn: gpp and gpn are per-lane arrays, indexed by lanes as up and dn are.
    Unknowns are ordered [vdac, vd?, vs?] and x holds one row per lane.
    """

    def __init__(self, configs: Sequence[DacConfig], counts: np.ndarray, point=None):
        if point is None:
            point = np.repeat(np.arange(len(configs)), len(counts))
            counts = np.tile(counts, len(configs))
        self.cfg = config = configs[0]
        self.point = point
        topo = config.topology
        self.four = isinstance(topo, FourResistor)
        self.has_vs = self.four and topo.rsn > 0.0
        standalone = isinstance(topo, Standalone)
        gp = [(0.0, 0.0) if standalone else (1.0 / c.topology.rpp, 1.0 / c.topology.rpn)
              for c in configs]
        self.gpp, self.gpn = (np.array(g)[point] for g in zip(*gp))
        self.inner = (not self.four) or topo.parallel_attach is ParallelAttach.INNER_RAILS
        self.gsp = 1.0 / topo.rsp if self.four else 0.0
        self.gsn = 1.0 / topo.rsn if self.has_vs else 0.0
        self.cols = [0] + ([1] if self.four else []) + ([2] if self.has_vs else [])
        self.counts = counts
        n_dn = config.d_max - counts
        self.up, self.dn = counts.astype(float), n_dn.astype(float)
        # Negated as ints, so a zero count keeps +0.0 products as a Python int does.
        self.neg_up, self.neg_dn = (-counts).astype(float), (-n_dn).astype(float)

    def initial_guess(self) -> np.ndarray:
        x = np.zeros((len(self.counts), len(self.cols)))  # vs starts at 0
        x[:, 0] = (self.counts / self.cfg.d_max) * self.cfg.vdd
        if self.four:
            x[:, 1] = self.cfg.vdd
        return x

    def branches(self, x: np.ndarray, gpp: np.ndarray, gpn: np.ndarray):
        """Node voltages, (i, di/dvgs, di/dvds) of both groups, currents through gpp and gpn."""
        cfg = self.cfg
        vdac = x[:, 0]
        vd = x[:, 1] if self.four else cfg.vdd
        vs = x[:, -1] if self.has_vs else 0.0
        vgs = vd - vs
        p = current_and_derivatives(cfg.devices.pmos, vgs, vd - vdac)
        n = current_and_derivatives(cfg.devices.nmos, vgs, vdac - vs)
        i_rpp = gpp * ((vd if self.inner else cfg.vdd) - vdac)
        i_rpn = gpn * (vdac - (vs if self.inner else 0.0))
        return vdac, vd, vs, p, n, i_rpp, i_rpn

    def residual(self, x: np.ndarray, lanes: np.ndarray | slice, jac: np.ndarray | None = None,
                 branches: tuple | None = None):
        """KCL residuals of the given lanes at x; also fills jac when one is passed.

        branches, if given, is what self.branches gives at x for these lanes."""
        gpp, gpn = self.gpp[lanes], self.gpn[lanes]
        if branches is None:
            branches = self.branches(x, gpp, gpn)
        _, vd, vs, (ip, dip_g, dip_d), (in_, din_g, din_d), i_rpp, i_rpn = branches
        up, dn = self.up[lanes], self.dn[lanes]
        Ip, In = up * ip, dn * in_
        f = np.empty_like(x)
        f[:, 0] = Ip + i_rpp - In - i_rpn
        if self.four:
            f[:, 1] = self.gsp * (self.cfg.vdd - vd) - Ip - (i_rpp if self.inner else 0.0)
        if self.has_vs:
            f[:, -1] = In + (i_rpn if self.inner else 0.0) - self.gsn * vs
        if jac is None:
            return f

        neg_up, neg_dn = self.neg_up[lanes], self.neg_dn[lanes]
        # Group currents and resistor branches: d/d(vdac, vd, vs)
        dIp = (neg_up * dip_d, up * (dip_g + dip_d), neg_up * dip_g)
        dIn = (dn * din_d, dn * din_g, neg_dn * (din_g + din_d))
        drpp = (-gpp, gpp if self.inner else 0.0, 0.0)
        drpn = (gpn, 0.0, -gpn if self.inner else 0.0)
        for c, j in enumerate(self.cols):
            jac[:, 0, c] = dIp[j] + drpp[j] - dIn[j] - drpn[j]
            if self.four:
                jac[:, 1, c] = -dIp[j] - (drpp[j] if self.inner else 0.0)
            if self.has_vs:
                jac[:, 2, c] = dIn[j] + (drpn[j] if self.inner else 0.0)
        if self.four:
            jac[:, 1, 1] -= self.gsp
        if self.has_vs:
            jac[:, 2, 2] -= self.gsn
        return f

    def norm(self, x: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return _max_norm(self.residual(x, lanes))

    def columns(self, x: np.ndarray) -> Columns:
        cfg = self.cfg
        branches = self.branches(x, self.gpp, self.gpn)
        vdac, vd, vs, (ip, _, _), (in_, _, _), i_rpp, i_rpn = branches
        if isinstance(cfg.topology, Standalone):
            i_total = self.up * ip
        elif isinstance(cfg.topology, TwoResistor):
            i_total = self.up * ip + i_rpp
        else:
            i_total = self.gsp * (cfg.vdd - vd)
            if not self.inner:
                i_total += i_rpp
        # Report the region of the active groups; a group with no active units
        # has its devices' gates parked at their own source rail, i.e. cutoff.
        vgs_mag = np.maximum(vd - vs, 0.0)
        region_p = classify_region(cfg.devices.pmos, vgs_mag, np.maximum(vd - vdac, 0.0))
        region_n = classify_region(cfg.devices.nmos, vgs_mag, np.maximum(vdac - vs, 0.0))
        has_up, has_dn = self.counts > 0, self.counts < cfg.d_max
        cutoff = OperatingRegion.CUTOFF
        columns = (self.counts, vdac, vd, vs, i_total, np.where(has_up, ip, 0.0),
                   np.where(has_dn, in_, 0.0), i_rpp, i_rpn, np.where(has_up, region_p, cutoff),
                   np.where(has_dn, region_n, cutoff),
                   _max_norm(self.residual(x, slice(None), branches=branches)))
        return dict(zip(FIELDS, columns))


def _max_norm(f: np.ndarray) -> np.ndarray:
    """Max-norm of each row of an (n, k <= 3) array, as elementwise maxima over its columns."""
    return reduce(np.maximum, np.abs(f).T)


def _steps(jac: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Newton steps of a stack of lanes, non-finite for a lane with a singular Jacobian.

    1x1 and 2x2 systems are solved in closed form. A stacked 3x3 solve raises
    for the whole stack when one matrix is singular, so that case is redone
    lane by lane."""
    k = f.shape[1]
    if k == 1:
        return -f / jac[:, 0]
    if k == 2:
        (a, b), (c, d), (f0, f1) = jac[:, 0].T, jac[:, 1].T, f.T
        det = a * d - b * c
        return np.column_stack(((b * f1 - d * f0) / det, (c * f0 - a * f1) / det))
    try:
        return np.linalg.solve(jac, -f[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(f) == 1:
            return np.full_like(f, np.nan)
        return np.concatenate([_steps(jac[j : j + 1], f[j : j + 1]) for j in range(len(f))])


def _newton_lanes(net: _Lanes, x: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Damped Newton on every lane from x (in place) or the linear guess; returns
    (x, iterations used, converged).

    Each lane follows its own rule: stop once the residual max-norm is within
    RESIDUAL_TOL or MAX_ITERATIONS steps are spent; give up on a singular or
    non-finite step, or when halving the step from 1 down to 1e-8 never
    lowers the norm. A converged lane then takes two full steps onto its fixed
    point, kept only where finite and within RESIDUAL_TOL.
    """
    x = net.initial_guess() if x is None else x
    n, k = x.shape
    live = np.arange(n)
    jac = np.empty((n, k, k))
    f = net.residual(x, live, jac)
    norm = _max_norm(f)
    used = np.zeros(n, dtype=int)
    while True:
        live = live[(norm[live] > RESIDUAL_TOL) & (used[live] < MAX_ITERATIONS)]
        if not live.size:
            ok = np.flatnonzero(norm <= RESIDUAL_TOL)
            _polish(net, x, ok, f[ok], jac[ok])
            return x, used, norm <= RESIDUAL_TOL
        dx = _steps(jac[live], f[live])
        finite = np.all(np.isfinite(dx), axis=1)
        live, dx = live[finite], dx[finite]
        lam = np.ones(len(live))
        moved = np.zeros(len(live), dtype=bool)
        trial = np.arange(len(live))  # positions in live still halving their step
        while trial.size:
            lanes = live[trial]
            x_try = x[lanes] + lam[trial, None] * dx[trial]
            jac_try = np.empty((len(lanes), k, k))
            f_try = net.residual(x_try, lanes, jac_try)
            norm_try = _max_norm(f_try)
            take = (norm_try < norm[lanes]) | (norm_try <= RESIDUAL_TOL)
            done = lanes[take]
            x[done], f[done], jac[done] = x_try[take], f_try[take], jac_try[take]
            norm[done] = norm_try[take]
            used[done] += 1
            moved[trial[take]] = True
            trial = trial[~take]
            lam[trial] *= 0.5
            trial = trial[lam[trial] > 1e-8]
        live = live[moved]  # the others stalled


def _polish(net: _Lanes, x: np.ndarray, lanes: np.ndarray, f=None, jac=None) -> None:
    """Two full Newton steps from converged lanes of x (residuals f, Jacobians jac there if
    known), taken in place where the result is finite and within RESIDUAL_TOL."""
    if f is None:
        jac = np.empty((len(lanes), x.shape[1], x.shape[1]))
        f = net.residual(x[lanes], lanes, jac)
    x1 = x[lanes] + _steps(jac, f)
    x2 = x1 + _steps(jac, net.residual(x1, lanes, jac))  # jac is the lanes' own copy
    keep = np.all(np.isfinite(x2), axis=1) & (net.norm(x2, lanes) <= RESIDUAL_TOL)
    x[lanes[keep]] = x2[keep]


def _warm_start(configs: Sequence[DacConfig], counts: np.ndarray, distinct: np.ndarray):
    """Starts for counts under each config in turn, each interpolated over that config's own
    Newton solves at every WARM_STRIDE-th and last distinct count."""
    grid = np.union1d(distinct[::WARM_STRIDE], distinct[-1:])
    x = _newton_lanes(_Lanes(configs, grid))[0]
    return np.concatenate([np.column_stack([np.interp(counts, grid, column) for column in xp.T])
                           for xp in np.split(x, len(configs))])


def _bisection_lanes(net: _Lanes, x: np.ndarray, lanes: np.ndarray, budget: np.ndarray):
    """Gauss-Seidel bisection sweeps on the given lanes of x, in place; returns converged mask.

    A sweep bisects each unknown on its own KCL residual, the others held
    fixed. All node residuals are strictly decreasing in their own voltage, so
    the bracket with f(lo) >= 0 >= f(hi) always closes; a lane's bracket stops
    once narrower than 1e-13 V. Lane j sweeps until it converges or has swept
    budget[j] times.
    """
    vdd = net.cfg.vdd
    span = 2.0 * vdd  # generous brackets; solutions live in [0, vdd]
    ok = np.zeros(len(lanes), dtype=bool)
    live = np.flatnonzero(budget > 0)  # positions in lanes
    sweeps = 0
    while live.size:
        rows = lanes[live]
        xs = x[rows]
        for idx in range(len(net.cols)):
            lo, hi = np.full(len(xs), -span), np.full(len(xs), vdd + span)
            open_ = np.ones(len(xs), dtype=bool)
            for _ in range(80):
                if not open_.any():
                    break
                mid = 0.5 * (lo + hi)
                xs[:, idx] = mid
                rising = net.residual(xs, rows)[:, idx] > 0.0
                np.putmask(lo, open_ & rising, mid)
                np.putmask(hi, open_ & ~rising, mid)
                open_ &= ~(hi - lo < 1e-13)
            xs[:, idx] = 0.5 * (lo + hi)
        x[rows] = xs
        converged = net.norm(xs, rows) <= RESIDUAL_TOL
        ok[live[converged]] = True
        sweeps += 1
        live = live[~converged & (budget[live] > sweeps)]
    return ok


def _solve_lanes(configs: Sequence[DacConfig], counts: np.ndarray) -> list[Columns | SolverError]:
    """counts under each config in turn as one lane batch: per config, its columns or a
    SolverError naming its first failing count."""
    net = _Lanes(configs, counts)
    n = len(counts)
    with np.errstate(all="ignore"):  # trial points may overflow, as Python floats do silently
        distinct = np.sort(counts)  # np.unique hashes ints first, at ~10x the cost of a sort
        distinct = distinct[np.append(True, distinct[1:] != distinct[:-1])]
        warm = len(distinct) > 2 * WARM_STRIDE
        x, used, ok = _newton_lanes(net, _warm_start(configs, counts, distinct) if warm else None)
        if warm and not ok.all():  # rerun from the linear guess, as a one-count solve does
            retry = ~ok
            x[retry], used[retry], ok[retry] = _newton_lanes(
                _Lanes(configs, net.counts[retry], net.point[retry]))
        fallback = np.flatnonzero(~ok)
        if fallback.size:
            ok[fallback] = _bisection_lanes(net, x, fallback, MAX_ITERATIONS - used[fallback])
            _polish(net, x, fallback[ok[fallback]])
        columns, solved = net.columns(x), []
        for lanes in (slice(start, start + n) for start in range(0, len(x), n)):
            if ok[lanes].all():
                solved.append({name: c[lanes] if np.ndim(c) else c for name, c in columns.items()})
                continue
            lane = lanes.start + int(np.argmin(ok[lanes]))
            residual = float(net.norm(x[lane : lane + 1], np.array([lane]))[0])
            message = f"no convergence after {MAX_ITERATIONS} iterations"
            solved.append(SolverError(f"{message} (best residual {residual:.3e} A)",
                                      code=int(net.counts[lane]), residual=residual))
        return solved


def _checked_counts(values: Any, d_max: int, name: str) -> np.ndarray:
    """values as a flat int64 array; ValueError unless each is an integer in 0..d_max.

    Python and numpy integers pass; bools, floats (even integral ones) and
    strings do not, which one dtype check on the whole array decides.
    """
    counts = np.asarray(values).reshape(-1)
    if counts.dtype.kind not in "iu":
        items = np.asarray(values, dtype=object).reshape(-1)
        bad = next((v for v in items if isinstance(v, bool) or not isinstance(v, (int, np.integer))),
                   values)
        raise ValueError(f"{name} {bad!r} is not an integer (all {name} values must be integers)")
    if counts.size and not 0 <= counts.min() <= counts.max() <= d_max:
        bad = counts[(counts < 0) | (counts > d_max)][0]
        raise ValueError(f"{name} {bad} out of range 0..{d_max}")
    return counts.astype(np.int64)


def solve_columns(config: DacConfig, pullup_units: Sequence[int] | np.ndarray) -> Columns:
    """Operating points of a non-empty batch of pull-up counts as columns, one lane per count.

    The columns are what solve_units turns into rows, field by field; a
    SolverError names the first failing count.
    """
    if not np.size(pullup_units):
        raise ValueError("pullup_units is empty")
    [columns] = _solve_lanes([config], _checked_counts(pullup_units, config.d_max, "pullup_units"))
    if isinstance(columns, SolverError):
        raise columns
    return columns


def solve_units(
    config: DacConfig, pullup_units: int | Sequence[int]
) -> NodeSolution | tuple[NodeSolution, ...]:
    """Operating point at an explicit pull-up unit count (0..d_max).

    An int gives one NodeSolution. A sequence of counts is solved as one
    batch and gives one NodeSolution per count, in order, each within 1e-14 V
    of a one-count call (see the module docstring); a SolverError names the
    first failing count. Transient analysis uses this entry: a mid-transition
    pin state is a unit count that need not correspond to any encodable code.
    """
    counts = np.asarray(pullup_units)
    rows = _rows(solve_columns(config, pullup_units)) if counts.size else ()
    return rows[0] if counts.ndim == 0 else rows


def solve_code(config: DacConfig, code: int) -> NodeSolution:
    """DC operating point for one input code."""
    if not 0 <= code <= config.d_max:
        raise ValueError(f"code {code} out of range 0..{config.d_max}")
    return solve_units(config, code)


def _curves(configs: Sequence[DacConfig]) -> list[TransferCurve | SolverError]:
    """Transfer curves (or SolverErrors) of configs that differ at most in rpp and rpn, in
    order; consecutive configs are solved together, as many whole curves as _MAX_LANES hold."""
    n = configs[0].d_max + 1
    curves: list[TransferCurve | SolverError] = []
    for start in range(0, len(configs), _MAX_LANES // n):
        batch = configs[start : start + _MAX_LANES // n]
        for config, solved in zip(batch, _solve_lanes(batch, np.arange(n))):
            curves.append(SolverError(f"transfer curve failed at code {solved.code}: {solved}",
                                      code=solved.code, residual=solved.residual)
                          if isinstance(solved, SolverError) else TransferCurve(config, solved))
    return curves


def transfer_curve(config: DacConfig) -> TransferCurve:
    """Full static sweep code = 0..d_max, solved as one batch."""
    [curve] = _curves([config])
    if isinstance(curve, SolverError):
        raise curve
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
