"""Independent reference implementations used to check the package.

Everything here is deliberately dumb and slow: nested scalar bisection for
operating points (no Newton, no Jacobians), two-pass loops for metrics,
plain divider arithmetic, the reference of the solver fed ``LinearSwitch``
devices, and one row's operating regions by float comparisons
(``per_row_regions``). These never share a code path with the
implementations they check.
``oracle_solve`` nests its levels vd outermost, then vs, then vdac, and
bisects each. The package takes a closed-form root for vdac and bracketed
Newton steps for the rails, nests vs inside vd only on supply rails, and on
inner rails ties vs to vd, since one current flows through rsp and rsn.

The exceptions are kept as references of the code that replaced them, bit
for bit unless noted: ``per_code_solve``, the scalar damped-Newton solver
with a bisection fallback that the exact output-node and bracketed rail
solve replaced (matched within 1e-14 V wherever it converged on small
configs; it misses its tolerance on some configs the new solve handles, and
``oracle_solve`` is the authority there); ``per_pin_synthesize``, the
per-pin transient replay that the array-based ``synthesize`` replaced;
``per_draw_staggers``, which takes each random skew draw with advance() and
uniform() where the package computes the PCG64 state by jump-ahead (next to
it, ``lcg_sum`` gives the increment's coefficient in a jump in Python
integers, from its recurrence, where the package tables it);
``per_row_transfer_csv`` and ``per_row_saturation_flags``, which read a
curve's NodeSolution rows where the package now reads its columns;
``per_sample_detect_glitches``, the per-sample glitch scan; and
``per_code_extract``, the code-by-code triode-run search that one plain-Python
pass over runs of region pairs replaced in ``extract_from_table``.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from gpiodac.cli import TRANSFER_COLUMNS, csv_text
from gpiodac.config import (
    DacConfig,
    Encoding,
    FourResistor,
    LinearSwitch,
    OperatingRegion,
    ParallelAttach,
    SizingError,
    TwoResistor,
)
from gpiodac.network import solve_units
from gpiodac.sizing import ExtractedParams
from gpiodac.transient import Waveform


def device_current(dev, vgs: float, vds: float) -> float:
    """Square-law / linear-switch unit current, signed in vds."""
    if vds < 0.0:
        return -device_current(dev, vgs, -vds)
    if isinstance(dev, LinearSwitch):
        return dev.g * vds
    vov = vgs - dev.vth
    if vov <= 0.0:
        return 0.0
    if vds >= vov:
        return 0.5 * dev.k * vov * vov
    return dev.k * (vov * vds - 0.5 * vds * vds)


def _bisect_decreasing(f, lo: float, hi: float, tol: float) -> float:
    """Root of a decreasing function by plain bisection."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def oracle_solve(config: DacConfig, code: int) -> tuple[float, float, float]:
    """(vdac, vd, vs) by nested bisection, innermost on vdac.

    Each node's KCL residual is strictly decreasing in its own voltage, so
    every level is a clean bracket on [-vdd, 2*vdd].
    """
    topo = config.topology
    vdd = config.vdd
    d_max = config.d_max
    n_up, n_dn = code, d_max - code
    pmos, nmos = config.devices.pmos, config.devices.nmos

    four = isinstance(topo, FourResistor)
    gpp = gpn = 0.0
    if isinstance(topo, (TwoResistor, FourResistor)):
        gpp, gpn = 1.0 / topo.rpp, 1.0 / topo.rpn
    inner = (not four) or topo.parallel_attach is ParallelAttach.INNER_RAILS
    gsp = 1.0 / topo.rsp if four else 0.0
    has_vs = four and topo.rsn > 0.0
    gsn = 1.0 / topo.rsn if has_vs else 0.0

    lo, hi = -vdd, 2.0 * vdd

    def f_vdac(vdac: float, vd: float, vs: float) -> float:
        vgs = vd - vs
        ip = n_up * device_current(pmos, vgs, vd - vdac)
        i_n = n_dn * device_current(nmos, vgs, vdac - vs)
        i_rpp = gpp * ((vd if inner else vdd) - vdac)
        i_rpn = gpn * (vdac - (vs if inner else 0.0))
        return ip + i_rpp - i_n - i_rpn

    def solve_vdac(vd: float, vs: float) -> float:
        return _bisect_decreasing(lambda v: f_vdac(v, vd, vs), lo, hi, 1e-11)

    if not four:
        vdac = solve_vdac(vdd, 0.0)
        return vdac, vdd, 0.0

    def f_vs(vs: float, vd: float) -> float:
        vdac = solve_vdac(vd, vs)
        vgs = vd - vs
        i_n = n_dn * device_current(nmos, vgs, vdac - vs)
        i_rpn = gpn * (vdac - vs) if inner else 0.0
        return i_n + i_rpn - gsn * vs

    def solve_vs(vd: float) -> float:
        if not has_vs:
            return 0.0
        return _bisect_decreasing(lambda v: f_vs(v, vd), lo, hi, 1e-10)

    def f_vd(vd: float) -> float:
        vs = solve_vs(vd)
        vdac = solve_vdac(vd, vs)
        vgs = vd - vs
        ip = n_up * device_current(pmos, vgs, vd - vdac)
        i_rpp = gpp * (vd - vdac) if inner else 0.0
        return gsp * (vdd - vd) - ip - i_rpp

    vd = _bisect_decreasing(f_vd, lo, hi, 1e-9)
    vs = solve_vs(vd)
    vdac = solve_vdac(vd, vs)
    return vdac, vd, vs


def oracle_curve(config: DacConfig) -> list[float]:
    return [oracle_solve(config, code)[0] for code in range(config.d_max + 1)]


def naive_dnl(levels) -> list[float]:
    n = len(levels)
    lsb = (levels[-1] - levels[0]) / (n - 1)
    out = []
    for i in range(n - 1):
        out.append((levels[i + 1] - levels[i]) / lsb - 1.0)
    return out


def naive_inl(levels) -> list[float]:
    n = len(levels)
    lsb = (levels[-1] - levels[0]) / (n - 1)
    out = []
    for i in range(n):
        line = levels[0] + lsb * i
        out.append((levels[i] - line) / lsb)
    return out


def divider(n_up: int, n_dn: int, gop: float, gon: float, vdd: float, *,
            gpp: float = 0.0, gpn: float = 0.0) -> float:
    """Plain conductance-divider arithmetic; gpp and gpn are parallel conductances from the
    supply and to ground (the two-resistor topology)."""
    g_up = n_up * gop + gpp
    g_dn = n_dn * gon + gpn
    return g_up / (g_up + g_dn) * vdd


def transition_counts(old_pins, new_pins, order) -> list[int]:
    """Asserted-pin counts after each event of a pin-switching order."""
    state = list(old_pins)
    counts = []
    for pin in order:
        state[pin] = new_pins[pin]
        counts.append(sum(state))
    return counts


def _device_derivatives(dev, vgs: float, vds: float) -> tuple[float, float, float]:
    """(i, di/dvgs, di/dvds), extended antisymmetrically in vds, on Python floats."""
    if vds < 0.0:
        i, dvgs, dvds = _device_derivatives(dev, vgs, -vds)
        return -i, -dvgs, dvds
    if isinstance(dev, LinearSwitch):
        return dev.g * vds, 0.0, dev.g
    vov = vgs - dev.vth
    if vov <= 0.0:
        return 0.0, 0.0, 0.0
    if vds >= vov:
        return 0.5 * dev.k * vov * vov, dev.k * vov, 0.0
    return dev.k * (vov * vds - 0.5 * vds * vds), dev.k * vds, dev.k * (vov - vds)


def per_code_solve(config: DacConfig, n_up: int, max_iterations: int = 200, tol: float = 1e-9,
                   polish: bool = True):
    """Scalar reference of the solver: (vdac, vd, vs, residual max-norm, converged).

    One unit count at a time: damped Newton from the linear guess (step
    halved down to 1e-8 until the norm drops). Where Newton did not converge,
    Gauss-Seidel bisection sweeps run for what is left of the iteration
    budget. A point that either converged takes, if polish is set, two full
    Newton steps, kept only where the result is finite and within tol.
    """
    topo, vdd = config.topology, config.vdd
    n_dn = config.d_max - n_up
    four = isinstance(topo, FourResistor)
    has_vs = four and topo.rsn > 0.0
    gpp = gpn = 0.0
    if isinstance(topo, (TwoResistor, FourResistor)):
        gpp, gpn = 1.0 / topo.rpp, 1.0 / topo.rpn
    inner = (not four) or topo.parallel_attach is ParallelAttach.INNER_RAILS
    gsp = 1.0 / topo.rsp if four else 0.0
    gsn = 1.0 / topo.rsn if has_vs else 0.0
    cols = [0] + ([1] if four else []) + ([2] if has_vs else [])

    def system(x):
        vdac = float(x[0])
        vd = float(x[1]) if four else vdd
        vs = float(x[-1]) if has_vs else 0.0
        vgs = vd - vs
        ip, dip_g, dip_d = _device_derivatives(config.devices.pmos, vgs, vd - vdac)
        in_, din_g, din_d = _device_derivatives(config.devices.nmos, vgs, vdac - vs)
        Ip, In = n_up * ip, n_dn * in_
        dIp = (-n_up * dip_d, n_up * (dip_g + dip_d), -n_up * dip_g)
        dIn = (n_dn * din_d, n_dn * din_g, -n_dn * (din_g + din_d))
        i_rpp = gpp * ((vd if inner else vdd) - vdac)
        i_rpn = gpn * (vdac - (vs if inner else 0.0))
        drpp = (-gpp, gpp if inner else 0.0, 0.0)
        drpn = (gpn, 0.0, -gpn if inner else 0.0)
        f = [Ip + i_rpp - In - i_rpn]
        rows = [[dIp[j] + drpp[j] - dIn[j] - drpn[j] for j in range(3)]]
        if four:
            f.append(gsp * (vdd - vd) - Ip - (i_rpp if inner else 0.0))
            rows.append([-dIp[j] - (drpp[j] if inner else 0.0) for j in range(3)])
            rows[-1][1] -= gsp
        if has_vs:
            f.append(In + (i_rpn if inner else 0.0) - gsn * vs)
            rows.append([dIn[j] + (drpn[j] if inner else 0.0) for j in range(3)])
            rows[-1][2] -= gsn
        return np.array(f), np.array([[row[c] for c in cols] for row in rows])

    def norm(x) -> float:
        return float(np.max(np.abs(system(x)[0])))

    x = [(n_up / config.d_max) * vdd] + ([vdd] if four else []) + ([0.0] if has_vs else [])
    x = np.array(x)
    used = 0
    f, jac = system(x)
    while used < max_iterations and norm(x) > tol:
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(dx)):
            break
        lam = 1.0
        while lam > 1e-8:
            f_try, jac_try = system(x + lam * dx)
            if float(np.max(np.abs(f_try))) < norm(x) or float(np.max(np.abs(f_try))) <= tol:
                x, f, jac = x + lam * dx, f_try, jac_try
                break
            lam *= 0.5
        else:
            break
        used += 1
    def polished(x):
        if norm(x) > tol or not polish:
            return x
        try:
            f0, jac0 = system(x)
            x1 = x + np.linalg.solve(jac0, -f0)
            f1, jac1 = system(x1)
            x2 = x1 + np.linalg.solve(jac1, -f1)
        except np.linalg.LinAlgError:
            return x
        return x2 if np.all(np.isfinite(x2)) and norm(x2) <= tol else x

    x = polished(x)
    if norm(x) > tol:
        for _ in range(max_iterations - used):
            for idx in range(len(cols)):
                lo, hi = -2.0 * vdd, vdd + 2.0 * vdd
                for _ in range(80):
                    x[idx] = 0.5 * (lo + hi)
                    if system(x)[0][idx] > 0.0:
                        lo = x[idx]
                    else:
                        hi = x[idx]
                    if hi - lo < 1e-13:
                        break
                x[idx] = 0.5 * (lo + hi)
            if norm(x) <= tol:
                break
        x = polished(x)
    vd = float(x[1]) if four else vdd
    vs = float(x[-1]) if has_vs else 0.0
    return float(x[0]), vd, vs, norm(x), norm(x) <= tol


def per_pin_states(code: int, n_bits: int, encoding: Encoding) -> list[bool]:
    """Pin states built pin by pin: bit i owns the 2^i pins from 2^i - 1 on."""
    d_max = (1 << n_bits) - 1
    if encoding is Encoding.THERMOMETER:
        return [j < code for j in range(d_max)]
    states = []
    for bit in range(n_bits):
        states.extend([bool(code & (1 << bit))] * (1 << bit))
    return states


def per_pin_synthesize(config: DacConfig, codes, timing, skew_mode="deterministic", seed=None):
    """Reference of ``synthesize``: every pin of every transition in a Python loop.

    Events of one transition are grouped by exact time and applied in time
    order; an event at the time of the previous sample replaces that sample.
    Random mode draws d_max staggers per step, repeated codes included. Each
    pin moves the count by one, and the count is checked against the pin
    states after every step, so a 16-bit transition costs O(d_max).
    """
    d_max = config.d_max
    rng = np.random.default_rng(seed) if skew_mode == "random" else None
    state = per_pin_states(codes[0], config.n_bits, config.encoding)
    times = [0.0]
    counts = [sum(state)]
    count = counts[0]
    needed = {n: n for n in (d_max, 0, counts[0])}
    annotations = [(0.0, codes[0])]
    for step, code in enumerate(codes[1:], start=1):
        t_code = step * timing.sample_period
        annotations.append((t_code, code))
        target = per_pin_states(code, config.n_bits, config.encoding)
        if rng is None:
            staggers = [pin * timing.skew_max / d_max for pin in range(d_max)]
        else:
            staggers = list(rng.uniform(0.0, timing.skew_max, size=d_max))
        events: dict[float, list[int]] = {}
        for pin in range(d_max):
            if state[pin] != target[pin]:
                events.setdefault(t_code + staggers[pin], []).append(pin)
        for t_event in sorted(events):
            for pin in events[t_event]:
                state[pin] = target[pin]
                count += 1 if target[pin] else -1
            needed.setdefault(count, count)
            if t_event == times[-1]:
                counts[-1] = count
            else:
                times.append(t_event)
                counts.append(count)
        assert count == sum(state) == sum(target)
    level = {n: row.vdac for n, row in zip(needed, solve_units(config, list(needed)))}
    vfs = level[d_max] - level[0]
    return Waveform(
        times=tuple(times),
        values=tuple(level[n] for n in counts),
        annotations=tuple(annotations),
        lsb_ref=vfs / d_max if vfs != 0.0 else config.vdd / d_max,
        vdd=config.vdd,
    )


def per_draw_staggers(seed, step, pin, d_max: int, skew_max: float) -> np.ndarray:
    """Reference of ``transient._drawn_staggers``: every draw taken on its own.

    Event (s, j) is draw (s - 1) * d_max + j of the stream default_rng(seed)
    gives: a fresh generator skips to it with advance() and draws one double.
    """
    staggers = []
    for s, j in zip(step, pin):
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance((int(s) - 1) * d_max + int(j))
        staggers.append(rng.uniform(0.0, skew_max, size=1)[0])
    return np.array(staggers, dtype=float)


def lcg_sum(a: int, n: int) -> int:
    """S_n = a^(n-1) + ... + a + 1 mod 2^128, from S_(n+1) = a * S_n + 1 and S_(2n) = (a^n + 1) * S_n.

    The bits of n are taken from the top: each doubles n, and a set bit then
    adds one more step of the recurrence.
    """
    mask = (1 << 128) - 1
    s, power = 0, 1  # S_0 and a^0
    for bit in bin(n)[2:]:
        s, power = (power + 1) * s & mask, power * power & mask
        if bit == "1":
            s, power = (a * s + 1) & mask, power * a & mask
    return s


def per_row_transfer_csv(curve) -> str:
    """Reference of ``cli.transfer_csv``: one tuple per NodeSolution row through csv_text."""
    rows = [
        (r.code, r.vdac, r.vd, r.vs, r.i_total, r.i_per_pullup, r.i_per_pulldown,
         r.region_p.value, r.region_n.value, r.kcl_residual)
        for r in curve.rows
    ]
    return csv_text(TRANSFER_COLUMNS, rows)


def per_row_saturation_flags(curve) -> list[bool]:
    """Reference of ``sizing.check_saturation_window``: the window rule row by row."""
    devices = curve.config.devices
    vth_p = getattr(devices.pmos, "vth", 0.0)
    vth_n = getattr(devices.nmos, "vth", 0.0)
    flags = []
    for row in curve.rows:
        strong = row.vd - row.vs >= max(vth_n, vth_p)
        n_sat = row.vdac >= row.vd - vth_n
        p_sat = row.vdac <= row.vs + vth_p
        flags.append(bool(strong and n_sat and p_sat))
    return flags


def per_row_regions(config: DacConfig, row) -> tuple[OperatingRegion, OperatingRegion]:
    """Reference of a curve's region columns: (region_p, region_n) of one NodeSolution row.

    A group with no active units is cut off. Otherwise a LinearSwitch is in
    triode, and a MOSFET group, at vgs = vd - vs and its own vds (each taken
    as 0 where negative), is cut off below vth, saturated from vds = vgs - vth
    up and in triode between.
    """

    def region(dev, units: int, vds: float) -> OperatingRegion:
        if units == 0:
            return OperatingRegion.CUTOFF
        if isinstance(dev, LinearSwitch):
            return OperatingRegion.TRIODE
        vgs, vds = max(row.vd - row.vs, 0.0), max(vds, 0.0)
        if vgs < dev.vth:
            return OperatingRegion.CUTOFF
        return OperatingRegion.SATURATION if vds >= vgs - dev.vth else OperatingRegion.TRIODE

    devices = config.devices
    return (region(devices.pmos, row.code, row.vd - row.vdac),
            region(devices.nmos, config.d_max - row.code, row.vdac - row.vs))


def per_sample_detect_glitches(w: Waveform, band: float) -> list[tuple[float, float]]:
    """Reference of ``detect_glitches``: every sample of every transition in a Python loop."""
    glitches = []
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


def per_code_extract(
    codes: list[int],
    vdac: list[float],
    i_per_pullup: list[float],
    region_p: list[str],
    region_n: list[str],
    vdd: float,
) -> ExtractedParams:
    """Reference of ``sizing.extract_from_table``: triode runs found code by code."""
    n = len(codes)
    if not (len(vdac) == len(i_per_pullup) == len(region_p) == len(region_n) == n):
        raise SizingError("column lengths differ")

    triode = OperatingRegion.TRIODE.value
    runs: list[tuple[int, int]] = []  # [start, end] inclusive index ranges
    start = None
    for idx in range(n):
        both = region_p[idx] == triode and region_n[idx] == triode
        if both and start is None:
            start = idx
        if not both and start is not None:
            runs.append((start, idx - 1))
            start = None
    if start is not None:
        runs.append((start, n - 1))
    runs = [r for r in runs if r[1] - r[0] >= 1]
    if not runs:
        raise SizingError(
            "no triode-triode run of at least 2 codes found "
            "(curve too coarse, or already corrected)"
        )
    lo_idx, hi_idx = max(runs, key=lambda r: r[1] - r[0])

    linear_range = (vdac[lo_idx], vdac[hi_idx])
    # The true region boundary falls between the last in-run code and its
    # out-of-run neighbor; take the midpoint of that bracket so the span (and
    # the vth read off it) is not biased by a full code step.
    edge_lo = 0.5 * (vdac[lo_idx - 1] + vdac[lo_idx]) if lo_idx > 0 else vdac[lo_idx]
    edge_hi = 0.5 * (vdac[hi_idx] + vdac[hi_idx + 1]) if hi_idx < n - 1 else vdac[hi_idx]
    span = edge_hi - edge_lo
    vth = 0.5 * (vdd - span)

    half = 0.5 * vdd
    mid_idx = min(range(lo_idx, hi_idx + 1), key=lambda i: (abs(vdac[i] - half), i))
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
    conductance = k_est * (vov - 0.25 * vdd)
    ron = 1.0 / conductance if conductance else float("inf")
    return ExtractedParams(vth=vth, ron=ron, vdd=vdd, linear_range=linear_range)
