"""Parallel-resistor sweeps: trade-off trends and limit behavior."""

import math

import numpy as np
import pytest

from gpiodac import explorer, network
from gpiodac.config import (
    DacConfig,
    DevicePair,
    MetricsError,
    MosfetParams,
    Network,
    ParallelAttach,
    calibrated_pair,
)
from gpiodac.explorer import SWEEP_COLUMNS, _with_rp, sweep_parallel, sweep_rows
from gpiodac.metrics import summary
from gpiodac.network import transfer_curve
from test_network import MISMATCHED, TOPOLOGIES, assert_matches_oracle

VDD = 3.3
PAIR = calibrated_pair(VDD, 1.15, 40.0)


def four_resistor_base() -> DacConfig:
    return DacConfig(
        n_bits=4,
        vdd=VDD,
        devices=PAIR,
        topology=Network(rsp=10.0, rsn=0.0, rpp=5.0, rpn=5.0),
    )


class TestTradeOffTrends:
    def test_bench_regime_directions(self):
        # 10 ohm series, parallel swept 5..10 ohm: range and current move the
        # designer's way while linearity pays for it
        points = sweep_parallel(four_resistor_base(), [5, 6, 7, 8, 9, 10])
        assert all(p.status == "ok" for p in points)
        dr = [p.report.dynamic_range for p in points]
        imax = [p.report.i_max for p in points]
        dnl = [p.report.dnl_max_abs for p in points]
        inl = [p.report.inl_max_abs for p in points]
        assert all(b > a for a, b in zip(dr, dr[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(imax, imax[1:]))
        assert dnl[-1] > dnl[0]
        assert inl[-1] > inl[0]
        assert all(p.rs == 10.0 for p in points)

    def test_single_point_equals_direct_summary(self):
        base = four_resistor_base()
        [point] = sweep_parallel(base, [5.0])
        network._last = None
        direct = summary(transfer_curve(base))
        assert point.report.inl_max_abs == pytest.approx(direct.inl_max_abs, rel=1e-12)
        assert point.report.i_max == pytest.approx(direct.i_max, rel=1e-12)

    def test_large_rp_approaches_standalone(self):
        standalone = transfer_curve(DacConfig(n_bits=4, vdd=VDD, devices=PAIR))
        base = DacConfig(n_bits=4, vdd=VDD, devices=PAIR, topology=Network(rpp=2.35, rpn=2.35))
        deviations = []
        for rp in (1e2, 1e3, 1e4):
            cfg = DacConfig(n_bits=4, vdd=VDD, devices=PAIR, topology=Network(rpp=rp, rpn=rp))
            dv = float(np.max(np.abs(transfer_curve(cfg).vdac - standalone.vdac)))
            deviations.append(dv)
        assert deviations[0] > deviations[1] > deviations[2]  # monotone convergence
        assert deviations[1] <= 0.01 * VDD  # 1 kohm is already within 1%
        sweep = sweep_parallel(base, [1e3])
        assert sweep[0].status == "ok"


class TestSweepMechanics:
    def test_rows_match_columns(self):
        points = sweep_parallel(four_resistor_base(), [5.0, 7.0])
        rows = sweep_rows(points)
        assert len(rows) == 2
        assert all(len(row) == len(SWEEP_COLUMNS) for row in rows)
        assert rows[0][0] == 5.0 and rows[0][1] == 10.0
        assert rows[0][-1] == "ok"

    def test_order_follows_input(self):
        points = sweep_parallel(four_resistor_base(), [9.0, 5.0, 7.0])
        assert [p.rp for p in points] == [9.0, 5.0, 7.0]

    def test_standalone_base_sweeps_as_a_two_resistor_base(self):
        standalone = DacConfig(n_bits=4, vdd=VDD, devices=MISMATCHED)
        two = DacConfig(n_bits=4, vdd=VDD, devices=MISMATCHED, topology=Network(rpp=9.0, rpn=11.0))
        rp_values = [2.35, 7.0, 2.35]
        points = sweep_parallel(standalone, rp_values)
        network._last = None
        assert points == sweep_parallel(two, rp_values)
        assert all(p.rs == 0.0 and p.status == "ok" for p in points)

    def test_empty_and_negative_values_rejected(self):
        with pytest.raises(ValueError, match="^rp_values must be non-empty$"):
            sweep_parallel(four_resistor_base(), [])
        with pytest.raises(ValueError):
            sweep_parallel(four_resistor_base(), [5.0, -1.0])

    @pytest.mark.parametrize("rp", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("topology",
                             [Network(rpp=2.35, rpn=2.35), Network(10.0, 0.0, 5.0, 5.0)],
                             ids=["two", "four"])
    def test_an_rp_not_above_0_is_refused_naming_rpp_before_anything_solves(
        self, monkeypatch, topology, rp
    ):
        solved = []
        monkeypatch.setattr(explorer, "_curves", solved.append)
        base = DacConfig(n_bits=4, vdd=VDD, devices=PAIR, topology=topology)
        with pytest.raises(ValueError, match=f"^parallel resistors must be > 0, got rpp={rp}, "):
            sweep_parallel(base, [5.0, rp])
        assert solved == []

    def test_two_resistor_base_reports_zero_series(self):
        base = DacConfig(n_bits=4, vdd=VDD, devices=PAIR, topology=Network(rpp=2.35, rpn=2.35))
        points = sweep_parallel(base, [2.0, 3.0])
        assert all(p.rs == 0.0 for p in points)
        assert all(p.status == "ok" for p in points)


def assert_same_bits(got, want) -> None:
    """got and want hold the same columns, bit for bit (regions by identity)."""
    assert got.config == want.config
    for name, column in want.columns.items():
        if column.dtype == object:
            assert got.columns[name].tolist() == column.tolist(), name
        else:
            assert got.columns[name].dtype == column.dtype, name
            assert got.columns[name].tobytes() == column.tobytes(), name


def solved_alone(config):
    """transfer_curve of config, that curve's report and the sweep status."""
    curve = transfer_curve(config)
    try:
        return curve, summary(curve), "ok"
    except MetricsError as exc:
        return curve, None, f"error: {exc}"


def spy_on_batches(monkeypatch) -> list[list[float]]:
    """The rpp of each config of each lane batch the solver is handed, filled as it runs."""
    batches = []
    solve_lanes = network._solve_lanes

    def spy(configs, counts):
        batches.append([c.topology.rpp for c in configs])
        return solve_lanes(configs, counts)

    monkeypatch.setattr(network, "_solve_lanes", spy)
    return batches


# The damped-Newton solver and its bisection fallback both missed their tolerance on codes
# 2-6 at rp = 1390 ohm; rp = 0.0625 and 5.48 ohm solved.
SOMETIMES_FAILING = DacConfig(
    n_bits=4,
    vdd=1.16,
    devices=DevicePair(
        pmos=MosfetParams(0.285, 1.01),
        nmos=MosfetParams(0.629, 0.000296),
    ),
    topology=Network(rsp=10.8, rsn=0.0, rpp=1.0, rpn=1.0,
                     parallel_attach=ParallelAttach.SUPPLY_RAILS),
)


class TestBatchedSweep:
    """A sweep solves all its points as one lane batch; each point gets its own curve's result."""

    @pytest.mark.parametrize("n_bits", [5, 10], ids=["cold", "warm"])
    @pytest.mark.parametrize("name", [name for name in TOPOLOGIES if name != "standalone"])
    def test_each_point_is_bitwise_its_own_transfer_curve(self, monkeypatch, name, n_bits):
        # four_inner at 2.35 ohm has a zero span.
        base = DacConfig(n_bits=n_bits, vdd=VDD, devices=MISMATCHED, topology=TOPOLOGIES[name])
        rp_values = [7.0, 2.35, 7.0]  # unsorted, with a duplicate
        solved = []
        curves = explorer._curves

        def spy(configs):
            result = curves(configs)
            solved.extend(result)
            return result

        monkeypatch.setattr(explorer, "_curves", spy)
        points = sweep_parallel(base, rp_values)
        assert [p.rp for p in points] == rp_values
        alone = {rp: solved_alone(_with_rp(base, rp)) for rp in set(rp_values)}
        for point, curve in zip(points, solved, strict=True):
            want, report, status = alone[point.rp]
            assert (point.report, point.status) == (report, status)
            assert_same_bits(curve, want)

    def test_points_are_packed_into_batches_of_whole_curves(self, monkeypatch):
        base = DacConfig(n_bits=5, vdd=VDD, devices=MISMATCHED, topology=TOPOLOGIES["four_inner"])
        rp_values = [5.0, 6.0, 7.0, 8.0, 9.0]
        batches = spy_on_batches(monkeypatch)
        monkeypatch.setattr(network, "_MAX_LANES", 2 * 32 + 31)  # two 5-bit curves, not three
        points = sweep_parallel(base, rp_values)
        assert batches == [[5.0, 6.0], [7.0, 8.0], [9.0]]
        monkeypatch.undo()
        for point in points:
            assert point.report == summary(transfer_curve(_with_rp(base, point.rp)))

    def test_a_batch_holds_at_most_2_to_the_16_lanes(self, monkeypatch):
        base = DacConfig(n_bits=12, vdd=VDD, devices=PAIR, topology=Network(rpp=2.35, rpn=2.35))
        batches = spy_on_batches(monkeypatch)
        points = sweep_parallel(base, [float(rp) for rp in range(1, 18)])
        assert [len(b) for b in batches] == [16, 1]  # 16 * 4096 lanes = 2^16
        assert all(p.status == "ok" for p in points)

    @pytest.mark.parametrize("name", ["four_supply", "rsn0_supply"])
    def test_supply_rails_sweep_mixing_absent_and_finite_rp_solves_each_point_alone(
        self, monkeypatch, name
    ):
        # rp = inf solves on the inner-rail path, which a supply-attached finite rp does not:
        # the points split into one batch per run of either.
        base = DacConfig(n_bits=10, vdd=VDD, devices=MISMATCHED, topology=TOPOLOGIES[name])
        rp_values = [7.0, math.inf, math.inf, 5.0, 6.0]
        batches = spy_on_batches(monkeypatch)
        points = sweep_parallel(base, rp_values)
        assert batches == [[7.0], [math.inf, math.inf], [5.0, 6.0]]
        monkeypatch.undo()
        for point in points:
            assert (point.report, point.status) == solved_alone(_with_rp(base, point.rp))[1:]

    def test_a_formerly_failing_point_solves_as_it_does_alone(self):
        rp_values = [0.0625, 1390.0, 5.48]
        points = sweep_parallel(SOMETIMES_FAILING, rp_values)
        alone = [solved_alone(_with_rp(SOMETIMES_FAILING, rp)) for rp in rp_values]
        assert [(p.report, p.status) for p in points] == [want[1:] for want in alone]
        assert all(p.status == "ok" for p in points)
        curve = alone[1][0]
        assert_matches_oracle(curve.config, curve.rows[2:7])
