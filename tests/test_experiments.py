"""Smoke + shape tests for the experiment harnesses (tiny scales).

The benchmarks run these at full scale; here we verify that every harness
executes, returns well-formed results and preserves its key orderings even
at toy sizes, so refactorings cannot silently break the reproduction.
"""

import numpy as np
import pytest

from repro.experiments import (
    format_table,
    intraday_scenario,
    run_aggregation_scheduling_interplay,
    run_balancing,
    run_exhaustive,
    run_fig5,
    run_fig6,
    run_pubsub_savings,
    scale_factor,
)
from repro.experiments.ablations import (
    run_flexibility_influence,
    run_hybrid_scheduling,
    run_price_grouping,
)
from repro.experiments.balancing import ScenarioConfig


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table("t", ["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = text.splitlines()
        assert lines[0] == "== t =="
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_scale_factor_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert scale_factor() == 2.5
        monkeypatch.setenv("REPRO_SCALE", "junk")
        assert scale_factor() == 1.0


class TestFig5Harness:
    def test_points_and_orderings(self):
        result = run_fig5(total_offers=4000, n_points=2, verbose=False)
        combos = {p.combination for p in result.points}
        assert combos == {"P0", "P1", "P2", "P3"}
        for combo in combos:
            series = result.series(combo)
            assert [p.offer_count for p in series] == [2000, 4000]
            # cumulative time is non-decreasing
            assert series[1].aggregation_time_s >= series[0].aggregation_time_s
        final = {c: result.series(c)[-1] for c in combos}
        assert final["P0"].aggregate_count >= final["P3"].aggregate_count
        assert final["P0"].flexibility_loss_per_offer == 0.0

    def test_disaggregation_slope_present(self):
        result = run_fig5(total_offers=2000, n_points=1, verbose=False)
        assert result.disaggregation_slope == result.disaggregation_slope  # not NaN


class TestFig6Harness:
    def test_scenario_scales_with_offers(self):
        small = intraday_scenario(10, seed=1)
        large = intraday_scenario(1000, seed=1)
        assert large.offer_count == 1000
        assert large.net_forecast.values.max() > small.net_forecast.values.max()

    def test_curves_and_rows(self):
        result = run_fig6(
            sizes=[10], budgets={10: 0.3}, repetitions=1, verbose=False
        )
        curve = result.curves[(10, "greedy-search")]
        assert curve
        costs = [c for _, c in curve]
        assert costs == sorted(costs, reverse=True)
        assert len(result.rows()) == 3  # three checkpoints for one size


class TestExhaustiveHarness:
    def test_small_instance(self):
        pytest.importorskip("scipy")
        result = run_exhaustive(
            n_offers=3, time_flex=4, metaheuristic_seconds=0.2, verbose=False
        )
        assert result.solution_count == 5**3
        assert result.status == "optimal"
        assert result.greedy_cost >= result.optimal_cost - 1e-9
        assert result.greedy_gap >= 0


class TestBalancingHarness:
    def test_small_day(self):
        config = ScenarioConfig(seed=1, n_brps=1, prosumers_per_brp=6)
        report = run_balancing(config=config, verbose=False)
        assert report.offers_submitted >= 0
        assert report.imbalance_after <= report.imbalance_before + 1e-9


class TestInterplayHarnesses:
    def test_agg_sched_tradeoff_direction(self):
        points = run_aggregation_scheduling_interplay(
            n_offers=800, tolerances=[0, 64], verbose=False
        )
        by_tol = {p.tolerance: p for p in points}
        assert by_tol[64].aggregate_count < by_tol[0].aggregate_count
        assert by_tol[64].scheduling_time_s <= by_tol[0].scheduling_time_s + 0.5

    def test_pubsub_rates_monotone(self):
        rates = run_pubsub_savings(
            thresholds=[0.0, 0.05], n_days=28, stream_days=1, verbose=False
        )
        assert rates[0.05] <= rates[0.0]


class TestAblationHarnesses:
    def test_flexibility_influence_space_growth(self):
        points = run_flexibility_influence(
            n_offers=8, flexibilities=[0, 4], budget_seconds=0.2, verbose=False
        )
        assert points[0].solution_space == 1
        assert points[1].solution_space == 5**8

    def test_hybrid_never_worse_than_pure(self):
        costs = run_hybrid_scheduling(
            n_offers=60, budget_seconds=0.4, verbose=False
        )
        assert costs["hybrid-ea"] <= costs["pure-ea"] + 1e-9

    def test_price_grouping_splits_tariffs(self):
        counts = run_price_grouping(n_offers=2000, verbose=False)
        assert counts["price-exact"] >= counts["price-blind"]


class TestForecastHarnesses:
    def test_fig4a_tiny_budget(self):
        from repro.experiments import run_fig4a

        result = run_fig4a(budget_seconds=0.4, n_days=22, verbose=False)
        assert set(result.final_errors) == {
            "random-restart-nelder-mead", "simulated-annealing", "random-search",
        }
        assert all(0 <= e <= 1 for e in result.final_errors.values())
        assert len(result.rows()) == 8

    def test_fig4b_tiny(self):
        from repro.experiments import run_fig4b

        result = run_fig4b(
            horizons_days=[0.25, 1.0], n_days=24, train_days=20, verbose=False
        )
        rows = result.rows()
        assert len(rows) == 2
        for _, demand_error, supply_error in rows:
            assert 0 <= demand_error <= 1
            assert 0 <= supply_error <= 1


class TestHierarchyForecastingHarness:
    def test_advisor_study_shapes(self):
        from repro.experiments.hierarchy_forecasting import run_hierarchy_forecasting

        study = run_hierarchy_forecasting(
            n_brps=2, groups_per_brp=2, n_days=15, verbose=False
        )
        assert study.all_models_count == 7  # 4 leaves + 2 BRPs + TSO
        assert study.leaves_only_count == 4
        assert study.advised_count <= study.leaves_only_count + 1
        assert set(study.advised_modes.values()) <= {"own-model", "aggregate"}


class TestCli:
    def test_list_positional(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "balancing" in out

    def test_list_flag(self, capsys):
        from repro.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "loadtest" in out

    def test_unknown_experiment_exit_code(self, capsys):
        from repro.__main__ import EXIT_UNKNOWN_EXPERIMENT, main

        assert main(["not-an-experiment"]) == EXIT_UNKNOWN_EXPERIMENT
        assert "unknown experiment" in capsys.readouterr().err

    def test_no_experiment_exit_code(self, capsys):
        from repro.__main__ import EXIT_UNKNOWN_EXPERIMENT, main

        assert main([]) == EXIT_UNKNOWN_EXPERIMENT

    def test_failing_experiment_exit_code(self, capsys, monkeypatch):
        from repro import __main__ as cli

        def boom():
            raise RuntimeError("injected failure")

        monkeypatch.setitem(cli.EXPERIMENTS, "fig5", (boom, "broken"))
        assert cli.main(["fig5"]) == cli.EXIT_EXPERIMENT_FAILED
        assert "failed" in capsys.readouterr().err
        assert cli.EXIT_EXPERIMENT_FAILED != cli.EXIT_UNKNOWN_EXPERIMENT

    def test_loadtest_smoke(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "loadtest",
                "--rate", "20",
                "--duration", "24",
                "--seed", "1",
                "--trigger", "count:threshold=20",
                "--batch", "8",
                "--passes", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "offers/sec" in out and "p95" in out

    def test_serve_smoke(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "serve",
                "--rate", "20",
                "--duration", "24",
                "--seed", "1",
                "--report-every", "12",
                "--batch", "8",
                "--passes", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[t=" in out and "offers/sec" in out
