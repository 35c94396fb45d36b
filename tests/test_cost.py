import numpy as np
import pytest

from smlmc.cost import (
    CostLedger,
    aggregate,
    comparison_table,
    plot_data,
    plot_data_to_csv,
    table_to_csv,
)


def _ledger(method, rows):
    lg = CostLedger(method=method)
    for level, stratum, count, work in rows:
        lg.add(level=level, stratum=stratum, count=count, avg_work=work)
    return lg


class TestLedger:
    def test_total_is_sum_of_parts(self):
        lg = _ledger("mlmc", [(0, 0, 100, 2.0), (1, 0, 10, 16.0)])
        assert lg.total() == 100 * 2.0 + 10 * 16.0

    def test_validation(self):
        lg = CostLedger(method="mc")
        with pytest.raises(ValueError):
            lg.add(level=0, stratum=0, count=-1, avg_work=1.0)
        with pytest.raises(ValueError):
            lg.add(level=0, stratum=0, count=1, avg_work=-1.0)


class TestAggregate:
    def test_single_run(self):
        assert aggregate([_ledger("mc", [(0, 0, 100, 2.0)])]) == 200.0

    def test_identical_runs(self):
        lg = _ledger("mc", [(0, 0, 100, 2.0)])
        assert aggregate([lg, lg]) == 200.0

    def test_mixed_runs_against_hand_sum(self):
        ledgers = [
            _ledger("mlmc", [(0, 0, 10, 1.0), (1, 0, 4, 5.0)]),   # 30
            _ledger("mlmc", [(0, 0, 20, 1.0)]),                    # 20
            _ledger("mlmc", [(0, 0, 7, 2.0), (1, 0, 2, 3.0)]),     # 20
        ]
        assert aggregate(ledgers) == pytest.approx((30 + 20 + 20) / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestComparisonTable:
    def test_single_method_ratios(self):
        table = comparison_table({0.01: {"mlmc": 10.0}})
        row = table["rows"][0]
        assert row["ratios_vs_mlmc"]["mlmc"] == 1.0
        assert row["ratios_vs_mc"] == {}

    def test_mc_ratio(self):
        table = comparison_table({0.01: {"mc": 100.0, "mlmc": 10.0}})
        row = table["rows"][0]
        assert row["ratios_vs_mc"]["mlmc"] == 10.0
        assert row["ratios_vs_mc"]["mc"] == 1.0

    def test_rows_sorted_by_decreasing_eps(self):
        table = comparison_table({0.005: {"mc": 1.0}, 0.01: {"mc": 1.0}})
        assert [r["eps"] for r in table["rows"]] == [0.01, 0.005]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            comparison_table({})

    def test_csv_output(self, tmp_path):
        table = comparison_table({0.01: {"mc": 100.0, "mlmc": 10.0}})
        path = tmp_path / "costs.csv"
        table_to_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("eps,cost_mc,cost_mlmc")
        assert len(lines) == 2
        assert "\r" not in path.read_text()


class TestPlotData:
    def test_series_shape(self):
        series = plot_data({0.01: {"mc": 100.0}, 0.005: {"mc": 400.0}})
        assert series["mc"] == [[0.01, 100.0], [0.005, 400.0]]

    def test_csv(self, tmp_path):
        series = plot_data({0.01: {"mc": 100.0, "mlmc": 10.0}})
        path = tmp_path / "plot.csv"
        plot_data_to_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,eps,cost"
        assert len(lines) == 3
