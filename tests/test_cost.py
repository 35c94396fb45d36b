import pytest

from smlmc.cost import aggregate, comparison_table, table_to_csv


class TestAggregate:
    def test_single_run(self):
        assert aggregate([100 * 2.0]) == 200.0

    def test_identical_runs(self):
        assert aggregate([200.0, 200.0]) == 200.0

    def test_mixed_runs_against_hand_sum(self):
        totals = [10 * 1.0 + 4 * 5.0, 20 * 1.0, 7 * 2.0 + 2 * 3.0]   # 30, 20, 20
        assert aggregate(totals) == pytest.approx((30 + 20 + 20) / 3)

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

