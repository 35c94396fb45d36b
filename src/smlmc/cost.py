"""Cost bookkeeping: per-level, per-stratum sample counts and work, totals per
run, aggregation over independent realizations, and comparison tables."""

from dataclasses import dataclass, field


@dataclass
class CostLedger:
    """Work ledger of a single estimator run.

    Each entry records (level, stratum, sample count, average per-sample
    work); the run total is exactly the sum of count * avg_work over entries.
    """

    method: str
    entries: list = field(default_factory=list)

    def add(self, level: int, stratum: int, count: int, avg_work: float):
        if count < 0:
            raise ValueError("sample count must be nonnegative")
        if avg_work < 0:
            raise ValueError("work must be nonnegative")
        self.entries.append(
            {"level": level, "stratum": stratum, "count": count, "avg_work": avg_work}
        )

    def total(self) -> float:
        return float(sum(e["count"] * e["avg_work"] for e in self.entries))


def aggregate(ledgers: list) -> float:
    """Mean total cost over independent realizations of one method."""
    if not ledgers:
        raise ValueError("aggregate needs at least one ledger")
    return float(sum(lg.total() for lg in ledgers) / len(ledgers))


def comparison_table(costs: dict) -> dict:
    """Cross-method cost table.

    costs maps eps -> {method: mean cost}.  Returns rows keyed by eps with the
    raw costs plus ratio columns against the MC and plain MLMC baselines when
    those methods are present.
    """
    if not costs:
        raise ValueError("comparison_table needs at least one tolerance row")
    rows = []
    for eps in sorted(costs, reverse=True):
        per_method = costs[eps]
        row = {"eps": eps, "costs": dict(per_method), "ratios_vs_mc": {},
               "ratios_vs_mlmc": {}}
        mc = per_method.get("mc")
        mlmc = per_method.get("mlmc")
        for method, cost in per_method.items():
            if mc is not None and cost > 0:
                row["ratios_vs_mc"][method] = mc / cost
            if mlmc is not None and cost > 0:
                row["ratios_vs_mlmc"][method] = mlmc / cost
        rows.append(row)
    return {"rows": rows, "methods": sorted({m for r in costs.values() for m in r})}


def table_to_csv(table: dict, path):
    """Comma-separated table: one row per eps, cost and ratio columns per method."""
    methods = table["methods"]
    header = ["eps"]
    header += [f"cost_{m}" for m in methods]
    header += [f"mc_over_{m}" for m in methods]
    header += [f"mlmc_over_{m}" for m in methods]
    lines = [",".join(header)]
    for row in table["rows"]:
        cells = [f"{row['eps']:.12g}"]
        for m in methods:
            c = row["costs"].get(m)
            cells.append("" if c is None else f"{c:.12g}")
        for m in methods:
            v = row["ratios_vs_mc"].get(m)
            cells.append("" if v is None else f"{v:.12g}")
        for m in methods:
            v = row["ratios_vs_mlmc"].get(m)
            cells.append("" if v is None else f"{v:.12g}")
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def plot_data(costs: dict) -> dict:
    """(eps, cost) series per method, for external log-scale cost plots."""
    series: dict = {}
    for eps in sorted(costs, reverse=True):
        for method, cost in costs[eps].items():
            series.setdefault(method, []).append([eps, cost])
    return series


def plot_data_to_csv(series: dict, path):
    lines = ["method,eps,cost"]
    for method in sorted(series):
        for eps, cost in series[method]:
            lines.append(f"{method},{eps:.12g},{cost:.12g}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
