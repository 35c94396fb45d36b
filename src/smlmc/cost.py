"""Cost aggregation over independent realizations, and comparison tables.

Each estimator result carries its own total_cost, the sum over levels and
strata of sample count times the deterministic work of one pair sample (the
cells x time steps of its fine and coarse solves); an MC run's is its sample
count times the work of one fine solve."""


def aggregate(totals: list) -> float:
    """Mean total cost over independent realizations of one method."""
    if not totals:
        raise ValueError("aggregate needs at least one total")
    return float(sum(totals) / len(totals))


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

