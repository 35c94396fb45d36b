"""Command-line experiment runner.

Reproduces the benchmark protocol: for every tolerance and every realization,
run plain MLMC (fixing the finest level), MC at that level reusing the MLMC
samples, smoothed MLMC with both kernels, and stratified MLMC with and
without KDE smoothing for each configured stratum count; then aggregate the
costs into comparison tables.  run_realization runs the protocol of one
realization, and the acceptance tests run it too; cmd_run names each run by
config.run_tag, writes its files and aggregates the costs.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import cdf as cdf_mod
from .config import KEYS, METHODS, ExperimentConfig, load_config, preset, run_tag
from .cost import aggregate, comparison_table, table_to_csv
from .estimators import SampleBank, run_mc, run_mlmc, run_smlmc
from .smoothing import build_giles_polynomial


def run_realization(exp: ExperimentConfig, eps: float, k: int):
    """The runs of realization k at tolerance eps in exp.run_plan() order (mlmc
    before the mc run that reuses its samples), with exp.run_config's
    settings, on one SampleBank: they share a seed, so the bank solves each
    of their common inputs once.  Yields (method, strata, outcome) per run,
    outcome being its result or the exception it raised."""
    model, dist, grid, hierarchy = (exp.model_spec(), exp.distribution(),
                                    exp.node_grid(), exp.hierarchy())
    bank = SampleBank(model, dist, hierarchy)
    mlmc_result = None
    for method, r in exp.run_plan():
        cfg = exp.run_config(method, eps, k)
        try:
            if method == "mc":
                if mlmc_result is None:
                    raise RuntimeError("mc requires the plain mlmc run")
                res = run_mc(model, dist, grid, hierarchy, cfg, mlmc_result)
            elif METHODS[method].stratified:
                res = run_smlmc(model, dist, exp.stratification(r), grid, hierarchy, cfg,
                                bank=bank)
            else:
                res = run_mlmc(model, dist, grid, hierarchy, cfg, bank=bank)
                if method == "mlmc":
                    mlmc_result = res
        except Exception as exc:  # the caller reports it
            res = exc
        yield method, r, res


def cmd_run(args) -> int:
    exp = _load_experiment(args, args.seed)
    out = Path(args.out or exp.out)
    if args.dry_run:
        print(f"model={exp.model} seed={exp.seed}")
        tags = ", ".join(run_tag(m, r) for m, r in exp.run_plan())
        for eps in exp.eps_values:
            for k in range(exp.n_real):
                print(f"eps={eps} run={k} seed={exp.seed + k}: {tags}")
        return 0
    out.mkdir(parents=True, exist_ok=True)
    (out / "reports").mkdir(exist_ok=True)
    failures = []
    costs: dict = {}
    for eps in exp.eps_values:
        totals: dict = {}
        for k in range(exp.n_real):
            for method, r, res in run_realization(exp, eps, k):
                tag = run_tag(method, r)
                if isinstance(res, Exception):  # the remaining runs went on
                    failures.append(f"eps={eps} run={k} {tag}: {res}")
                    print(f"FAILED eps={eps} run={k} {tag}: {res}", file=sys.stderr)
                    continue
                totals.setdefault(tag, []).append(res.total_cost)
                report = res.report()
                report["method"] = tag
                report["run"] = k
                rpath = out / "reports" / f"eps{eps:g}_run{k}_{tag}.json"
                with open(rpath, "w", newline="\n") as fh:
                    json.dump(report, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                cdf_mod.cdf_to_csv(res.estimate, out / "reports" /
                                   f"eps{eps:g}_run{k}_{tag}_cdf.csv")
        costs[eps] = {tag: aggregate(ts) for tag, ts in totals.items()}
        print(f"eps={eps}: " + "  ".join(
            f"{m}={c:.4g}" for m, c in sorted(costs[eps].items())
        ))
    table = comparison_table(costs)
    table_to_csv(table, out / "costs.csv")
    with open(out / "summary.json", "w", newline="\n") as fh:
        json.dump({"model": exp.model, "n_real": exp.n_real, "seed": exp.seed,
                   "table": table, "failures": failures},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    if failures:
        print(f"{len(failures)} run(s) failed", file=sys.stderr)
        return 1
    return 0


def _reference_cache_key(exp: ExperimentConfig) -> str:
    """Digest of the settings a reference CDF depends on: the model and every
    [model], [distribution], [grid] and [reference] key, in table order."""
    payload = json.dumps([exp.model] + [
        getattr(exp, field) for section, _, field, _ in KEYS
        if section in ("model", "distribution", "grid", "reference")
    ], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def compute_reference(exp: ExperimentConfig, out: Path):
    """Reference CDF for a configuration, cached on disk by parameter digest,
    with the self-convergence check against a half-density input grid."""
    out.mkdir(parents=True, exist_ok=True)
    key = _reference_cache_key(exp)
    path = out / f"reference_{exp.model}_{key}.json"
    if path.exists():
        print(f"reference cache hit: {path}")
        return cdf_mod.load_cdf_json(path), path
    ref, half = (cdf_mod.reference_cdf(
        exp.model_spec(), exp.distribution(), exp.node_grid(), exp.hierarchy(),
        mesh_refine=exp.ref_mesh_refine, quad_cells=quad_cells,
        quad_points=exp.ref_quad_points, time_coarsen=exp.ref_time_coarsen,
    ) for quad_cells in (exp.ref_quad_cells, max(exp.ref_quad_cells // 2, 1)))
    delta = float(np.abs(ref.raw - half.raw).max())
    ref.metadata["halving_delta"] = delta
    print(f"input-grid halving delta: {delta:.3e}")
    cdf_mod.cdf_to_json(ref, path)
    print(f"reference written: {path}")
    return ref, path


def cmd_reference(args) -> int:
    exp = _load_experiment(args, None)
    out = Path(args.out or exp.out)
    compute_reference(exp, out)
    return 0


def _inspect_lines(exp: ExperimentConfig, args) -> list:
    """The lines smlmc inspect prints about its subject."""
    if args.subject == "giles-poly":
        poly = build_giles_polynomial(exp.giles_degree)
        payload = {"degree_d": poly.degree_d, "coeffs": poly.coeffs.tolist()}
        return [json.dumps(payload, indent=2, sort_keys=True)]
    if args.subject == "strata":
        strat = exp.stratification(args.r)
        return ["stratum,lower,upper,prob"] + [
            f"{i + 1},{strat.boundaries[i]:.12g},{strat.boundaries[i + 1]:.12g},"
            f"{strat.probs[i]:.12g}" for i in range(strat.r)]
    xs, field = exp.model_spec().solve_field(args.w, args.cells)
    return ["x,u"] + [f"{x:.12g},{u:.12g}" for x, u in zip(xs, field)]


def cmd_inspect(args) -> int:
    exp = _load_experiment(args, None)
    try:
        lines = _inspect_lines(exp, args)
    except ValueError as exc:  # an argument the subject cannot use
        raise SystemExit(f"smlmc: invalid inspect {args.subject}: {exc}") from exc
    print("\n".join(lines))
    return 0


def _load_experiment(args, seed) -> ExperimentConfig:
    """The config of --config or --preset, with seed in place of its own
    unless seed is None."""
    if not (args.config or args.preset):
        raise SystemExit("need --preset or --config")
    try:
        exp = load_config(args.config) if args.config else preset(args.preset)
        return exp if seed is None else replace(exp, seed=seed)
    except ValueError as exc:  # a setting that cannot run stops every run
        raise SystemExit(f"smlmc: invalid config: {exc}") from exc


def _add_config(sub):
    sub.add_argument("--preset", choices=("diffusion", "burgers"))
    sub.add_argument("--config")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smlmc",
        description="CDF estimation benchmarks: MC vs multilevel and "
                    "stratified multilevel Monte Carlo",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    p_run = subs.add_parser("run", help="execute the benchmark protocol")
    _add_config(p_run)
    p_run.add_argument("--out")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--dry-run", action="store_true")
    p_ref = subs.add_parser("reference", help="compute and cache the reference CDF")
    _add_config(p_ref)
    p_ref.add_argument("--out")
    p_ins = subs.add_parser("inspect", help="dump internals for debugging")
    p_ins.add_argument("subject", choices=("giles-poly", "solver-field", "strata"))
    _add_config(p_ins)
    p_ins.add_argument("--r", type=int, default=8)
    p_ins.add_argument("--w", type=float, default=2.0)
    p_ins.add_argument("--cells", type=int, default=128)
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "reference":
        return cmd_reference(args)
    return cmd_inspect(args)


if __name__ == "__main__":
    sys.exit(main())
