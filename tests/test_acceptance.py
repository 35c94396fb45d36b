"""Acceptance suite: one test per criterion and a Burgers accuracy check,
each printing a PASS/FAIL line.

The expensive simulation batteries run once in module-scoped fixtures and are
shared across criteria.  Each realization of a battery is run by
smlmc.cli.run_realization, the runner of smlmc run, so the criteria judge the
runs the CLI makes.  The diffusion reference CDF values were computed by
the deterministic quadrature oracle (dense input-grid indicator sums at four
times the finest hierarchy resolution; see tests/data/diffusion_reference.json
for the generation parameters and self-convergence deltas) and are frozen
there; the oracle construction itself is exercised at reduced resolution in
tests/test_cdf.py.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    exact_burgers_cdf,
    godunov_flux,
    required_samples_mlmc,
    sample,
    thomas_solve,
)
from smlmc.cdf import CdfEstimate, NodeGrid, sup_distance
from smlmc.cli import run_realization
from smlmc.config import preset
from smlmc.estimators import (
    LevelState,
    mc_sample_count,
    required_samples_smlmc,
    run_mlmc,
    run_smlmc,
    stopping_check,
)
from smlmc.inputs import (
    TruncatedLognormal,
    build_equal_width_strata,
    proportional_allocation,
    substream,
)
from smlmc.smoothing import GAUSSIAN_CDF, build_giles_polynomial

DATA = Path(__file__).parent / "data"
N_REAL = 10
EPS_ACC = 0.01    # accuracy criterion
EPS_COST = 0.005  # cost-ordering criteria


def _passline(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def diffusion():
    exp = preset("diffusion")
    frozen = json.loads((DATA / "diffusion_reference.json").read_text())
    grid = exp.node_grid()
    assert np.allclose(frozen["nodes"], grid.nodes)
    ref = CdfEstimate(grid=grid, raw=np.asarray(frozen["values"]),
                      metadata={"kind": "reference-frozen"})
    return {
        "exp": exp,
        "model": exp.model_spec(),
        "dist": exp.distribution(),
        "grid": grid,
        "hier": exp.hierarchy(),
        "strat8": exp.stratification(8),
        "ref": ref,
        "frozen": frozen,
    }


def _battery(exp, eps_values, methods, n_real=N_REAL):
    """The first n_real realizations of the given methods at each of
    eps_values, sMLMC at r = 8, run by the runner smlmc run uses (one sample
    bank per realization, across its tolerances); returns per-tolerance,
    per-method lists and the seconds the battery took."""
    t0 = time.perf_counter()
    exp = replace(exp, eps_values=tuple(eps_values), methods=tuple(methods),
                  strata_counts=(8,))
    out = {eps: {m: [] for m in methods} for eps in eps_values}
    for k in range(n_real):
        for eps, method, _, res in run_realization(exp, k):
            if isinstance(res, Exception):
                raise res
            out[eps][method].append(res)
    out["_seconds"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def diffusion_runs(diffusion):
    # criteria 1 and 2 run the same seeds, so one battery serves both
    return _battery(diffusion["exp"], (EPS_ACC, EPS_COST),
                    ["mlmc", "mc", "mlmc_giles", "mlmc_kde", "smlmc", "smlmc_kde"])


@pytest.fixture(scope="module")
def diffusion_eps005(diffusion_runs):
    return diffusion_runs[EPS_COST]


@pytest.fixture(scope="module")
def burgers_eps005():
    runs = _battery(preset("burgers"), (EPS_COST,), ["mlmc_giles", "mlmc_kde"])
    return {**runs[EPS_COST], "_seconds": runs["_seconds"]}


def _mean_cost(results):
    return float(np.mean([r.total_cost for r in results]))


def test_criterion_1_accuracy_vs_oracle(diffusion, diffusion_runs):
    ref = diffusion["ref"]
    details = []
    ok = True
    for method in ("mc", "mlmc", "mlmc_giles", "mlmc_kde", "smlmc", "smlmc_kde"):
        sups = [sup_distance(r.estimate, ref, use_raw=True)
                for r in diffusion_runs[EPS_ACC][method]]
        rmse = float(np.sqrt(np.mean(np.square(sups))))
        ok &= rmse <= EPS_ACC
        details.append(f"{method}={rmse:.4f}")
    details.append(f"[target {EPS_ACC}, {N_REAL} runs, battery at eps {EPS_ACC} and "
                   f"{EPS_COST} {diffusion_runs['_seconds']:.0f}s]")
    _passline("criterion 1 (raw RMSE vs reference at eps=0.01)", ok,
              " ".join(details))


def test_criterion_2_cost_orderings(diffusion_runs, diffusion_eps005):
    c = {m: _mean_cost(diffusion_eps005[m])
         for m in ("mc", "mlmc", "mlmc_kde", "smlmc_kde")}
    checks = [
        ("C(MLMC) <= C(MC)/3", c["mlmc"] <= c["mc"] / 3.0,
         f"{c['mc'] / c['mlmc']:.2f}x"),
        ("C(MLMC+KDE) <= C(MLMC)/2", c["mlmc_kde"] <= c["mlmc"] / 2.0,
         f"{c['mlmc'] / c['mlmc_kde']:.2f}x"),
        ("C(sMLMC+KDE,r8) <= C(MLMC)/5", c["smlmc_kde"] <= c["mlmc"] / 5.0,
         f"{c['mlmc'] / c['smlmc_kde']:.2f}x"),
    ]
    ok = all(x[1] for x in checks)
    detail = "; ".join(f"{name}: {ratio}" for name, _, ratio in checks)
    detail += f" [battery {diffusion_runs['_seconds']:.0f}s]"
    _passline("criterion 2 (cost orderings, diffusion, eps=0.005)", ok, detail)


def test_criterion_3_kde_beats_giles(diffusion_eps005, burgers_eps005):
    cd_kde = _mean_cost(diffusion_eps005["mlmc_kde"])
    cd_gil = _mean_cost(diffusion_eps005["mlmc_giles"])
    cb_kde = _mean_cost(burgers_eps005["mlmc_kde"])
    cb_gil = _mean_cost(burgers_eps005["mlmc_giles"])
    ok = cd_kde <= cd_gil and cb_kde <= cb_gil
    _passline(
        "criterion 3 (KDE cost <= polynomial cost at eps=0.005)", ok,
        f"diffusion {cd_gil / cd_kde:.2f}x, burgers {cb_gil / cb_kde:.2f}x "
        f"[burgers battery {burgers_eps005['_seconds']:.0f}s]",
    )


def test_burgers_accuracy_vs_exact_cdf(burgers_eps005):
    # not a numbered criterion: the Burgers runs of criterion 3, judged
    # against the closed-form CDF as criterion 1 judges diffusion
    exp = preset("burgers")
    grid = exp.node_grid()
    exact = CdfEstimate(grid=grid, raw=exact_burgers_cdf(exp.distribution(), grid.nodes))
    details = []
    ok = True
    for method in ("mlmc_giles", "mlmc_kde"):
        sups = [sup_distance(r.estimate, exact, use_raw=True) for r in burgers_eps005[method]]
        rmse = float(np.sqrt(np.mean(np.square(sups))))
        ok &= rmse <= EPS_COST
        details.append(f"{method}={rmse:.4f}")
    details.append(f"[target {EPS_COST}, {N_REAL} runs]")
    _passline("burgers raw RMSE vs exact CDF at eps=0.005", ok, " ".join(details))


def test_criterion_4_variance_decay(diffusion, diffusion_eps005):
    # single-run decay profile (first seed)
    mlmc = diffusion_eps005["mlmc"][0]
    vi = [lv.var_idiff_pooled().max() for lv in mlmc.levels]
    vif = [lv.var_ifine_pooled().max() for lv in mlmc.levels]
    decay_ok = vi[-1] <= vi[0] / 10.0
    flat_ok = max(vif) / min(vif) < 2.0
    # stratified variance reduction, majority of (seed, level) cells
    wins = total = 0
    probs = diffusion["strat8"].probs
    for plain, strat in zip(diffusion_eps005["mlmc"], diffusion_eps005["smlmc"]):
        for lv_p, lv_s in zip(plain.levels, strat.levels):
            lhs = lv_s.n_total * lv_s.stratified_estimator_variance(probs).max()
            rhs = lv_p.var_idiff_pooled().max()
            wins += lhs <= rhs + 1e-12
            total += 1
    strat_ok = wins > total / 2
    ok = decay_ok and flat_ok and strat_ok
    _passline(
        "criterion 4 (variance decay and stratified reduction)", ok,
        f"V[I(Y_L)]/V[I(Y_0)]={vi[-1] / vi[0]:.3f} (<=0.1); "
        f"fine-indicator spread={max(vif) / min(vif):.2f}x (<2); "
        f"stratified wins {wins}/{total}",
    )


def test_criterion_5_exactness_suite(diffusion):
    t0 = time.perf_counter()
    checks = []

    # smoothing polynomial conditions for d = 0..3, and the linear ramp
    for d in range(4):
        poly = build_giles_polynomial(d)
        cond = abs(poly(1.0)) < 1e-10 and abs(poly(-1.0) - 1.0) < 1e-10
        for k in range(d):
            moment = sum(
                c * (2.0 / (k + j + 1) if (k + j) % 2 == 0 else 0.0)
                for j, c in enumerate(poly.coeffs)
            )
            cond &= abs(moment - (-1.0) ** k / (k + 1)) < 1e-10
        checks.append((f"poly d={d} conditions", cond))
    ramp = build_giles_polynomial(1)
    s = np.linspace(-1, 1, 41)
    checks.append(("g_{d=1} = (1-s)/2", np.abs(ramp(s) - (1 - s) / 2).max() < 1e-14))
    checks.append(("Phi(0) = 1/2", GAUSSIAN_CDF(0.0) == 0.5))

    # tridiagonal solver residual
    rng = np.random.default_rng(0)
    n = 60
    lo, up = rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1)
    diag = 3.0 + rng.uniform(0, 1, n)
    rhs = rng.uniform(-5, 5, n)
    x = thomas_solve(lo, diag, up, rhs)
    A = np.diag(diag) + np.diag(lo, -1) + np.diag(up, 1)
    checks.append(("Thomas residual < 1e-12", np.abs(A @ x - rhs).max() < 1e-12))

    # Godunov flux table
    checks.append(("flux consistency", godunov_flux(0.8, 0.8) == 0.8 * 0.8 / 2))
    checks.append(("flux shock", godunov_flux(2.0, 0.0) == 2.0))
    checks.append(("flux transonic", godunov_flux(-1.0, 1.0) == 0.0))

    # stratification probabilities
    strat = diffusion["strat8"]
    checks.append(("strata sum to 1", abs(strat.probs.sum() - 1.0) <= 1e-12))
    alloc = proportional_allocation(10, build_equal_width_strata(
        TruncatedLognormal(0.0, 1.0, 1.0, 3.0), 2))
    checks.append(("proportional allocation", int(alloc.sum()) == 10))

    # sample-count formulas against arithmetic oracles
    checks.append(("mlmc formula", required_samples_mlmc([0.25], [1.0], 0.01, 4.0)
                   == [10000]))
    checks.append(("mlmc two-level formula",
                   required_samples_mlmc([0.25, 0.01], [1.0, 4.0], 0.01, 4.0)
                   == [14000, 1400]))
    smlmc_counts = required_samples_smlmc(
        [np.array([[1.0], [0.25]])], [0.5, 0.5], [1.0], 0.01, 4.0
    )
    checks.append(("smlmc formula", smlmc_counts[0].tolist() == [15000, 7500]))
    checks.append(("mc formula", mc_sample_count(0.25, 0.01, 2.0) == 5000))

    # stopping rule truth table
    table_ok = (
        not stopping_check(0, np.array([0.0]), 0.005, 7)
        and stopping_check(2, np.array([0.003]), 0.005, 7)
        and not stopping_check(2, np.array([0.004]), 0.005, 7)
        and stopping_check(7, np.array([0.9]), 0.005, 7)
    )
    checks.append(("stopping truth table", table_ok))

    # degenerate stratification reproduces the plain run bit for bit
    exp = diffusion["exp"]
    cfg = replace(exp.run_config("mlmc", 0.02, 5), warmup=32)
    hier = replace(diffusion["hier"], l_star=2)
    plain = run_mlmc(diffusion["model"], diffusion["dist"], diffusion["grid"], hier, cfg)
    strat1 = build_equal_width_strata(diffusion["dist"], 1)
    degen = run_smlmc(diffusion["model"], diffusion["dist"], strat1,
                      diffusion["grid"], hier, cfg)
    checks.append(("r=1 sMLMC == MLMC bitwise",
                   np.array_equal(plain.estimate.raw, degen.estimate.raw)
                   and [l.n_total for l in plain.levels]
                   == [l.n_total for l in degen.levels]))

    elapsed = time.perf_counter() - t0
    failed = [name for name, ok in checks if not ok]
    _passline("criterion 5 (exactness suite)", not failed,
              f"{len(checks)} checks in {elapsed:.1f}s"
              + (f"; failed: {failed}" if failed else ""))
    assert elapsed < 60.0


def test_criterion_6_solver_orders():
    # diffusion: second order once the initial layer is resolved
    diffusion, burgers = preset("diffusion").model_spec(), preset("burgers").model_spec()
    u1, u2, u3 = (diffusion.solve_field(1.0, c)[1][:, 0] for c in (1024, 2048, 4096))
    e_c = np.abs(u2[::2] - u1).max()
    e_f = np.abs(u3[::2] - u2).max()
    diff_order = float(np.log2(e_c / e_f))
    # Burgers: first order in L1 with shocks present
    b1, b2, b3 = (burgers.solve_field(0.9, c)[1][:, 0] for c in (128, 256, 512))
    dx = 2.0 / 128
    eb_c = dx * np.abs(b2.reshape(-1, 2).mean(axis=1) - b1).sum()
    eb_f = (dx / 2) * np.abs(b3.reshape(-1, 2).mean(axis=1) - b2).sum()
    burg_order = float(np.log2(eb_c / eb_f))
    # Burgers conservation: one conservative step moves exactly the
    # boundary-flux difference
    rng = np.random.default_rng(1)
    u = rng.uniform(0.0, 2.0, 256)
    dxs, dt = 2.0 / 256, 0.001
    ext = np.concatenate([[2.0], u, [0.0]])
    flux = godunov_flux(ext[:-1], ext[1:])
    unew = u - (dt / dxs) * (flux[1:] - flux[:-1])
    residual = abs(dxs * (unew.sum() - u.sum()) - dt * (flux[0] - flux[-1]))
    ok = diff_order >= 1.9 and 0.6 <= burg_order <= 1.1 and residual < 1e-10
    _passline(
        "criterion 6 (solver orders and conservation)", ok,
        f"diffusion order={diff_order:.2f} (>=1.9); "
        f"burgers L1 order={burg_order:.2f} (in [0.6,1.1]); "
        f"conservation residual={residual:.1e} (<1e-10)",
    )


def test_criterion_7_statistical_soundness(diffusion):
    from scipy.stats import kstest

    dist = diffusion["dist"]
    draws = sample(dist, substream(2024, 0, 0), 100_000)
    ks = float(kstest(draws, dist.cdf).statistic)
    # law of total variance on the engine's level statistics: three strata
    # with probabilities (1/4, 1/2, 1/4) hold proportional counts of 60
    # samples; the stratified estimator variance sum_i p_i^2 V_i / n_i and
    # the plain MC variance V / N differ by the between-strata term
    probs = np.array([0.25, 0.5, 0.25])
    rng = np.random.default_rng(7)
    lv = LevelState(0, 3, 1, 1.0)
    for i, (n, mean, sd) in enumerate(zip((15, 30, 15), (0.5, 1.5, -0.5),
                                          (0.63, 0.32, 0.84))):
        x = rng.normal(mean, sd, (n, 1))
        lv.sum_idiff[i] += x.sum(axis=0)
        lv.sumsq_idiff[i] += (x * x).sum(axis=0)
        lv.n[i] += n
    v_strat = float(lv.stratified_estimator_variance(probs)[0])
    v_mc = float(lv.var_idiff_pooled()[0]) / lv.n_total
    means = lv.sum_idiff[:, 0] / lv.n
    grand = float(probs @ means)
    between = float(probs @ (means - grand) ** 2) / lv.n_total
    identity_gap = abs(v_mc - v_strat - between)
    ok = ks < 0.01 and v_strat <= v_mc and identity_gap < 1e-10
    _passline(
        "criterion 7 (sampling law and variance identity)", ok,
        f"KS={ks:.4f} (<0.01); stratified<=MC: {v_strat:.4g}<={v_mc:.4g}; "
        f"total-variance identity gap={identity_gap:.1e} (<1e-10)",
    )


def test_criterion_8_determinism(tmp_path):
    from smlmc.cli import main

    cfg = tmp_path / "exp.ini"
    cfg.write_text("""
[experiment]
model = diffusion
eps = 0.02
methods = mlmc, mc, smlmc_kde
strata = 4
n_real = 2
seed = 12

[model]
l_star = 3
""")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    files_a = sorted(p for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p for p in out_b.rglob("*") if p.is_file())
    same_names = [p.name for p in files_a] == [p.name for p in files_b]
    identical = same_names and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(files_a, files_b)
    )
    _passline(
        "criterion 8 (byte-identical outputs)", identical,
        f"{len(files_a)} files compared",
    )


def test_frozen_reference_provenance(diffusion):
    # the frozen oracle values carry their own convergence evidence
    frozen = diffusion["frozen"]
    delta = frozen["input_grid_halving_delta"]
    ok = delta < 1e-4 and np.all(np.diff(frozen["values"]) >= 0)
    _passline("frozen reference self-convergence", ok,
              f"input-grid halving delta={delta:.2e} (<1e-4)")
