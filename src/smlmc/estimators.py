"""Estimation engines: MC, MLMC, and stratified MLMC, with optional indicator
smoothing.

The multilevel loop follows the standard pattern: open a new level, draw
warmup pairs, (re)estimate per-node variances and per-sample work, size every
level from the variance/work table, top the levels up (samples are never
discarded), then test the weak-error proxy max_n |mean indicator difference|
against eps / sqrt(2) to decide whether another level is needed.

Sampling budgets carry a configurable safety factor on top of the textbook
budget split: the split bounds the worst single node's mean squared error,
while the acceptance metric is the supremum over all nodes, which for an
empirical-CDF-type process runs about 1.3x the worst node (Kolmogorov
statistic).  The default safety of 2.5 absorbs that inflation; setting it to
1.0 recovers the textbook counts.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cdf import CdfEstimate, NodeGrid
from .cost import CostLedger
from .inputs import (
    Stratification,
    TruncatedLognormal,
    build_equal_width_strata,
    proportional_allocation,
    substream,
)
from .models import MeshHierarchy, ModelSpec
from .smoothing import GAUSSIAN_CDF, build_giles_polynomial, calibrate_bandwidth

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class RunConfig:
    """Knobs of one estimator run (one seed, one tolerance)."""

    eps: float
    l_star: int = 7
    warmup: int = 200                  # N_l^0 at every level for this run
    smoother: str = "none"             # none | giles | kde
    giles_degree: int = 3
    strata: int = 1
    seed: int = 0
    work_model: str = "deterministic"  # deterministic | wallclock
    sampling_safety: float = 2.5
    calibration_fraction: float = 0.15
    min_stratum_samples: int = 2
    batch_size: int = 32768

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.smoother not in ("none", "giles", "kde"):
            raise ValueError(f"unknown smoother {self.smoother!r}")
        if self.work_model not in ("deterministic", "wallclock"):
            raise ValueError(f"unknown work model {self.work_model!r}")
        if self.warmup < 2:
            raise ValueError("need at least two warmup samples per level")

    @property
    def budget_factor(self) -> float:
        """2 for plain runs (e1 <= eps^2/2), 4 for smoothed (e1 <= eps^2/4),
        scaled by the sup-norm safety factor."""
        base = 2.0 if self.smoother == "none" else 4.0
        return base * self.sampling_safety

    def make_smoother(self):
        if self.smoother == "none":
            return None
        if self.smoother == "giles":
            return build_giles_polynomial(self.giles_degree)
        return GAUSSIAN_CDF


class LevelState:
    """Accumulated per-level statistics, per stratum and per node."""

    def __init__(self, level: int, n_strata: int, n_nodes: int, pair_work: float):
        self.level = level
        self.n = np.zeros(n_strata, dtype=int)
        self.sum_g = np.zeros((n_strata, n_nodes))
        self.sumsq_g = np.zeros((n_strata, n_nodes))
        self.sum_idiff = np.zeros((n_strata, n_nodes))
        self.sumsq_idiff = np.zeros((n_strata, n_nodes))
        self.sum_ifine = np.zeros((n_strata, n_nodes))
        self.pair_work = pair_work          # deterministic work units per pair sample
        self.elapsed = np.zeros(n_strata)   # wallclock seconds spent in solves
        self.delta: Optional[float] = None
        self.kept_fine: list = []           # all fine QoIs (MC reuse; plain runs only)
        self.history: list = []             # total sample count after each sizing pass

    @property
    def n_total(self) -> int:
        return int(self.n.sum())

    def avg_work(self, work_model: str) -> np.ndarray:
        """Per-stratum average work per pair sample."""
        if work_model == "deterministic":
            return np.full(self.n.shape, self.pair_work)
        with np.errstate(invalid="ignore"):
            w = self.elapsed / np.maximum(self.n, 1)
        return np.maximum(w, 1e-9)

    def var_g(self, i: int) -> np.ndarray:
        """Per-node sample variance of the (smoothed) level terms in stratum i,
        with the 1/N divisor."""
        n = max(int(self.n[i]), 1)
        m = self.sum_g[i] / n
        return np.maximum(self.sumsq_g[i] / n - m * m, 0.0)

    def var_idiff(self, i: int) -> np.ndarray:
        n = max(int(self.n[i]), 1)
        m = self.sum_idiff[i] / n
        return np.maximum(self.sumsq_idiff[i] / n - m * m, 0.0)

    def var_idiff_pooled(self) -> np.ndarray:
        n = max(self.n_total, 1)
        m = self.sum_idiff.sum(axis=0) / n
        return np.maximum(self.sumsq_idiff.sum(axis=0) / n - m * m, 0.0)

    def var_ifine_pooled(self) -> np.ndarray:
        n = max(self.n_total, 1)
        pf = self.sum_ifine.sum(axis=0) / n
        return np.maximum(pf * (1.0 - pf), 0.0)

    def mean_g_stratified(self, probs) -> np.ndarray:
        out = np.zeros(self.sum_g.shape[1])
        for i, p in enumerate(probs):
            out += p * self.sum_g[i] / max(int(self.n[i]), 1)
        return out

    def mean_idiff_stratified(self, probs) -> np.ndarray:
        out = np.zeros(self.sum_idiff.shape[1])
        for i, p in enumerate(probs):
            out += p * self.sum_idiff[i] / max(int(self.n[i]), 1)
        return out

    def stratified_estimator_variance(self, probs) -> np.ndarray:
        """Per-node variance of the stratified level estimator,
        sum_i p_i^2 V_i / n_i."""
        out = np.zeros(self.sum_idiff.shape[1])
        for i, p in enumerate(probs):
            out += p * p * self.var_idiff(i) / max(int(self.n[i]), 1)
        return out

    def report(self, probs, work_model: str) -> dict:
        return {
            "level": self.level,
            "n_per_stratum": self.n.tolist(),
            "n_total": self.n_total,
            "history": list(self.history),
            "delta": self.delta,
            "avg_work": self.avg_work(work_model).tolist(),
            "var_idiff_per_node": self.var_idiff_pooled().tolist(),
            "var_ifine_per_node": self.var_ifine_pooled().tolist(),
            "var_stratified_per_node": self.stratified_estimator_variance(probs).tolist(),
            "max_var_idiff": float(self.var_idiff_pooled().max()),
            "max_var_ifine": float(self.var_ifine_pooled().max()),
            "max_var_g": float(
                max(self.var_g(i).max() for i in range(self.n.size))
            ),
            "max_var_stratified": float(self.stratified_estimator_variance(probs).max()),
        }


def required_samples_mlmc(variances, works, eps: float, budget_factor: float):
    """Per-level sample counts N_l = ceil(max_n bf eps^-2 sqrt(V_{n,l}/w_l)
    sum_k sqrt(V_{n,k} w_k)).

    variances: one per-node array (or scalar) per level; works: one positive
    scalar per level.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    works = [float(w) for w in works]
    if any(w <= 0 for w in works):
        raise ValueError("per-sample work must be positive")
    vs = [np.atleast_1d(np.asarray(v, dtype=float)) for v in variances]
    if any(np.any(v < 0) for v in vs):
        raise ValueError("variances must be nonnegative")
    total = sum(np.sqrt(v * w) for v, w in zip(vs, works))
    out = []
    for v, w in zip(vs, works):
        per_node = np.sqrt(v / w) * total
        out.append(int(np.ceil(budget_factor / eps**2 * per_node.max())))
    return out


def required_samples_smlmc(variances, probs, works, eps: float, budget_factor: float):
    """Per-stratum, per-level counts from the stratified analogue of the MLMC
    formula: n_{i,l} = ceil(max_n bf eps^-2 sqrt(V_{n,l,i} p_i^2 / w_{i,l})
    sum_k sum_j sqrt(V_{n,k,j} p_j^2 w_{j,k})).

    variances: one (r, nodes) array per level; works: one (r,) array per
    level; probs: stratum probabilities.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    probs = np.asarray(probs, dtype=float)
    r = probs.size
    vs = [np.atleast_2d(np.asarray(v, dtype=float)) for v in variances]
    ws = [np.atleast_1d(np.asarray(w, dtype=float)) for w in works]
    for v, w in zip(vs, ws):
        if v.shape[0] != r or w.shape[0] != r:
            raise ValueError("need one variance row and one work entry per stratum")
        if np.any(w <= 0):
            raise ValueError("per-sample work must be positive")
        if np.any(v < 0):
            raise ValueError("variances must be nonnegative")
    total = 0.0
    for v, w in zip(vs, ws):
        total = total + sum(
            np.sqrt(v[i] * probs[i] ** 2 * w[i]) for i in range(r)
        )
    out = []
    for v, w in zip(vs, ws):
        counts = np.empty(r, dtype=int)
        for i in range(r):
            per_node = np.sqrt(v[i] * probs[i] ** 2 / w[i]) * total
            counts[i] = int(np.ceil(budget_factor / eps**2 * per_node.max()))
        out.append(counts)
    return out


def mc_sample_count(max_indicator_variance: float, eps: float,
                    budget_factor: float = 2.0) -> int:
    """N_MC = ceil(bf eps^-2 max_n V[I_n]) for the single-level comparison run."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_indicator_variance < 0:
        raise ValueError("variance must be nonnegative")
    return int(np.ceil(budget_factor / eps**2 * max_indicator_variance))


def stopping_check(level: int, mean_indicator_diff, eps: float, l_star: int) -> bool:
    """Weak-error proxy: stop once max_n |mean I_n(Y_L)| <= eps / sqrt(2)
    (never at level 0), or unconditionally at the level cap."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level >= l_star:
        return True
    if level < 1:
        return False
    mean_abs = float(np.abs(np.asarray(mean_indicator_diff, dtype=float)).max())
    return mean_abs <= eps / SQRT2


@dataclass
class MultilevelResult:
    estimate: CdfEstimate
    levels: list
    ledger: CostLedger
    config: RunConfig
    method: str
    strat: Stratification
    warnings: list

    @property
    def l_max(self) -> int:
        return len(self.levels) - 1

    def bandwidths(self):
        """Calibrated per-level bandwidths, or None for a plain run."""
        if self.config.smoother == "none":
            return None
        from .smoothing import Bandwidth

        return Bandwidth(kind=self.config.smoother,
                         per_level=tuple(lv.delta for lv in self.levels))

    def report(self) -> dict:
        return {
            "method": self.method,
            "eps": self.config.eps,
            "seed": self.config.seed,
            "smoother": self.config.smoother,
            "strata": self.strat.r,
            "l_max": self.l_max,
            "sampling_safety": self.config.sampling_safety,
            "work_model": self.config.work_model,
            "total_cost": self.ledger.total(),
            "warnings": list(self.warnings),
            "levels": [
                lv.report(self.strat.probs, self.config.work_model) for lv in self.levels
            ],
        }


@dataclass
class McResult:
    estimate: CdfEstimate
    ledger: CostLedger
    n_samples: int
    n_reused: int
    level: int

    def report(self) -> dict:
        return {
            "method": "mc",
            "level": self.level,
            "n_samples": self.n_samples,
            "n_reused": self.n_reused,
            "total_cost": self.ledger.total(),
        }


class _Engine:
    """Shared machinery of the plain and stratified multilevel runs."""

    def __init__(self, model: ModelSpec, dist: TruncatedLognormal,
                 strat: Stratification, grid: NodeGrid,
                 hierarchy: MeshHierarchy, config: RunConfig):
        self.model = model
        self.dist = dist
        self.strat = strat
        self.grid = grid
        self.hierarchy = hierarchy
        self.cfg = config
        self.nodes = grid.nodes
        self.smoother = config.make_smoother()
        self.levels: list[LevelState] = []
        self.warnings: list[str] = []
        self.keep_fine = strat.r == 1 and config.smoother == "none"
        self._streams = {}
        self._stratum_cdf = dist.cdf(strat.boundaries)

    # -- sampling ---------------------------------------------------------

    def _stream(self, level: int, stratum: int) -> np.random.Generator:
        key = (level, stratum)
        if key not in self._streams:
            self._streams[key] = substream(self.cfg.seed, level, stratum)
        return self._streams[key]

    def _draw_inputs(self, level: int, stratum: int, m: int) -> np.ndarray:
        u = self._stream(level, stratum).random(m)
        if self.strat.r == 1:
            return self.dist.inverse_cdf(u)
        lo = self._stratum_cdf[stratum]
        hi = self._stratum_cdf[stratum + 1]
        return self.dist.inverse_cdf(lo + u * (hi - lo))

    def _pair_work(self, level: int) -> float:
        w = self.model.work_units(self.hierarchy.cells(level))
        if level > 0:
            w += self.model.work_units(self.hierarchy.cells(level - 1))
        return w

    def _solve_pairs(self, level: int, w: np.ndarray):
        cells = self.hierarchy.cells(level)
        fine = self.model.qoi_batch(w, cells)
        coarse = None
        if level > 0:
            coarse = self.model.qoi_batch(w, self.hierarchy.cells(level - 1))
        return fine, coarse

    def _accumulate(self, lv: LevelState, stratum: int, fine, coarse):
        nodes = self.nodes
        i_fine = (fine[:, None] <= nodes[None, :]).astype(float)
        if coarse is None:
            i_diff = i_fine
        else:
            i_diff = i_fine - (coarse[:, None] <= nodes[None, :])
        lv.sum_idiff[stratum] += i_diff.sum(axis=0)
        lv.sumsq_idiff[stratum] += (i_diff * i_diff).sum(axis=0)
        lv.sum_ifine[stratum] += i_fine.sum(axis=0)
        if self.smoother is None:
            g = i_diff
        else:
            g_fine = self.smoother.values(fine, nodes, lv.delta)
            if coarse is None:
                g = g_fine
            else:
                g = g_fine - self.smoother.values(coarse, nodes, lv.delta)
        lv.sum_g[stratum] += g.sum(axis=0)
        lv.sumsq_g[stratum] += (g * g).sum(axis=0)
        lv.n[stratum] += fine.shape[0]

    def _add_samples(self, level: int, stratum: int, m: int):
        lv = self.levels[level]
        while m > 0:
            batch = min(m, self.cfg.batch_size)
            w = self._draw_inputs(level, stratum, batch)
            t0 = time.perf_counter()
            fine, coarse = self._solve_pairs(level, w)
            lv.elapsed[stratum] += time.perf_counter() - t0
            if self.keep_fine:
                lv.kept_fine.append(fine)
            self._accumulate(lv, stratum, fine, coarse)
            m -= batch

    # -- level sizing -----------------------------------------------------

    def _warmup_counts(self) -> np.ndarray:
        if self.strat.r == 1:
            return np.array([self.cfg.warmup])
        return proportional_allocation(
            self.cfg.warmup, self.strat, self.cfg.min_stratum_samples
        )

    def _formula_counts(self, level: int):
        variances = [
            np.stack([lv.var_g(i) for i in range(self.strat.r)]) for lv in self.levels
        ]
        works = [lv.avg_work(self.cfg.work_model) for lv in self.levels]
        per_level = required_samples_smlmc(
            variances, self.strat.probs, works, self.cfg.eps, self.cfg.budget_factor
        )
        return per_level[level]

    def _topup(self, level: int):
        lv = self.levels[level]
        counts = self._formula_counts(level)
        if self.strat.r == 1:
            targets = np.maximum(counts, lv.n)
        else:
            # proportional split of the formula total across strata: immune to
            # falsely-zero per-stratum variance estimates at warmup sizes
            total = max(int(counts.sum()), lv.n_total,
                        self.strat.r * self.cfg.min_stratum_samples)
            targets = np.maximum(
                proportional_allocation(total, self.strat, self.cfg.min_stratum_samples),
                lv.n,
            )
        for i in range(self.strat.r):
            self._add_samples(level, i, int(targets[i] - lv.n[i]))
        lv.history.append(lv.n_total)

    def _open_level(self, level: int):
        lv = LevelState(level, self.strat.r, self.nodes.size, self._pair_work(level))
        self.levels.append(lv)
        counts = self._warmup_counts()
        if self.smoother is None:
            for i in range(self.strat.r):
                self._add_samples(level, i, int(counts[i]))
        else:
            # bandwidth first: draw all warmup pairs, calibrate on the pooled
            # fine values, then fold the warmups into the statistics
            drawn = []
            for i in range(self.strat.r):
                w = self._draw_inputs(level, i, int(counts[i]))
                t0 = time.perf_counter()
                fine, coarse = self._solve_pairs(level, w)
                lv.elapsed[i] += time.perf_counter() - t0
                drawn.append((i, fine, coarse))
            pooled = np.concatenate([f for _, f, _ in drawn])
            lv.delta = calibrate_bandwidth(
                self.smoother, pooled, self.nodes, self.cfg.eps,
                bracket_top=self.grid.h,
                target_fraction=self.cfg.calibration_fraction,
            )
            for i, fine, coarse in drawn:
                if self.keep_fine:
                    lv.kept_fine.append(fine)
                self._accumulate(lv, i, fine, coarse)

    # -- main loop --------------------------------------------------------

    def run(self) -> MultilevelResult:
        cap = min(self.cfg.l_star, self.hierarchy.l_star)
        level = -1
        while level < cap:
            level += 1
            self._open_level(level)
            self._topup(level)
            for l in range(level):
                self._topup(l)
            mean_diff = self.levels[level].mean_idiff_stratified(self.strat.probs)
            if stopping_check(level, mean_diff, self.cfg.eps, cap):
                if level == cap and level >= 1:
                    bias = float(np.abs(mean_diff).max())
                    if bias > self.cfg.eps / SQRT2:
                        self.warnings.append(
                            f"level cap {cap} reached with weak-error proxy "
                            f"{bias:.3e} above {self.cfg.eps / SQRT2:.3e}"
                        )
                break
        raw = np.zeros(self.nodes.size)
        for lv in self.levels:
            raw += lv.mean_g_stratified(self.strat.probs)
        method = _method_name(self.cfg, self.strat)
        estimate = CdfEstimate(
            grid=self.grid,
            raw=raw,
            metadata={
                "kind": method,
                "eps": self.cfg.eps,
                "seed": self.cfg.seed,
                "l_max": len(self.levels) - 1,
            },
        )
        ledger = CostLedger(method=method)
        for lv in self.levels:
            avg = lv.avg_work(self.cfg.work_model)
            for i in range(self.strat.r):
                ledger.add(level=lv.level, stratum=i, count=int(lv.n[i]),
                           avg_work=float(avg[i]))
        return MultilevelResult(
            estimate=estimate, levels=self.levels, ledger=ledger,
            config=self.cfg, method=method, strat=self.strat,
            warnings=self.warnings,
        )


def _method_name(cfg: RunConfig, strat: Stratification) -> str:
    base = "smlmc" if strat.r > 1 else "mlmc"
    if cfg.smoother != "none":
        base += f"_{cfg.smoother}"
    if strat.r > 1:
        base += f"_r{strat.r}"
    return base


def run_mlmc(model: ModelSpec, dist: TruncatedLognormal, grid: NodeGrid,
             hierarchy: MeshHierarchy, config: RunConfig) -> MultilevelResult:
    """Plain or smoothed multilevel run (single stratum)."""
    strat = build_equal_width_strata(dist, 1)
    return _Engine(model, dist, strat, grid, hierarchy, config).run()


def run_smlmc(model: ModelSpec, dist: TruncatedLognormal, strat: Stratification,
              grid: NodeGrid, hierarchy: MeshHierarchy,
              config: RunConfig) -> MultilevelResult:
    """Stratified multilevel run; with r = 1 it reproduces run_mlmc bit for bit
    under a shared seed."""
    return _Engine(model, dist, strat, grid, hierarchy, config).run()


def run_mc(model: ModelSpec, dist: TruncatedLognormal, grid: NodeGrid,
           hierarchy: MeshHierarchy, config: RunConfig,
           mlmc_result: MultilevelResult) -> McResult:
    """Single-level MC on the finest level reached by a plain MLMC run,
    re-using that run's fine-level samples.

    The sample count comes from the finest level's estimated indicator
    variance; cost is charged for all N_MC samples at fine-solve work, since
    the comparison treats the reused samples as MC samples too.
    """
    levels = mlmc_result.levels
    top = levels[-1]
    l_max = top.level
    var_max = float(top.var_ifine_pooled().max())
    n_mc = mc_sample_count(var_max, config.eps, 2.0 * config.sampling_safety)
    reused = (
        np.concatenate(top.kept_fine) if top.kept_fine else np.empty(0)
    )
    n_reused = min(reused.size, n_mc)
    extra = max(n_mc - reused.size, 0)
    cells = hierarchy.cells(l_max)
    det_fine = model.work_units(cells)
    elapsed = 0.0
    samples = [reused]
    if extra > 0:
        rng = substream(config.seed, l_max, 0, 1)
        remaining = extra
        while remaining > 0:
            batch = min(remaining, config.batch_size)
            w = dist.inverse_cdf(rng.random(batch))
            t0 = time.perf_counter()
            samples.append(model.qoi_batch(w, cells))
            elapsed += time.perf_counter() - t0
            remaining -= batch
    qoi = np.concatenate(samples)
    raw = (qoi[:, None] <= grid.nodes[None, :]).mean(axis=0)
    fine_work = det_fine
    if config.work_model == "wallclock":
        if extra > 0:
            fine_work = max(elapsed / extra, 1e-9)
        else:
            # no fresh draws: scale the measured pair rate by the deterministic
            # fine share of the pair work
            pair = float(top.avg_work("wallclock").mean())
            fine_work = max(pair * det_fine / top.pair_work, 1e-9)
    ledger = CostLedger(method="mc")
    ledger.add(level=l_max, stratum=0, count=n_mc, avg_work=float(fine_work))
    estimate = CdfEstimate(
        grid=grid,
        raw=raw,
        metadata={"kind": "mc", "eps": config.eps, "seed": config.seed, "level": l_max},
    )
    return McResult(estimate=estimate, ledger=ledger, n_samples=n_mc,
                    n_reused=n_reused, level=l_max)
