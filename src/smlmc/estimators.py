"""Estimation engines: MC, MLMC, and stratified MLMC, with optional indicator
smoothing.

The multilevel loop follows the standard pattern: open a new level, draw
warmup pairs, (re)estimate per-node variances, size every level from the
variances and the work of a pair sample (the deterministic work model: cells
x time steps of its fine and coarse solves), top the levels up (samples are
never discarded), then test the weak-error proxy max_n |mean indicator
difference| against eps / sqrt(2) to decide whether another level is
needed.  Each warmup or top-up pass takes its rows from a SampleBank: level
l of stratum i is drawn from its own substream (seed, l, i), and the rows
the bank does not hold yet are drawn and solved, all strata together, with
one ModelSpec.qoi_batch call per mesh.

Runs with the same seed draw the same inputs from the same substream keys,
so a bank shared by the runs of one realization (as the CLI shares one per
realization) solves each input once.  Every run still records, and is
charged for, every row it uses, so its results are those of the run alone.

Sampling budgets carry a configurable safety factor on top of the textbook
budget split: the split bounds the worst single node's mean squared error,
while the acceptance metric is the supremum over all nodes, which for an
empirical-CDF-type process runs about 1.3x the worst node (Kolmogorov
statistic).  The default safety of 2.5 absorbs that inflation; setting it to
1.0 recovers the textbook counts.

Each solved batch enters the per-node running sums without a dense
(batch, nodes) matrix.  Indicator sums are integer counts from one sort of
the batch (cdf.indicator_counts).  Smoothed terms are evaluated only where
the kernel is not saturated, in a band of nodes around each sample (_band);
at level 0 the saturated terms enter as counts times the two saturation
values.  Indicator sums and smoothed sums at levels >= 1 have the bits of
the dense column sums; level-0 smoothed sums are held to the dense sums'
rounding bound, N 2^-52 sum_j |g_jn| per node over a batch of N.  The tests
hold these sums to the dense indicator matrix and to the kernels' values.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cdf import CdfEstimate, NodeGrid, indicator_counts
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

# the fewest samples each stratum of a level (an unstratified level is one
# stratum) takes in a pass: its variance estimate needs two
MIN_STRATUM_SAMPLES = 2


@dataclass(frozen=True)
class RunConfig:
    """Knobs of one estimator run (one seed, one tolerance)."""

    eps: float
    warmup: int                        # N_l^0 at every level for this run
    giles_degree: int
    seed: int
    sampling_safety: float
    calibration_fraction: float
    smoother: str = "none"             # none | giles | kde

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.smoother not in ("none", "giles", "kde"):
            raise ValueError(f"unknown smoother {self.smoother!r}")
        if self.warmup < MIN_STRATUM_SAMPLES:
            raise ValueError("need at least two warmup samples per level")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be nonnegative")
        if self.sampling_safety <= 0:
            raise ValueError("sampling_safety must be positive")
        if self.calibration_fraction <= 0:
            raise ValueError("calibration_fraction must be positive")

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


def _variance(sums, sumsq, n):
    """Sample variance with the 1/n divisor, from running sums."""
    m = sums / n
    return np.maximum(sumsq / n - m * m, 0.0)


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
        self.delta: Optional[float] = None
        self.history: list = []             # total sample count after each sizing pass

    @property
    def n_total(self) -> int:
        return int(self.n.sum())

    @property
    def _counts(self) -> np.ndarray:
        """Per-stratum counts as an (r, 1) column, empty strata counted as 1."""
        return np.maximum(self.n, 1)[:, None]

    def var_g(self) -> np.ndarray:
        """Per-stratum, per-node variance of the (smoothed) level terms."""
        return _variance(self.sum_g, self.sumsq_g, self._counts)

    def var_idiff(self) -> np.ndarray:
        """Per-stratum, per-node variance of the indicator differences."""
        return _variance(self.sum_idiff, self.sumsq_idiff, self._counts)

    def var_idiff_pooled(self) -> np.ndarray:
        return _variance(self.sum_idiff.sum(axis=0), self.sumsq_idiff.sum(axis=0),
                         max(self.n_total, 1))

    def var_ifine_pooled(self) -> np.ndarray:
        n = max(self.n_total, 1)
        pf = self.sum_ifine.sum(axis=0) / n
        return np.maximum(pf * (1.0 - pf), 0.0)

    def _stratified_sum(self, weights, per_stratum) -> np.ndarray:
        """sum_i w_i X_i / n_i, added up stratum by stratum (numpy reduces
        axis 0 row by row when rows hold two nodes or more, as every grid's do)."""
        return (np.asarray(weights)[:, None] * per_stratum / self._counts).sum(axis=0)

    def mean_g_stratified(self, probs) -> np.ndarray:
        return self._stratified_sum(probs, self.sum_g)

    def mean_idiff_stratified(self, probs) -> np.ndarray:
        return self._stratified_sum(probs, self.sum_idiff)

    def stratified_estimator_variance(self, probs) -> np.ndarray:
        """Per-node variance of the stratified level estimator,
        sum_i p_i^2 V_i / n_i."""
        probs = np.asarray(probs)
        return self._stratified_sum(probs * probs, self.var_idiff())

    def report(self, probs) -> dict:
        var_idiff = self.var_idiff_pooled()
        var_ifine = self.var_ifine_pooled()
        var_stratified = self.stratified_estimator_variance(probs)
        return {
            "level": self.level,
            "n_per_stratum": self.n.tolist(),
            "n_total": self.n_total,
            "history": list(self.history),
            "delta": self.delta,
            "avg_work": [self.pair_work] * self.n.size,
            "var_idiff_per_node": var_idiff.tolist(),
            "var_ifine_per_node": var_ifine.tolist(),
            "var_stratified_per_node": var_stratified.tolist(),
            "max_var_idiff": float(var_idiff.max()),
            "max_var_ifine": float(var_ifine.max()),
            "max_var_g": float(self.var_g().max()),
            "max_var_stratified": float(var_stratified.max()),
        }


def required_samples_smlmc(variances, probs, works, eps: float, budget_factor: float):
    """Per-stratum, per-level counts from the stratified analogue of the MLMC
    formula: n_{i,l} = ceil(max_n bf eps^-2 sqrt(V_{n,l,i} p_i^2 / w_l)
    sum_k sum_j sqrt(V_{n,k,j} p_j^2 w_k)).

    variances: one (r, nodes) array per level; works: one positive scalar
    per level, the work of a pair sample in any stratum; probs: stratum
    probabilities.  At r = 1 it is the plain MLMC formula, which the tests
    hold it to.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    works = [float(w) for w in works]
    if any(w <= 0 for w in works):
        raise ValueError("per-sample work must be positive")
    probs = np.asarray(probs, dtype=float)
    vs = [np.atleast_2d(np.asarray(v, dtype=float)) for v in variances]
    for v in vs:
        if v.shape[0] != probs.size:
            raise ValueError("need one variance row per stratum")
        if np.any(v < 0):
            raise ValueError("variances must be nonnegative")
    # p_i^2 by scalar pow, which numpy's array power does not round alike
    p2 = np.array([p ** 2 for p in probs])[:, None]
    total = sum(np.sqrt(v * p2 * w).sum(axis=0) for v, w in zip(vs, works))
    return [
        np.ceil(budget_factor / eps**2 * (np.sqrt(v * p2 / w) * total).max(axis=1)).astype(int)
        for v, w in zip(vs, works)
    ]


def mc_sample_count(max_indicator_variance: float, eps: float, budget_factor: float) -> int:
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
    total_cost: float
    config: RunConfig
    strat: Stratification
    warnings: list
    bank: "SampleBank"  # the rows the run used, and run_mc reuses

    @property
    def l_max(self) -> int:
        return len(self.levels) - 1

    def report(self) -> dict:
        return {
            "eps": self.config.eps,
            "seed": self.config.seed,
            "smoother": self.config.smoother,
            "strata": self.strat.r,
            "l_max": self.l_max,
            "sampling_safety": self.config.sampling_safety,
            "total_cost": self.total_cost,
            "warnings": list(self.warnings),
            "levels": [lv.report(self.strat.probs) for lv in self.levels],
        }


@dataclass
class McResult:
    estimate: CdfEstimate
    total_cost: float
    n_samples: int
    n_reused: int
    level: int

    def report(self) -> dict:
        return {
            "level": self.level,
            "n_samples": self.n_samples,
            "n_reused": self.n_reused,
            "total_cost": self.total_cost,
        }


class SampleBank:
    """The solved sample pairs of one realization, shared by its runs.

    Every run draws level l of stratum i from the substream (seed, l, i) of
    its seed, as the inverse CDF of uniforms on the stratum's CDF interval
    (lo, hi), so runs with one seed draw the same inputs wherever these
    agree.  The bank keeps, per key (seed, level, stratum, lo, hi), the
    substream and the (fine, coarse) QoIs solved from its draws, in draw
    order.  Keying on the interval rather than on the stratum count keeps a
    stratification from ever reading rows another one drew.

    Philox substreams give the same sequence however the draws are split,
    and inverse_cdf and qoi_batch work sample by sample (TestBatchInvariance),
    so a held row has the bits the run would have solved alone.  The bank
    holds 16 bytes per pair (8 at level 0) plus a fixed overhead per key.
    """

    def __init__(self, model: ModelSpec, dist: TruncatedLognormal,
                 hierarchy: MeshHierarchy):
        self.model = model
        self.dist = dist
        self.hierarchy = hierarchy
        self._held: dict = {}

    def take(self, seed: int, level: int, intervals, starts, counts):
        """Rows [starts[i], starts[i] + counts[i]) of the stratum with CDF
        interval intervals[i], for every i: their fine QoIs and their coarse
        QoIs (None at level 0), pooled in stratum order.

        Rows the bank does not hold yet are drawn and solved, all strata
        together, with one qoi_batch call per mesh.  A run asks for rows in
        order, so each key holds at least starts[i] rows.
        """
        held = [(self._rows(seed, level, i, lo, hi), int(n), int(n) + int(m))
                for i, ((lo, hi), n, m) in enumerate(zip(intervals, starts, counts)) if m]
        missing = [(rows, stop - rows.fine.size) for rows, _, stop in held
                   if stop > rows.fine.size]
        if missing:
            w = np.concatenate([rows.draw(self.dist, m) for rows, m in missing])
            fine, coarse = self._solve_pairs(level, w)
            stop = 0
            for rows, m in missing:
                start, stop = stop, stop + m
                rows.add(fine[start:stop], None if coarse is None else coarse[start:stop])
        fine = np.concatenate([rows.fine[start:stop] for rows, start, stop in held])
        coarse = None
        if level > 0:
            coarse = np.concatenate([rows.coarse[start:stop] for rows, start, stop in held])
        return fine, coarse

    def _rows(self, seed: int, level: int, stratum: int, lo: float, hi: float) -> "_HeldRows":
        key = (seed, level, stratum, float(lo), float(hi))
        if key not in self._held:
            self._held[key] = _HeldRows(substream(seed, level, stratum), lo, hi)
        return self._held[key]

    def _solve_pairs(self, level: int, w: np.ndarray):
        fine = self.model.qoi_batch(w, self.hierarchy.cells(level))
        coarse = None
        if level > 0:
            coarse = self.model.qoi_batch(w, self.hierarchy.cells(level - 1))
        return fine, coarse


class _HeldRows:
    """One key of a SampleBank: its substream, the CDF interval (lo, hi) of
    its stratum, and the QoI pairs solved from its draws so far."""

    def __init__(self, stream: np.random.Generator, lo: float, hi: float):
        self.stream = stream
        self.lo = lo
        self.hi = hi
        self.fine = np.empty(0)
        self.coarse = np.empty(0)

    def draw(self, dist: TruncatedLognormal, m: int) -> np.ndarray:
        """m more draws from the input law conditioned on the stratum: the
        inverse CDF of uniforms on (lo, hi).  The interval of a single
        stratum is exactly [0, 1], so its draws are the unconditional ones."""
        u = self.stream.random(m)
        return dist.inverse_cdf(self.lo + u * (self.hi - self.lo))

    def add(self, fine, coarse):
        self.fine = np.concatenate([self.fine, fine])
        if coarse is not None:
            self.coarse = np.concatenate([self.coarse, coarse])


class _Engine:
    """The multilevel engine.  Plain MLMC is its single-stratum case: the same
    draws, statistics, sizing and estimate, with no separate path.  Its rows
    come from bank, a private SampleBank when none is given."""

    def __init__(self, model: ModelSpec, dist: TruncatedLognormal,
                 strat: Stratification, grid: NodeGrid,
                 hierarchy: MeshHierarchy, config: RunConfig,
                 bank: Optional[SampleBank] = None):
        if bank is None:
            bank = SampleBank(model, dist, hierarchy)
        elif (bank.model, bank.dist, bank.hierarchy) != (model, dist, hierarchy):
            raise ValueError("the sample bank holds solves of another model, "
                             "input law or mesh hierarchy")
        self.bank = bank
        self.model = model
        self.strat = strat
        self.grid = grid
        self.hierarchy = hierarchy
        self.cfg = config
        self.nodes = grid.nodes
        self.smoother = config.make_smoother()
        self.levels: list[LevelState] = []
        self.warnings: list[str] = []
        cdf = dist.cdf(strat.boundaries)
        self._intervals = list(zip(cdf[:-1], cdf[1:]))

    # -- sampling ---------------------------------------------------------

    def _add_pass(self, level: int, counts):
        """Take the next counts[i] pairs of each stratum from the bank, which
        solves the ones it does not hold with one qoi_batch call per mesh,
        and record them.

        The warmup pass that opens a level first calibrates a smoother's
        bandwidth on its pooled fine values.  Each stratum's slice is recorded
        _RECORD_ROWS rows at a time: the level's sums are added up in these
        blocks, so their size fixes the sums' bits.
        """
        lv = self.levels[level]
        if not counts.sum():
            return
        fine, coarse = self.bank.take(self.cfg.seed, level, self._intervals, lv.n, counts)
        if self.smoother is not None and lv.delta is None:
            lv.delta = calibrate_bandwidth(self.smoother, fine, self.nodes, self.cfg.eps,
                                           bracket_top=self.grid.h,
                                           target_fraction=self.cfg.calibration_fraction)
        stop = 0
        for i, m in enumerate(counts):
            start, stop = stop, stop + m
            for lo in range(start, stop, _RECORD_ROWS):
                part = slice(lo, min(lo + _RECORD_ROWS, stop))
                self._accumulate(lv, i, fine[part], None if coarse is None else coarse[part])

    def _accumulate(self, lv: LevelState, stratum: int, fine, coarse):
        """Record one batch of solved pairs in the level's statistics,
        without the dense (batch, nodes) matrices of the indicators and of
        the kernel's values:

        - indicator sums are integer counts, bit for bit the dense column
          sums.  A difference I_f - I_c squares to 1 exactly where one of
          Q_f, Q_c lies at or below the node, so its squares sum to
          #{min <= q} - #{max <= q};
        - smoothed sums come from the kernel's band (_smoothed_sums): bit for
          bit the dense column sums at levels >= 1, and within the dense
          sums' own rounding bound at level 0.
        """
        nodes = self.nodes
        c_fine = indicator_counts(fine, nodes)
        if coarse is None:
            lo = hi = fine
            total = total_sq = c_fine
        else:
            lo, hi = np.minimum(fine, coarse), np.maximum(fine, coarse)
            c_coarse = indicator_counts(coarse, nodes)
            total = c_fine - c_coarse
            # {lo_j, hi_j} = {fine_j, coarse_j}, so #{hi <= q} is
            # c_fine + c_coarse - #{lo <= q}
            total_sq = 2 * indicator_counts(lo, nodes) - c_fine - c_coarse
        lv.sum_idiff[stratum] += total
        lv.sumsq_idiff[stratum] += total_sq
        lv.sum_ifine[stratum] += c_fine
        if self.smoother is not None:  # else the level terms are I_f - I_c
            total, total_sq = _smoothed_sums(self.smoother, fine, coarse,
                                             lo, hi, nodes, lv.delta)
        lv.sum_g[stratum] += total
        lv.sumsq_g[stratum] += total_sq
        lv.n[stratum] += fine.shape[0]

    def _allocate(self, total: int) -> np.ndarray:
        return proportional_allocation(total, self.strat, MIN_STRATUM_SAMPLES)

    # -- level sizing -----------------------------------------------------

    def _topup(self, level: int):
        """Grow the level to the size the sample-count formula asks for.

        required_samples_smlmc gives per-stratum counts, but only their total
        is used: it is split across the strata in proportion to their
        probabilities.  At warmup sizes a stratum's variance estimate can be
        falsely zero (every draw on the same side of every node), and the
        per-stratum formula would then starve that stratum; the proportional
        split cannot.  Samples are never discarded, so no stratum drops
        below its current count.
        """
        lv = self.levels[level]
        variances = [state.var_g() for state in self.levels]
        works = [state.pair_work for state in self.levels]
        counts = required_samples_smlmc(
            variances, self.strat.probs, works, self.cfg.eps, self.cfg.budget_factor
        )[level]
        total = max(int(counts.sum()), lv.n_total)
        self._add_pass(level, np.maximum(self._allocate(total), lv.n) - lv.n)
        lv.history.append(lv.n_total)

    # -- main loop --------------------------------------------------------

    def run(self) -> MultilevelResult:
        cap = self.hierarchy.l_star
        for level in range(cap + 1):
            # open the level with a proportional warmup pass
            pair_work = sum(self.model.work_units(self.hierarchy.cells(l))
                            for l in range(max(level - 1, 0), level + 1))
            self.levels.append(LevelState(level, self.strat.r, self.nodes.size, pair_work))
            self._add_pass(level, self._allocate(self.cfg.warmup))
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
        estimate = CdfEstimate(grid=self.grid, raw=raw)
        # level by level, then stratum by stratum: the order fixes the bits
        # of the reported total
        total_cost = float(sum(int(n) * lv.pair_work for lv in self.levels for n in lv.n))
        return MultilevelResult(
            estimate=estimate, levels=self.levels, total_cost=total_cost,
            config=self.cfg, strat=self.strat,
            warnings=self.warnings, bank=self.bank,
        )


# rows _accumulate records at once: the level sums are added up block by
# block, so this size fixes their bits, and it bounds the band arrays
_RECORD_ROWS = 32768
# the band is widened by this fraction of the magnitudes it is computed
# from, far above the rounding of its edges and of (Q - q) / delta: a node
# one ulp outside the rounded edge can still have (Q - q) / delta exactly
# on the kernel's clip point
_BAND_SLACK = 2.0 ** -40


def _band(smoother, lo, hi, nodes, delta: float):
    """The (sample, node) pairs with the node in [lo_j - w, hi_j + w],
    w = smoother.half_width * delta, as sample-major (rows, cols), and the
    start and end of each sample's node range.

    Outside that range the kernel is saturated at both of a sample's QoIs,
    on the same side.  The edges are widened by _BAND_SLACK of the
    magnitudes, so that a node whose computed (Q - q) / delta rounds onto
    the clip point is still inside; pairs inside but saturated cost time,
    not exactness.  nodes must be ascending.
    """
    w = smoother.half_width * delta
    scale = max(float(np.abs(lo).max()), float(np.abs(hi).max()),
                float(np.abs(nodes).max()))
    pad = w + _BAND_SLACK * (w + scale)
    start = np.searchsorted(nodes, lo - pad, side="left")
    stop = np.searchsorted(nodes, hi + pad, side="right")
    counts = stop - start
    rows = np.repeat(np.arange(lo.size), counts)
    cols = np.arange(rows.size) + np.repeat(start - (np.cumsum(counts) - counts), counts)
    return rows, cols, start, stop


def _smoothed_sums(smoother, fine, coarse, lo, hi, nodes, delta: float):
    """Per-node sums of g_f - g_c (g_f alone at level 0, coarse None) and of
    its square over the batch, with lo, hi the pairwise minimum and maximum
    of fine and coarse.

    The band pairs are evaluated with the kernel's own expression and summed
    by bincount in sample order, the order of the dense axis-0 reduction.
    Outside the band g_f - g_c is exactly 0, and adding 0 to a sum changes
    nothing but the sign of a zero (which the += into the level's running
    sums undoes), so at levels >= 1 the sums are the dense ones bit for bit.
    At level 0, g_f takes its saturation value below a sample's band
    (start_j > n) and above it (stop_j <= n); these enter as the value times
    a count of samples, so a node's sum differs from the dense one by
    rounding alone: by at most N 2^-52 sum_j |g_jn| over a batch of N, the
    first-order rounding bounds of the two sums added.
    """
    rows, cols, start, stop = _band(smoother, lo, hi, nodes, delta)
    q = nodes[cols]
    d = smoother.paired(fine[rows], q, delta)
    if coarse is not None:
        d -= smoother.paired(coarse[rows], q, delta)
    # not in place: over an empty band bincount returns integers
    total = np.bincount(cols, weights=d, minlength=nodes.size)
    total_sq = np.bincount(cols, weights=d * d, minlength=nodes.size)
    if coarse is None:
        below, above = smoother.saturation
        n = nodes.size
        n_below = fine.size - np.cumsum(np.bincount(start, minlength=n + 1))[:n]
        n_above = np.cumsum(np.bincount(stop, minlength=n + 1))[:n]
        total = total + below * n_below + above * n_above
        total_sq = total_sq + below * below * n_below + above * above * n_above
    return total, total_sq


def run_mlmc(model: ModelSpec, dist: TruncatedLognormal, grid: NodeGrid,
             hierarchy: MeshHierarchy, config: RunConfig, *,
             bank: Optional[SampleBank] = None) -> MultilevelResult:
    """Plain or smoothed multilevel run: run_smlmc with one stratum."""
    return run_smlmc(model, dist, build_equal_width_strata(dist, 1), grid, hierarchy,
                     config, bank=bank)


def run_smlmc(model: ModelSpec, dist: TruncatedLognormal, strat: Stratification,
              grid: NodeGrid, hierarchy: MeshHierarchy, config: RunConfig, *,
              bank: Optional[SampleBank] = None) -> MultilevelResult:
    """Stratified multilevel run.  A bank shared with the other runs of a
    realization saves their common solves; the result is the same with or
    without it."""
    return _Engine(model, dist, strat, grid, hierarchy, config, bank=bank).run()


def run_mc(model: ModelSpec, dist: TruncatedLognormal, grid: NodeGrid,
           hierarchy: MeshHierarchy, config: RunConfig,
           mlmc_result: MultilevelResult) -> McResult:
    """Single-level MC on the finest level reached by a plain MLMC run,
    re-using that run's fine-level samples.

    The sample count N_MC comes from the finest level's estimated indicator
    variance.  The estimate averages exactly N_MC samples: the first N_MC
    reused ones, topped up with fresh draws when the MLMC run used fewer.
    The reused ones are read back from the run's sample bank, which holds
    the level's rows in the order the run used them.  Cost is charged for all
    N_MC samples at fine-solve work, since the comparison treats the reused
    samples as MC samples too.
    """
    if mlmc_result.strat.r != 1 or mlmc_result.config.smoother != "none":
        raise ValueError("mc reuses the samples of a plain, unstratified mlmc run")
    top = mlmc_result.levels[-1]
    l_max = top.level
    var_max = float(top.var_ifine_pooled().max())
    # at least one sample, so that the estimate is an average
    n_mc = max(mc_sample_count(var_max, config.eps, config.budget_factor), 1)
    n_reused = min(n_mc, top.n_total)
    interval = tuple(dist.cdf(mlmc_result.strat.boundaries))
    qoi = mlmc_result.bank.take(mlmc_result.config.seed, l_max, [interval], [0],
                                [n_reused])[0]
    extra = n_mc - n_reused
    cells = hierarchy.cells(l_max)
    if extra > 0:
        w = dist.inverse_cdf(substream(config.seed, l_max, 0, 1).random(extra))
        qoi = np.concatenate([qoi, model.qoi_batch(w, cells)])
    raw = indicator_counts(qoi, grid.nodes) / qoi.size
    return McResult(estimate=CdfEstimate(grid=grid, raw=raw),
                    total_cost=float(n_mc * model.work_units(cells)),
                    n_samples=n_mc, n_reused=n_reused, level=l_max)
