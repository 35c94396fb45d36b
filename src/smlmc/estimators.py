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
realization, across its tolerances) solves each input once; MC's fresh
draws are rows of the bank too.  Every run still records, and is charged
for, every row it uses, so its results are those of the run alone.

Sampling budgets carry a fixed safety factor, SAMPLING_SAFETY, on top of
the textbook budget split: the split bounds the worst single node's mean
squared error, while the acceptance metric is the supremum over all nodes,
which for an empirical-CDF-type process runs about 1.3x the worst node
(Kolmogorov statistic).  A safety of 2.5 absorbs that inflation.

Each sizing pass enters the per-node running sums without a dense
(batch, nodes) matrix, all strata of the pass together (_Engine._record).
Every QoI is located among the nodes by its index (_node_index), and the
indicator sums are integer counts, cumulative sums of a bincount of those
indices.  Smoothed terms are evaluated only where the kernel is not
saturated, in a band of nodes around each sample; at level 0 the saturated
terms enter as counts times the two saturation values.  Indicator sums and
smoothed sums at levels >= 1 have the bits of the dense column sums; level-0
smoothed sums are held to the dense sums' rounding bound, N 2^-52 sum_j
|g_jn| per node over a block of N.  The tests hold these sums to the dense
indicator matrix and to the kernels' values.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cdf import CdfEstimate, NodeGrid
from .inputs import (
    Stratification,
    TruncatedLognormal,
    build_equal_width_strata,
    proportional_allocation,
    substream,
)
from .models import MeshHierarchy, ModelSpec
from .smoothing import SMOOTHERS, calibrate_bandwidth

SQRT2 = np.sqrt(2.0)

# the fewest samples each stratum of a level (an unstratified level is one
# stratum) takes in a pass: its variance estimate needs two
MIN_STRATUM_SAMPLES = 2
# the factor on the textbook sampling budgets: the split bounds the worst
# node's error, and the sup-norm error over all nodes runs about 1.3x that
SAMPLING_SAFETY = 2.5
# the smoothing-bias target of each level's bandwidth, as a fraction of eps
CALIBRATION_FRACTION = 0.15


@dataclass(frozen=True)
class RunConfig:
    """Knobs of one estimator run (one seed, one tolerance)."""

    eps: float
    warmup: int                        # N_l^0 at every level for this run
    seed: int
    smoother: str = "none"             # a key of SMOOTHERS

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.smoother not in SMOOTHERS:
            raise ValueError(f"unknown smoother {self.smoother!r}")
        if self.warmup < MIN_STRATUM_SAMPLES:
            raise ValueError("need at least two warmup samples per level")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be nonnegative")

    @property
    def budget_factor(self) -> float:
        """2 for plain runs (e1 <= eps^2/2), 4 for smoothed (e1 <= eps^2/4),
        scaled by the sup-norm safety factor."""
        base = 2.0 if self.smoother == "none" else 4.0
        return base * SAMPLING_SAFETY


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
    counts = np.ceil(budget_factor / eps**2 * np.array(
        [(np.sqrt(v * p2 / w) * total).max(axis=1) for v, w in zip(vs, works)]))
    # past 2^63 the cast to int wraps to a negative count, read as no samples
    if not np.all(counts < 2.0**63):
        raise ValueError(f"a stratum needs {np.max(counts):.3g} samples at eps {eps:g}, "
                         f"not below 2^63")
    return list(counts.astype(int))


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
    bank: "SampleBank"  # the rows the run used; run_mc takes its samples from it

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
            "sampling_safety": SAMPLING_SAFETY,
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
    """The solved samples of one realization, shared by its runs at every
    tolerance.

    A row is drawn from a substream (seed, *key) of its run's seed, as the
    inverse CDF of a uniform on a CDF interval (lo, hi): the engine draws
    level l of stratum i from key (l, i) on the stratum's interval, and
    run_mc its fresh draws from key (l, 0, 1) on (0, 1).  Runs with one seed
    draw the same inputs wherever these agree, at any tolerance.  The bank
    keeps, per (seed, key, lo, hi, meshes), the substream and the QoIs solved
    from its draws at each of the meshes, in draw order.  Keying on the
    interval rather than on the stratum count keeps a stratification from
    ever reading rows another one drew.

    Philox substreams give the same sequence however the draws are split,
    and inverse_cdf and qoi_batch work sample by sample (TestBatchInvariance),
    so a held row has the bits the run would have solved alone, though the
    rows of all keys a pass asks for are mapped through one inverse_cdf call
    and solved by one qoi_batch call per mesh.  The bank holds 8 bytes per
    row and mesh (16 per fine and coarse pair) plus a fixed overhead per key.
    """

    def __init__(self, model: ModelSpec, dist: TruncatedLognormal,
                 hierarchy: MeshHierarchy):
        self.model = model
        self.dist = dist
        self.hierarchy = hierarchy
        self._held: dict = {}

    def take(self, seed: int, keys, intervals, meshes, starts, counts) -> list:
        """Rows [starts[i], starts[i] + counts[i]) of substream (seed, *keys[i])
        on CDF interval intervals[i], for every i, solved at every mesh (cell
        count) of meshes: one QoI array per mesh, pooled in key order.

        Rows the bank does not hold yet are drawn (_draw) and solved, all
        keys together, with one qoi_batch call per mesh.  A run asks for rows
        in order, so each key holds at least starts[i] rows.
        """
        meshes = tuple(meshes)
        held = [(self._rows(seed, key, lo, hi, meshes), int(n), int(n) + int(m))
                for key, (lo, hi), n, m in zip(keys, intervals, starts, counts) if m]
        missing = [(rows, stop - rows.size) for rows, _, stop in held if stop > rows.size]
        if missing:
            w = self._draw(missing)
            solved = [self.model.qoi_batch(w, cells) for cells in meshes]
            stop = 0
            for rows, m in missing:
                start, stop = stop, stop + m
                rows.add([qoi[start:stop] for qoi in solved])
        return [np.concatenate([rows.qoi[j][start:stop] for rows, start, stop in held])
                for j in range(len(meshes))]

    def _draw(self, missing) -> np.ndarray:
        """The next m draws of each (rows, m) of missing, pooled in order:
        the input law conditioned on the key's CDF interval (lo, hi), as the
        inverse CDF of uniforms from the key's own substream, mapped onto
        (lo, hi).  On (0, 1), the interval of a single stratum, they are the
        unconditional draws."""
        u = np.concatenate([rows.lo + rows.stream.random(m) * (rows.hi - rows.lo)
                            for rows, m in missing])
        return self.dist.inverse_cdf(u)

    def _rows(self, seed: int, key: tuple, lo: float, hi: float, meshes: tuple) -> "_HeldRows":
        full = (seed, tuple(key), float(lo), float(hi), meshes)
        if full not in self._held:
            self._held[full] = _HeldRows(substream(seed, *key), lo, hi, len(meshes))
        return self._held[full]


class _HeldRows:
    """One key of a SampleBank: its substream, its CDF interval (lo, hi), and
    per mesh the QoIs solved from its draws so far."""

    def __init__(self, stream: np.random.Generator, lo: float, hi: float, n_meshes: int):
        self.stream = stream
        self.lo = lo
        self.hi = hi
        self.qoi = [np.empty(0)] * n_meshes

    @property
    def size(self) -> int:
        return self.qoi[0].size

    def add(self, solved):
        self.qoi = [np.concatenate([held, new]) for held, new in zip(self.qoi, solved)]


def _pair_meshes(hierarchy: MeshHierarchy, level: int) -> tuple:
    """The meshes of a level's samples: fine and coarse, the fine alone at
    level 0."""
    return tuple(hierarchy.cells(l) for l in range(level, max(level - 2, -1), -1))


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
        self.smoother = SMOOTHERS[config.smoother]
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
        bandwidth on its pooled fine values.  Each stratum's slice is cut
        into blocks of _RECORD_ROWS rows, and the level's sums are added up
        block by block, so the block size fixes the sums' bits.  The blocks
        are packed in order into _record calls of at most _RECORD_ROWS rows
        (_record_calls), each recording all the strata it holds at once.
        """
        lv = self.levels[level]
        if not counts.sum():
            return
        keys = [(level, i) for i in range(self.strat.r)]
        fine, *coarse = self.bank.take(self.cfg.seed, keys, self._intervals,
                                       _pair_meshes(self.hierarchy, level), lv.n, counts)
        if self.smoother is not None and lv.delta is None:
            lv.delta = calibrate_bandwidth(self.smoother, fine, self.nodes, self.cfg.eps,
                                           bracket_top=self.grid.h,
                                           target_fraction=CALIBRATION_FRACTION)
        for start, stop, sizes in _record_calls(counts):
            self._record(lv, sizes, fine[start:stop],
                         coarse[0][start:stop] if coarse else None)

    def _record(self, lv: LevelState, sizes, fine, coarse):
        """Record solved pairs in the level's statistics: sizes[i] rows of
        stratum i, one block of each stratum at most, in stratum order,
        without the dense (batch, nodes) matrices of the indicators and of
        the kernel's values.  Every sum is split by stratum through
        bincount keys stratum * n + node (n nodes), and each bin adds its
        terms in sample order, so every stratum's sums have the bits of a
        call on its block alone:

        - indicator sums are integer counts, bit for bit the dense column
          sums.  A difference I_f - I_c squares to 1 exactly where one of
          Q_f, Q_c lies at or below the node, so its squares sum to
          #{min <= q} - #{max <= q};
        - smoothed sums come from the kernel's band (_smoothed_sums): bit for
          bit the dense column sums at levels >= 1, and within the dense
          sums' own rounding bound at level 0.
        """
        nodes = self.nodes
        r, n = self.strat.r, nodes.size
        stratum = np.repeat(np.arange(r), sizes)
        i_fine = _node_index(nodes, fine)
        c_fine = _cumulative_counts(stratum, i_fine, r, n)
        if coarse is None:
            total = total_sq = c_fine
        else:
            i_coarse = _node_index(nodes, coarse)
            c_coarse = _cumulative_counts(stratum, i_coarse, r, n)
            total = c_fine - c_coarse
            # {lo_j, hi_j} = {fine_j, coarse_j}, so #{hi <= q} is
            # c_fine + c_coarse - #{lo <= q}; the index of lo_j is the
            # smaller of the two
            c_lo = _cumulative_counts(stratum, np.minimum(i_fine, i_coarse), r, n)
            total_sq = 2 * c_lo - c_fine - c_coarse
        lv.sum_idiff += total
        lv.sumsq_idiff += total_sq
        lv.sum_ifine += c_fine
        if self.smoother is not None:  # else the level terms are I_f - I_c
            total, total_sq = _smoothed_sums(self.smoother, sizes, stratum, fine, coarse,
                                             nodes, lv.delta)
        lv.sum_g += total
        lv.sumsq_g += total_sq
        lv.n += sizes

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
            pair_work = sum(self.model.work_units(cells)
                            for cells in _pair_meshes(self.hierarchy, level))
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


# rows _record records at once, and rows of one stratum in a block: the
# level sums are added up block by block, so this size fixes their bits, and
# it bounds the band arrays
_RECORD_ROWS = 32768
# the band is widened by this fraction of the magnitudes it is computed
# from, far above the rounding of its edges and of (Q - q) / delta: a node
# one ulp outside the rounded edge can still have (Q - q) / delta exactly
# on the kernel's clip point
_BAND_SLACK = 2.0 ** -40


def _record_calls(counts):
    """The _record calls of a pass of counts[i] rows of stratum i, pooled in
    stratum order: (start, stop, sizes) per call, for rows [start, stop)
    with sizes[i] of them from stratum i.

    Each stratum's slice is cut into blocks of _RECORD_ROWS rows, and the
    blocks are packed in order into calls of at most _RECORD_ROWS rows.  All
    blocks of a stratum but its last are full and fill a call alone, so a
    call holds one block of a stratum at most.
    """
    calls = []
    start = stop = 0
    sizes = np.zeros(len(counts), dtype=int)
    for i, m in enumerate(counts):
        for lo in range(0, m, _RECORD_ROWS):
            size = min(_RECORD_ROWS, m - lo)
            if stop - start + size > _RECORD_ROWS:
                calls.append((start, stop, sizes))
                start, sizes = stop, np.zeros(len(counts), dtype=int)
            sizes[i] = size
            stop += size
    if stop > start:
        calls.append((start, stop, sizes))
    return calls


def _node_guess(nodes, x, right: bool) -> np.ndarray:
    """The linear guess of _node_index: nodes[k] is about a + k h on
    [a, b] = [nodes[0], nodes[-1]], so about ceil(t) nodes lie below x and
    floor(t) + 1 at or below it, t = (x - a) / h, clipped to [0, n]."""
    n = nodes.size
    a, b = float(nodes[0]), float(nodes[-1])
    with np.errstate(over="ignore"):   # far keys go to inf, then to 0 or n
        t = (x - a) * ((n - 1) / (b - a))
    if right:
        np.floor(t, out=t)
        t += 1.0
    else:
        np.ceil(t, out=t)
    np.maximum(t, 0.0, out=t)
    np.minimum(t, n, out=t)
    return t.astype(np.intp)


def _node_index(nodes, x, right: bool = False) -> np.ndarray:
    """The number of nodes below each key of x, or at or below it when
    right: np.searchsorted(nodes, x, "right" if right else "left"), for
    ascending nodes (at least two, nodes[0] < nodes[-1]) and finite x.

    It starts from a linear guess between the end nodes (_node_guess) and
    corrects the guess one node at a time until no key moves, so it is
    exact for any ascending grid.  On an equidistant grid the guess is at
    most one node off, and an unsorted batch costs a few elementwise passes
    where a binary search per key costs a few times as much.
    """
    k = _node_guess(nodes, x, right)
    # below[k] = nodes[k - 1] and above[k] = nodes[k], infinite past the ends
    padded = np.concatenate(([-np.inf], nodes, [np.inf]))
    below, above = padded[:-1], padded[1:]
    counted, uncounted = (np.less_equal, np.greater) if right else (np.less, np.greater_equal)
    while True:
        up = counted(above[k], x)
        down = uncounted(below[k], x)
        if not (up.any() or down.any()):
            return k
        k += up
        k -= down


def _cumulative_counts(stratum, index, r: int, n: int) -> np.ndarray:
    """#{rows j of stratum i: index_j <= node} for every stratum i < r and
    node < n, an (r, n) integer array: per stratum, the cumulative sum of a
    bincount of the indices (each in [0, n])."""
    bins = np.bincount(stratum * (n + 1) + index, minlength=r * (n + 1))
    return np.cumsum(bins.reshape(r, n + 1), axis=1)[:, :n]


def _smoothed_sums(smoother, sizes, stratum, fine, coarse, nodes, delta: float):
    """Per-stratum, per-node sums of g_f - g_c (g_f alone at level 0,
    coarse None) and of its square over the rows of _record: two (r, n)
    arrays.

    The band of a row holds the nodes in [lo_j - w, hi_j + w], with lo_j,
    hi_j the smaller and the larger of its QoIs and
    w = smoother.half_width * delta.  Outside it the kernel is saturated at
    both of the row's QoIs, on the same side.  The edges are widened by
    _BAND_SLACK of the magnitudes of the row's block, so that a node whose
    computed (Q - q) / delta rounds onto the clip point is still inside;
    pairs inside but saturated cost time, not exactness.

    The band pairs are evaluated with the kernel's own expression and summed
    by bincount in sample order, the order of the dense axis-0 reduction.
    Outside the band g_f - g_c is exactly 0, and adding 0 to a sum changes
    nothing but the sign of a zero (which the += into the level's running
    sums undoes), so at levels >= 1 the sums are the dense ones bit for bit.
    At level 0, g_f takes its saturation value below a row's band
    (start_j > node) and above it (stop_j <= node); these enter as the value
    times a count of rows, so a node's sum differs from the dense one by
    rounding alone: by at most N 2^-52 sum_j |g_jn| over a block of N, the
    first-order rounding bounds of the two sums added.
    """
    r, n = sizes.size, nodes.size
    if coarse is None:
        lo = hi = fine
        magnitude = np.abs(fine)
    else:
        lo, hi = np.minimum(fine, coarse), np.maximum(fine, coarse)
        magnitude = np.maximum(np.abs(fine), np.abs(coarse))
    w = smoother.half_width * delta
    blocks = sizes[sizes > 0]
    scale = np.maximum(np.maximum.reduceat(magnitude, np.cumsum(blocks) - blocks),
                       np.abs(nodes).max())
    pad = np.repeat(w + _BAND_SLACK * (w + scale), blocks)
    start = _node_index(nodes, lo - pad)
    stop = _node_index(nodes, hi + pad, right=True)
    width = stop - start
    ends = np.cumsum(width)
    # the bincount key of each pair, stratum * n + node, row by row
    keys = np.arange(ends[-1]) + np.repeat(stratum * n + start - (ends - width), width)
    q = np.tile(nodes, r)[keys]
    d = smoother.paired(np.repeat(fine, width), q, delta)
    if coarse is not None:
        d -= smoother.paired(np.repeat(coarse, width), q, delta)
    # not in place: over an empty band bincount returns integers
    total = np.bincount(keys, weights=d, minlength=r * n).reshape(r, n)
    total_sq = np.bincount(keys, weights=d * d, minlength=r * n).reshape(r, n)
    if coarse is None:
        below, above = smoother.saturation
        n_below = sizes[:, None] - _cumulative_counts(stratum, start, r, n)
        n_above = _cumulative_counts(stratum, stop, r, n)
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
    Both come from the run's sample bank: the reused ones are the first rows
    of the level, which the bank holds in the order the run used them, and
    the fresh ones are drawn from the substream (seed, level, 0, 1), solved
    at the fine mesh alone.  Cost is charged for all N_MC samples at
    fine-solve work, since the comparison treats the reused samples as MC
    samples too.
    """
    if mlmc_result.strat.r != 1 or mlmc_result.config.smoother != "none":
        raise ValueError("mc reuses the samples of a plain, unstratified mlmc run")
    bank = mlmc_result.bank
    top = mlmc_result.levels[-1]
    l_max = top.level
    var_max = float(top.var_ifine_pooled().max())
    # at least one sample, so that the estimate is an average
    n_mc = max(mc_sample_count(var_max, config.eps, config.budget_factor), 1)
    n_reused = min(n_mc, top.n_total)
    interval = tuple(dist.cdf(mlmc_result.strat.boundaries))
    qoi = bank.take(mlmc_result.config.seed, [(l_max, 0)], [interval],
                    _pair_meshes(hierarchy, l_max), [0], [n_reused])[0]
    extra = n_mc - n_reused
    cells = hierarchy.cells(l_max)
    if extra > 0:
        fresh = bank.take(config.seed, [(l_max, 0, 1)], [(0.0, 1.0)], [cells], [0], [extra])[0]
        qoi = np.concatenate([qoi, fresh])
    counts = _cumulative_counts(0, _node_index(grid.nodes, qoi), 1, grid.nodes.size)[0]
    raw = counts / qoi.size
    return McResult(estimate=CdfEstimate(grid=grid, raw=raw),
                    total_cost=float(n_mc * model.work_units(cells)),
                    n_samples=n_mc, n_reused=n_reused, level=l_max)
