"""The engine's sparse accumulation against the dense matrices it replaced.

_Engine._record records the rows of all strata of a call at once: it sums
indicators as integer counts of node indices (_node_index) and smoothed
terms over a band of nodes, adding the saturated level-0 terms as counts,
and splits every sum by stratum.  Each stratum's indicator sums, and its
smoothed sums at levels >= 1, must be bit for bit what the dense (batch,
nodes) matrices of the indicator oracle and the kernels' values give over
its rows, so they are compared with np.array_equal.  The level-0 smoothed
sums and their squares are held to the dense sums' rounding bound:
|sparse - dense| <= N 2^-52 sum_j |g_jn| at every node, over a stratum's
block of N rows.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import indicator
from smlmc import estimators
from smlmc.cdf import NodeGrid
from smlmc.config import preset
from smlmc.estimators import (
    LevelState,
    _Engine,
    _node_guess,
    _node_index,
    run_mc,
    run_mlmc,
    run_smlmc,
)
from smlmc.inputs import build_equal_width_strata
from smlmc.smoothing import (
    GAUSSIAN_CDF,
    GaussianKernelCdf,
    GilesPolynomial,
    build_giles_polynomial,
)

EXP = preset("diffusion")
DIST = EXP.distribution()
RUN = EXP.run_config("mlmc", 0.01, 0)
KERNELS = {"giles": build_giles_polynomial(3), "kde": GAUSSIAN_CDF}


def _engine(grid, smoother, r=1):
    return _Engine(EXP.model_spec(), DIST, build_equal_width_strata(DIST, r), grid,
                   EXP.hierarchy(), replace(RUN, eps=0.02, smoother=smoother))


def _dense_accumulate(lv, stratum, smoother, nodes, fine, coarse):
    """The dense accumulation of one stratum's rows: full (batch, nodes)
    matrices of the oracles, reduced over the batch."""
    i_fine = indicator(nodes[None, :], fine[:, None])
    i_diff = i_fine
    if coarse is not None:
        i_diff = i_fine - indicator(nodes[None, :], coarse[:, None])
    total, total_sq = i_diff.sum(axis=0), (i_diff * i_diff).sum(axis=0)
    lv.sum_idiff[stratum] += total
    lv.sumsq_idiff[stratum] += total_sq
    lv.sum_ifine[stratum] += i_fine.sum(axis=0)
    if smoother is not None:
        g = smoother.values(fine, nodes, lv.delta)
        if coarse is not None:
            g -= smoother.values(coarse, nodes, lv.delta)
        total, total_sq = g.sum(axis=0), (g * g).sum(axis=0)
    lv.sum_g[stratum] += total
    lv.sumsq_g[stratum] += total_sq
    lv.n[stratum] += fine.size


def _level(level, r, n, delta):
    """A zeroed level of r strata and n nodes, at bandwidth delta."""
    lv = LevelState(level, r, n, 1.0)
    lv.delta = delta
    return lv


EXACT = ["sum_idiff", "sumsq_idiff", "sum_ifine", "n"]
SUMS = EXACT + ["sum_g", "sumsq_g"]


def _assert_near_dense(sparse, dense, kernel, nodes, blocks):
    """Sparse sums equal to the dense ones in their bits, except the
    level-0 smoothed sums, which must stay within the rounding bound of
    each stratum's block; blocks is one (stratum, fine rows) per block, at
    most one per stratum.  Returns the largest |sparse - dense| / bound (0
    when exact)."""
    bounded = sparse.level == 0 and kernel is not None
    for name in EXACT if bounded else SUMS:
        assert np.array_equal(getattr(sparse, name), getattr(dense, name)), name
    if not bounded:
        return 0.0
    worst = 0.0
    for stratum, fine in blocks:
        g = kernel.values(fine, nodes, sparse.delta)
        for name, terms in (("sum_g", g), ("sumsq_g", g * g)):
            bound = fine.size * 2.0 ** -52 * np.abs(terms).sum(axis=0)
            err = np.abs(getattr(sparse, name)[stratum] - getattr(dense, name)[stratum])
            assert np.all(err <= bound), (name, float((err - bound).max()))
            worst = max(worst, float(np.max(err / np.where(bound > 0, bound, 1.0))))
    return worst


def _assert_same(grid, smoother, delta, fine, coarse, kernel=None, sizes=None):
    """Sparse sums of one _record call and dense sums of each stratum's
    rows, each added into a zeroed level: see _assert_near_dense.  sizes
    splits the rows into strata (all in one stratum by default); kernel,
    when given, replaces the smoother the run config builds."""
    sizes = np.array([fine.size] if sizes is None else sizes)
    engine = _engine(grid, smoother, sizes.size)
    if kernel is not None:
        engine.smoother = kernel
    level = 0 if coarse is None else 1
    sparse, dense = (_level(level, sizes.size, grid.nodes.size, delta) for _ in range(2))
    engine._record(sparse, sizes, fine, coarse)
    blocks = []
    for i, part in enumerate(np.split(np.arange(fine.size), np.cumsum(sizes)[:-1])):
        if part.size:
            _dense_accumulate(dense, i, engine.smoother, grid.nodes, fine[part],
                              None if coarse is None else coarse[part])
            blocks.append((i, fine[part]))
    return _assert_near_dense(sparse, dense, engine.smoother, grid.nodes, blocks)


def _qois(rng, nodes, delta, size):
    """QoIs with ties with nodes, points at q +- delta and q +- 8 delta,
    points outside the grid and -0.0."""
    a, b = nodes[0], nodes[-1]
    span = b - a
    kind = rng.integers(0, 4, size)
    node = nodes[rng.integers(0, nodes.size, size)]
    offset = rng.choice([0.0, 1.0, -1.0, 8.0, -8.0], size) * delta
    uniform = rng.uniform(a - 0.25 * span, b + 0.25 * span, size)
    far = rng.choice([a - span, b + span, -0.0], size)
    return np.select([kind == 0, kind == 1, kind == 2], [node + offset, uniform, far], node)


def _pair(rng, nodes, h, delta, size):
    """A fine batch of _qois, and a coarse one half the time: near the fine
    value, an independent draw or exactly the fine value."""
    fine = _qois(rng, nodes, delta, size)
    if rng.random() < 0.5:
        return fine, None
    near = fine + rng.normal(0.0, h, size) * rng.choice([0.0, 1e-9, 0.3, 2.0], size)
    return fine, np.where(rng.random(size) < 0.3, _qois(rng, nodes, delta, size), near)


@st.composite
def batches(draw):
    """A node grid, a bandwidth, a batch of _pair and its split into one to
    eight strata, empty strata included."""
    n_nodes = draw(st.integers(4, 101))
    a = draw(st.sampled_from([0.0, -0.3, 1.7]))
    grid = NodeGrid(a, a + draw(st.floats(0.05, 3.0)), n_nodes - 1)
    delta = grid.h * 10.0 ** draw(st.floats(-6.0, 0.0))
    size = draw(st.one_of(st.integers(1, 64), st.integers(1, 5000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fine, coarse = _pair(rng, grid.nodes, grid.h, delta, size)
    cuts = np.sort(rng.integers(0, size + 1, draw(st.integers(0, 7))))
    sizes = np.diff(np.concatenate([[0], cuts, [size]]))
    return grid, delta, fine, coarse, sizes


# (Q, delta, q): q lies one ulp outside the rounded edge Q - delta or
# Q + delta, yet the computed (Q - q) / delta is exactly +1 or -1
CLIP_POINT_NODES = [
    (0.17449996586169148, 0.22424575878596123, -0.04974579292426976),
    (-0.05665856467284369, 0.07850157017026725, 0.021843005497423563),
]


class _ExplicitGrid:
    """A grid with given ascending nodes, for edge cases no equidistant
    NodeGrid holds."""

    def __init__(self, nodes):
        self.nodes = nodes
        self.h = float(np.diff(nodes).max())


class _PairSpy:
    """A kernel that records the QoIs and the nodes of the pairs its paired
    evaluates."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.qoi, self.nodes = [], []

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    def paired(self, qoi, nodes, delta):
        self.qoi.append(qoi.copy())
        self.nodes.append(nodes.copy())
        return self.kernel.paired(qoi, nodes, delta)


class TestSparseEqualsDense:
    @given(batch=batches(), smoother=st.sampled_from(["none", "giles", "kde"]))
    @settings(max_examples=150, deadline=None)
    def test_property(self, batch, smoother):
        grid, delta, fine, coarse, sizes = batch
        _assert_same(grid, smoother, delta, fine, coarse, sizes=sizes)

    @pytest.mark.parametrize("smoother", ["giles", "kde"])
    @pytest.mark.parametrize("size", [2047, 2048, 2049, 6149])
    def test_level0_tiles(self, smoother, size):
        # a few thousand rows, saturated columns (every QoI above or below a
        # node) included: the rounding of thousands of saturation terms is
        # what the bound has to hold
        grid = EXP.node_grid()
        rng = np.random.default_rng(size)
        fine = rng.uniform(grid.a - grid.h, grid.b + grid.h, size)
        assert _assert_same(grid, smoother, 0.5 * grid.h, fine, None) < 1.0

    @pytest.mark.parametrize("smoother", ["giles", "kde"])
    def test_level0_single_row(self, smoother):
        # with N = 1 the bound is one ulp of |g|, and the sums are exact
        grid = EXP.node_grid()
        for q in (grid.a - grid.h, grid.nodes[7], 0.5 * (grid.a + grid.b), grid.b + 1.0):
            assert _assert_same(grid, smoother, 2.0 * grid.h, np.array([q]), None) == 0.0

    @pytest.mark.parametrize("smoother", ["giles", "kde"])
    @pytest.mark.parametrize("level", [0, 1])
    def test_empty_band(self, smoother, level):
        # every QoI is farther than w from every node, so the band holds no
        # pair and bincount sums nothing: at level 0 every term is a
        # saturation value, at level 1 every difference is 0
        grid = EXP.node_grid()
        delta = 0.5 * grid.h
        spy = _PairSpy(KERNELS[smoother])
        w = spy.half_width * delta
        fine = np.array([grid.a - 3 * w, grid.b + 3 * w, grid.a - 5 * w, grid.b + 4 * w])
        coarse = None if level == 0 else fine[[2, 3, 0, 1]]   # on the same side
        _assert_same(grid, smoother, delta, fine, coarse, kernel=spy)
        assert spy.nodes and all(nodes.size == 0 for nodes in spy.nodes)

    @pytest.mark.parametrize("level", [0, 1])
    def test_widening_covers_the_clip_point(self, level):
        # a node one ulp outside the rounded band edge can still have
        # (Q - q) / delta exactly +-1, the clip point.  The built
        # polynomials give g(+-1) exactly 0 and 1, but the moment solve does
        # not promise it: with g(+-1) an ulp off, only the widened band
        # evaluates such a node as the dense matrix does
        base = build_giles_polynomial(3)
        kernel = GilesPolynomial(3, base.coeffs + np.array([1e-15, 0.0, 0.0, 0.0, 0.0]))
        assert kernel(1.0) != 0.0 and kernel(-1.0) != 1.0
        for q_val, delta, q in CLIP_POINT_NODES:
            below = q < q_val
            edge = q_val - delta if below else q_val + delta
            assert q == np.nextafter(edge, -np.inf if below else np.inf)
            assert abs((q_val - q) / delta) == 1.0
            grid = _ExplicitGrid(np.array([q - 3 * delta, q, q + 3 * delta]))
            fine = np.array([q_val])
            # a coarse QoI further from the node leaves the band edge in place
            away = 2.5 * delta if below else -2.5 * delta
            coarse = None if level == 0 else np.array([q_val + away])
            _assert_same(grid, "giles", delta, fine, coarse, kernel=kernel)

    @pytest.mark.parametrize("smoother", ["giles", "kde"])
    @pytest.mark.parametrize("level", [0, 1])
    def test_nodes_one_ulp_inside_the_edges(self, smoother, level):
        # nodes at the rounded band edges Q -+ w, one ulp inside and one ulp
        # outside them, where (Q - q) / delta rounds onto the clip point
        kernel = KERNELS[smoother]
        for q, delta in [(0.17449996586169148, 0.22424575878596123),
                         (-0.05665856467284369, 0.07850157017026725),
                         (0.3, 1e-7), (2.0 / 3.0, 0.1)]:
            w = kernel.half_width * delta
            lo, hi = q - w, q + w
            edges = [np.nextafter(lo, -np.inf), lo, np.nextafter(lo, np.inf),
                     np.nextafter(hi, -np.inf), hi, np.nextafter(hi, np.inf)]
            inside = np.array(edges[1:5])
            spy = _PairSpy(kernel)
            _assert_same(_ExplicitGrid(inside), smoother, delta, np.array([q]), None,
                         kernel=spy)
            assert np.array_equal(np.concatenate(spy.nodes), inside)
            grid = _ExplicitGrid(np.array([lo - 3 * w, *edges, hi + 3 * w]))
            fine = np.array([q, q, q])
            coarse = None if level == 0 else np.array([q, q + delta, q - 2 * w])
            _assert_same(grid, smoother, delta, fine, coarse, sizes=[2, 0, 1])


    def test_widening_is_taken_per_block(self):
        # one stratum's far QoI must not widen another stratum's band in
        # the same call: node q lies 2^-30 above the band of Q = 0.5, far
        # outside its own widening (2^-40 of magnitudes near 1) and inside
        # the widening a magnitude of 1e6 would give
        delta, q_val = 0.1, 0.5
        q = q_val + delta + 2.0 ** -30
        spy = _PairSpy(KERNELS["giles"])
        grid = _ExplicitGrid(np.array([0.0, 0.45, q, 1.0]))
        _assert_same(grid, "giles", delta, np.array([1e6, q_val]), None, kernel=spy,
                     sizes=[1, 1])
        pairs = set(zip(np.concatenate(spy.qoi), np.concatenate(spy.nodes)))
        assert (q_val, 0.45) in pairs and (q_val, q) not in pairs


class TestPassPacking:
    """_add_pass cuts each stratum's slice into blocks of _RECORD_ROWS rows
    and packs them into _record calls; every stratum's sums must be those of
    one call per block."""

    @pytest.mark.parametrize("counts", [[23], [23, 0, 5], [3, 0, 16, 7, 1, 0, 2, 9]])
    @pytest.mark.parametrize("smoother", ["none", "giles", "kde"])
    @pytest.mark.parametrize("level", [0, 1])
    def test_packed_pass_keeps_every_stratums_bits(self, monkeypatch, counts, smoother,
                                                   level):
        record_rows = 7
        monkeypatch.setattr(estimators, "_RECORD_ROWS", record_rows)
        grid = EXP.node_grid()
        delta = 0.5 * grid.h
        counts = np.array(counts)
        r, n = counts.size, grid.nodes.size
        rng = np.random.default_rng(counts.sum() + level)
        fine = _qois(rng, grid.nodes, delta, counts.sum())
        coarse = None if level == 0 else fine + rng.normal(0.0, grid.h, counts.sum())

        engine = _engine(grid, smoother, r)
        engine.levels = [_level(lvl, r, n, delta) for lvl in range(level + 1)]
        engine.bank.take = lambda *args: [fine] if coarse is None else [fine, coarse]
        calls = []
        record = engine._record

        def spy(lv, sizes, f, c):
            calls.append(sizes.copy())
            record(lv, sizes, f, c)

        engine._record = spy
        engine._add_pass(level, counts)
        packed = engine.levels[level]

        # one call per block, each block also held to its dense sums
        single = _level(level, r, n, delta)
        stop = 0
        for i, m in enumerate(counts):
            for lo in range(stop, stop + m, record_rows):
                part = slice(lo, min(lo + record_rows, stop + m))
                f, c = fine[part], None if coarse is None else coarse[part]
                alone = np.zeros(r, dtype=int)
                alone[i] = f.size
                record(single, alone, f, c)
                sparse, dense = _level(level, r, n, delta), _level(level, r, n, delta)
                record(sparse, alone, f, c)
                _dense_accumulate(dense, i, engine.smoother, grid.nodes, f, c)
                _assert_near_dense(sparse, dense, engine.smoother, grid.nodes, [(i, f)])
            stop += m
        for name in SUMS:
            assert np.array_equal(getattr(packed, name), getattr(single, name)), name

        # no call holds more than _RECORD_ROWS rows; a stratum spans several
        # blocks, and several strata share a call
        assert all(sizes.sum() <= record_rows for sizes in calls)
        assert np.array_equal(np.sum(calls, axis=0), counts)
        if r > 1:
            assert max(np.count_nonzero(sizes) for sizes in calls) > 1
        assert len(calls) > 1


@st.composite
def node_grids(draw):
    """An equidistant NodeGrid of 4-101 nodes, or explicit ascending nodes:
    clustered towards one end, or spread evenly at random."""
    n_nodes = draw(st.integers(4, 101))
    a = draw(st.sampled_from([0.0, -0.3, 1.7, -250.0]))
    span = draw(st.floats(0.05, 3.0))
    kind = draw(st.sampled_from(["grid", "clustered", "random"]))
    if kind == "grid":
        return NodeGrid(a, a + span, n_nodes - 1).nodes
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n_nodes)
    if kind == "clustered":
        u = u ** 6
    return np.unique(a + span * np.concatenate([[0.0, 1.0], u]))


def _keys(nodes, rng):
    """Keys on every node and one ulp either side, +-0.0, keys far outside
    [a, b], +-1e300, the largest finite magnitudes, and uniform ones over
    [a, b] and a margin, shuffled."""
    a, b = nodes[0], nodes[-1]
    big = np.finfo(float).max
    span = b - a
    keys = np.concatenate([
        nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
        [0.0, -0.0, a - 1e3 * span, b + 1e3 * span, -1e300, 1e300, -big, big],
        rng.uniform(a - 0.5 * span, b + 0.5 * span, 500),
    ])
    return rng.permutation(keys)


class TestNodeIndex:
    @given(nodes=node_grids(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_searchsorted(self, nodes, seed):
        keys = _keys(nodes, np.random.default_rng(seed))
        for right, side in ((False, "left"), (True, "right")):
            assert np.array_equal(_node_index(nodes, keys, right),
                                  np.searchsorted(nodes, keys, side))

    @given(n_nodes=st.integers(4, 101), a=st.sampled_from([0.0, -0.3, 1.7, -250.0]),
           span=st.floats(0.05, 3.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_node_grid_guess_is_one_node_off_at_most(self, n_nodes, a, span, seed):
        # on a NodeGrid the linear guess needs one correction step at most,
        # so the index costs a fixed number of passes, never a search
        nodes = NodeGrid(a, a + span, n_nodes - 1).nodes
        keys = _keys(nodes, np.random.default_rng(seed))
        for right, side in ((False, "left"), (True, "right")):
            off = _node_guess(nodes, keys, right) - np.searchsorted(nodes, keys, side)
            assert np.abs(off).max() <= 1


def test_kernel_values_are_paired_over_the_grid():
    rng = np.random.default_rng(3)
    qoi, nodes = rng.normal(size=50), np.linspace(-2.0, 2.0, 29)
    for kernel in KERNELS.values():
        pairs = kernel.paired(np.repeat(qoi, nodes.size), np.tile(nodes, qoi.size), 0.3)
        assert np.array_equal(kernel.values(qoi, nodes, 0.3).ravel(), pairs)
        below, above = kernel.saturation
        far = kernel.values(np.array([0.0]), np.array([-1e3, 1e3]), 0.3)[0]
        assert far.tolist() == [below, above]


def test_engine_never_calls_the_dense_oracles(monkeypatch):
    # the indicator oracle lives in the tests, out of the package's reach;
    # the kernels' values stay in the package, beside paired
    def dense(*args, **kwargs):
        raise AssertionError("dense oracle on the engine path")

    monkeypatch.setattr(GilesPolynomial, "values", dense)
    monkeypatch.setattr(GaussianKernelCdf, "values", dense)
    model, grid = EXP.model_spec(), EXP.node_grid()
    hier = replace(EXP.hierarchy(), l_star=2)
    base = dict(eps=0.05, warmup=64, seed=5)
    plain = run_mlmc(model, DIST, grid, hier, replace(RUN, **base))
    run_mc(model, DIST, grid, hier, replace(RUN, **base), plain)
    for smoother in ("giles", "kde"):
        run_mlmc(model, DIST, grid, hier, replace(RUN, smoother=smoother, **base))
    for smoother in ("none", "kde"):
        run_smlmc(model, DIST, build_equal_width_strata(DIST, 8), grid, hier,
                  replace(RUN, smoother=smoother, **dict(base, warmup=128)))
