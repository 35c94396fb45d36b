"""The engine's sparse accumulation against the dense matrices it replaced.

_Engine._accumulate sums indicators as integer counts and smoothed terms
over a band of nodes, adding the saturated level-0 terms as counts.  The
indicator sums, and the smoothed sums at levels >= 1, must be bit for bit
what the dense (batch, nodes) matrices of the indicator oracle and the
kernels' values give, so they are compared with np.array_equal.  The level-0
smoothed sums and their squares are held to the dense sums' rounding bound:
|sparse - dense| <= N 2^-52 sum_j |g_jn| at every node, over a batch of N.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import indicator
from smlmc.cdf import NodeGrid
from smlmc.config import preset
from smlmc.estimators import (
    LevelState,
    _band,
    _Engine,
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


def _engine(grid, smoother):
    return _Engine(EXP.model_spec(), DIST, build_equal_width_strata(DIST, 1), grid,
                   EXP.hierarchy(), replace(RUN, eps=0.02, smoother=smoother))


def _dense_accumulate(lv, smoother, nodes, fine, coarse):
    """The dense accumulation: full (batch, nodes) matrices of the oracles,
    reduced over the batch."""
    i_fine = indicator(nodes[None, :], fine[:, None])
    i_diff = i_fine
    if coarse is not None:
        i_diff = i_fine - indicator(nodes[None, :], coarse[:, None])
    total, total_sq = i_diff.sum(axis=0), (i_diff * i_diff).sum(axis=0)
    lv.sum_idiff[0] += total
    lv.sumsq_idiff[0] += total_sq
    lv.sum_ifine[0] += i_fine.sum(axis=0)
    if smoother is not None:
        g = smoother.values(fine, nodes, lv.delta)
        if coarse is not None:
            g -= smoother.values(coarse, nodes, lv.delta)
        total, total_sq = g.sum(axis=0), (g * g).sum(axis=0)
    lv.sum_g[0] += total
    lv.sumsq_g[0] += total_sq
    lv.n[0] += fine.size


def _assert_same(grid, smoother, delta, fine, coarse, kernel=None):
    """Sparse and dense sums of one batch, each added into a zeroed level:
    equal bits, except the level-0 smoothed sums, which must stay within the
    rounding bound; kernel, when given, replaces the smoother the run config
    builds.  Returns the largest |sparse - dense| / bound (0 when exact)."""
    engine = _engine(grid, smoother)
    if kernel is not None:
        engine.smoother = kernel
    level = 0 if coarse is None else 1
    sparse, dense = (LevelState(level, 1, grid.nodes.size, 1.0) for _ in range(2))
    sparse.delta = dense.delta = delta
    engine._accumulate(sparse, 0, fine, coarse)
    _dense_accumulate(dense, engine.smoother, grid.nodes, fine, coarse)
    bounded = level == 0 and engine.smoother is not None
    exact = ["sum_idiff", "sumsq_idiff", "sum_ifine", "n"]
    for name in exact if bounded else exact + ["sum_g", "sumsq_g"]:
        assert np.array_equal(getattr(sparse, name), getattr(dense, name)), name
    if not bounded:
        return 0.0
    g = engine.smoother.values(fine, grid.nodes, delta)
    worst = 0.0
    for name, terms in (("sum_g", g), ("sumsq_g", g * g)):
        bound = fine.size * 2.0 ** -52 * np.abs(terms).sum(axis=0)
        err = np.abs(getattr(sparse, name)[0] - getattr(dense, name)[0])
        assert np.all(err <= bound), (name, float((err - bound).max()))
        worst = max(worst, float(np.max(err / np.where(bound > 0, bound, 1.0))))
    return worst


@st.composite
def batches(draw):
    """A node grid, a bandwidth and a batch whose QoIs include ties with
    nodes, points at q +- delta and q +- 8 delta, points outside [a, b] and
    -0.0."""
    n_nodes = draw(st.integers(4, 101))
    a = draw(st.sampled_from([0.0, -0.3, 1.7]))
    b = a + draw(st.floats(0.05, 3.0))
    grid = NodeGrid(a, b, n_nodes - 1)
    nodes, h = grid.nodes, grid.h
    delta = h * 10.0 ** draw(st.floats(-6.0, 0.0))
    size = draw(st.one_of(st.integers(1, 64), st.integers(1, 5000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = b - a

    def qois():
        kind = rng.integers(0, 4, size)
        node = nodes[rng.integers(0, n_nodes, size)]
        offset = rng.choice([0.0, 1.0, -1.0, 8.0, -8.0], size) * delta
        uniform = rng.uniform(a - 0.25 * span, b + 0.25 * span, size)
        far = rng.choice([a - span, b + span, -0.0], size)
        return np.select([kind == 0, kind == 1, kind == 2],
                         [node + offset, uniform, far], node)

    fine = qois()
    coarse = None
    if draw(st.booleans()):
        # near the fine value, an independent draw or exactly the fine value
        near = fine + rng.normal(0.0, h, size) * rng.choice([0.0, 1e-9, 0.3, 2.0], size)
        coarse = np.where(rng.random(size) < 0.3, qois(), near)
    return grid, delta, fine, coarse


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


class TestSparseEqualsDense:
    @given(batch=batches(), smoother=st.sampled_from(["none", "giles", "kde"]))
    @settings(max_examples=150, deadline=None)
    def test_property(self, batch, smoother):
        grid, delta, fine, coarse = batch
        _assert_same(grid, smoother, delta, fine, coarse)

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
        w = KERNELS[smoother].half_width * delta
        fine = np.array([grid.a - 3 * w, grid.b + 3 * w, grid.a - 5 * w, grid.b + 4 * w])
        rows, cols, start, stop = _band(KERNELS[smoother], fine, fine, grid.nodes, delta)
        assert rows.size == cols.size == 0
        assert start.tolist() == stop.tolist() == [0, grid.nodes.size, 0, grid.nodes.size]
        coarse = None if level == 0 else fine[[2, 3, 0, 1]]   # on the same side
        _assert_same(grid, smoother, delta, fine, coarse)

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
            rows, cols, _, _ = _band(kernel, np.array([q]), np.array([q]), inside, delta)
            assert cols.tolist() == [0, 1, 2, 3] and rows.tolist() == [0] * 4
            grid_nodes = np.array([lo - 3 * w, *edges, hi + 3 * w])
            grid = _ExplicitGrid(grid_nodes)
            fine = np.array([q, q, q])
            coarse = None if level == 0 else np.array([q, q + delta, q - 2 * w])
            _assert_same(grid, smoother, delta, fine, coarse)


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
