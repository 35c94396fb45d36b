import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_burgers_qoi, godunov_flux, qoi_trapezoid, thomas_solve
from smlmc import models
from smlmc.config import preset
from smlmc.estimators import SampleBank
from smlmc.models import (
    _TILE_ELEMS,
    BURGERS_INFLOW,
    MeshHierarchy,
    burgers_time_steps,
    diffusion_steps,
    qoi_midpoint,
)

DIFFUSION = preset("diffusion").model_spec()
BURGERS = preset("burgers").model_spec()
HIER = preset("diffusion").hierarchy()


class TestThomas:
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0])
        x = thomas_solve(np.zeros(2), np.ones(3), np.zeros(2), rhs)
        assert np.array_equal(x, rhs)

    def test_two_by_two_hand_solve(self):
        # [[2, 1], [1, 2]] x = [3, 3]  ->  x = [1, 1]
        x = thomas_solve(np.array([1.0]), np.array([2.0, 2.0]), np.array([1.0]),
                         np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_random_diagonally_dominant(self):
        rng = np.random.default_rng(42)
        n = 50
        lower = rng.uniform(-1, 1, n - 1)
        upper = rng.uniform(-1, 1, n - 1)
        diag = 2.5 + rng.uniform(0, 1, n)
        rhs = rng.uniform(-5, 5, n)
        x = thomas_solve(lower, diag, upper, rhs)
        A = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        assert np.abs(A @ x - rhs).max() < 1e-12
        assert np.allclose(x, np.linalg.solve(A, rhs), atol=1e-11)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(3)
        n, B = 12, 7
        lower = rng.uniform(-1, 1, (n - 1, B))
        upper = rng.uniform(-1, 1, (n - 1, B))
        diag = 3.0 + rng.uniform(0, 1, (n, B))
        rhs = rng.uniform(-1, 1, (n, B))
        x = thomas_solve(lower, diag, upper, rhs)
        for b in range(B):
            xb = thomas_solve(lower[:, b], diag[:, b], upper[:, b], rhs[:, b])
            assert np.allclose(x[:, b], xb, atol=1e-13)

    def test_zero_pivot_raises(self):
        with pytest.raises(FloatingPointError):
            thomas_solve(np.array([1.0]), np.array([0.0, 1.0]), np.array([1.0]),
                         np.array([1.0, 1.0]))


class TestMeshHierarchy:
    def test_cells_progression(self):
        h = MeshHierarchy(m0=16, factor=2, l_star=7)
        assert [h.cells(l) for l in range(8)] == [16, 32, 64, 128, 256, 512, 1024, 2048]

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(HIER, m0=1)
        with pytest.raises(ValueError):
            replace(HIER, m0=4, factor=1)
        with pytest.raises(ValueError):
            replace(HIER, m0=4).cells(8)


class TestDiffusion:
    def test_boundary_values_exact(self):
        _, u = DIFFUSION.solve_field(2.3, 64)
        assert u[0, 0] == -1.0 and u[-1, 0] == 1.0

    def test_long_time_steady_state(self):
        x = np.linspace(0.0, 4.0, 513)
        _, u = replace(DIFFUSION, final_time=5.0).solve_field(4.0, 512)
        assert np.abs(u[:, 0] - (x - 2.0) / 2.0).max() < 1e-3

    def test_grid_self_convergence_second_order(self):
        # second order shows once the initial layer (width 0.05) is resolved;
        # coarser triplets sit in the pre-asymptotic ringing regime
        d = 1.0
        _, u1 = DIFFUSION.solve_field(d, 1024)
        _, u2 = DIFFUSION.solve_field(d, 2048)
        _, u3 = DIFFUSION.solve_field(d, 4096)
        e_coarse = np.abs(u2[::2] - u1).max()
        e_fine = np.abs(u3[::2] - u2).max()
        order = np.log2(e_coarse / e_fine)
        assert order >= 1.9

    def test_self_convergence_monotone_at_coarse_levels(self):
        d = 1.7
        us = {c: DIFFUSION.solve_field(d, c)[1][:, 0] for c in (128, 256, 512, 1024)}
        errs = [np.abs(us[2 * c][::2] - us[c]).max() for c in (128, 256, 512)]
        assert errs[0] > errs[1] > errs[2]

    def test_antisymmetry(self):
        _, u = DIFFUSION.solve_field(2.0, 128)
        assert np.abs(u + u[::-1]).max() < 1e-10

    def test_qoi_range_within_paper_interval(self):
        w = np.linspace(1.0, 4.0, 31)
        for cells in (16, 64, 512):
            q = DIFFUSION.qoi_batch(w, cells)
            assert np.all(q >= 14.0) and np.all(q <= 28.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            DIFFUSION.solve_field(-1.0, 64)
        with pytest.raises(ValueError):
            DIFFUSION.solve_field(1.0, 1)

    def test_batch_matches_single(self):
        w = np.array([1.3, 2.2, 3.9])
        _, batch = DIFFUSION.solve_field(w, 64)
        for i, wi in enumerate(w):
            assert np.array_equal(batch[:, i], DIFFUSION.solve_field(wi, 64)[1][:, 0])


def cn_march(model, d, cells, dt_over_dx=1.0):
    """Step-by-step Crank-Nicolson march of the diffusion testbed, one
    tridiagonal solve per step by thomas_solve: the oracle of the closed-form
    kernel.  d is a batch of coefficients; returns node values (cells + 1, B)."""
    final_time, length = model.final_time, model.domain_length
    d = np.asarray(d, dtype=float)
    dx = length / cells
    n_steps = diffusion_steps(cells, final_time, length, dt_over_dx)
    lam = np.broadcast_to(d * (final_time / n_steps) / (2.0 * dx * dx), (cells - 1, d.size))
    x = np.linspace(0.0, length, cells + 1)
    u = np.repeat(np.tanh((x - 2.0) / 0.05)[:, None], d.size, axis=1)
    u[0], u[-1] = -1.0, 1.0
    for _ in range(n_steps):
        # walls -1 and +1 enter the right-hand side at the old and new time
        rhs = (1.0 - 2.0 * lam) * u[1:-1] + lam * (u[:-2] + u[2:])
        rhs[0] -= lam[0]
        rhs[-1] += lam[-1]
        u[1:-1] = thomas_solve(-lam[1:], 1.0 + 2.0 * lam, -lam[1:], rhs)
    return u


class TestSpectralKernelAgainstMarch:
    D = np.array([1.0, 1.37, 2.5, 4.0])

    @pytest.mark.parametrize("dt_over_dx", [1.0, 4.0])
    @pytest.mark.parametrize("cells", [16, 37, 128, 1024])
    def test_matches_dense_march(self, cells, dt_over_dx):
        oracle = cn_march(DIFFUSION, self.D, cells, dt_over_dx=dt_over_dx)
        _, u = DIFFUSION.solve_field(self.D, cells, dt_over_dx)
        assert u.shape == (cells + 1, self.D.size)
        assert np.abs(u - oracle).max() <= 1e-10
        dx = 4.0 / cells
        assert np.abs(qoi_trapezoid(u, dx, 10.0) - qoi_trapezoid(oracle, dx, 10.0)).max() <= 1e-9

    def test_odd_and_even_step_counts(self):
        # g_k < 0 for the stiff modes once lam mu_k > 1: an odd step count
        # must keep their sign, an even one drop it
        for final_time in (0.2, 0.2 + 4.0 / 64):
            model = replace(DIFFUSION, final_time=final_time)
            oracle = cn_march(model, self.D, 64, dt_over_dx=4.0)
            _, u = model.solve_field(self.D, 64, dt_over_dx=4.0)
            assert np.abs(u - oracle).max() <= 1e-10


class TestQoiFromInterior:
    """qoi_batch sums the diffusion kernel's interior squares with no field:
    bit for bit qoi_trapezoid of solve_field's field, its oracle."""

    @pytest.mark.parametrize("dt_over_dx", [1.0, 4.0])
    @pytest.mark.parametrize("cells", [2, 16, 17, 256, 4096])
    def test_matches_trapezoid_of_field(self, cells, dt_over_dx):
        # three samples past one tile, so that the batch spans two
        w = np.linspace(1.0, 4.0, _TILE_ELEMS // (cells + 1) + 3)
        _, field = DIFFUSION.solve_field(w, cells, dt_over_dx)
        oracle = qoi_trapezoid(field, 4.0 / cells, DIFFUSION.qoi_scale)
        assert np.array_equal(DIFFUSION.qoi_batch(w, cells, dt_over_dx), oracle)


class TestDiffusionSetup:
    """The batch-independent set-up is built once per mesh and shared."""

    def test_forward_transform_once_per_mesh(self, monkeypatch):
        calls = []
        dst = models.dst

        def counted(*args, **kwargs):
            calls.append(1)
            return dst(*args, **kwargs)

        monkeypatch.setattr(models, "dst", counted)
        models._diffusion_mesh.cache_clear()
        w = np.linspace(1.0, 4.0, 3 * (_TILE_ELEMS // 129) + 1)  # four tiles at 128 cells
        for _ in range(3):
            DIFFUSION.qoi_batch(w, 128)
        DIFFUSION.solve_field(w[:5], 128)
        assert len(calls) == 1
        # another time step is another mesh
        DIFFUSION.qoi_batch(w, 128, dt_over_dx=4.0)
        assert len(calls) == 2

    def test_cached_arrays_are_read_only(self):
        _, _, *arrays = models._diffusion_mesh(64, 0.2, 4.0, 1.0)
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_non_finite_solve_raises(self):
        # numpy's own warnings off, so that the kernel's check is what raises
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError):
                DIFFUSION.qoi_batch([np.inf], 64)
            with pytest.raises(FloatingPointError):
                DIFFUSION.solve_field([np.inf], 64)


def _exp_log_power(g, n, *scratch):
    """g**n as sign * exp(n log|g|), the form the kernel took before binary
    exponentiation: the reference its QoIs are held to."""
    negative = g < 0.0
    np.abs(g, out=g)
    with np.errstate(divide="ignore"):  # g = 0 when lam mu = 1 exactly
        np.log(g, out=g)
    g *= n
    np.exp(g, out=g)
    if n % 2:
        np.negative(g, out=g, where=negative)
    return g


# every preset level at dt = dx, and the oracle meshes at dt = 4 dx: the
# benchmark's (4096 cells) and the preset's (8192 cells)
POWER_MESHES = ([(preset("diffusion").hierarchy().cells(level), 1.0) for level in range(8)]
                + [(4096, 4.0), (8192, 4.0)])


class TestIntegerPower:
    """g^n by binary exponentiation over the integer step count."""

    def test_meshes_take_odd_and_even_step_counts(self):
        steps = [diffusion_steps(cells, 0.2, 4.0, r) for cells, r in POWER_MESHES]
        assert steps[0] == 1
        assert any(n % 2 for n in steps[1:]) and any(n % 2 == 0 for n in steps)

    @pytest.mark.parametrize("cells, dt_over_dx", POWER_MESHES)
    def test_qois_match_exp_log_form(self, monkeypatch, cells, dt_over_dx):
        w = np.linspace(1.0, 4.0, 401)
        q = DIFFUSION.qoi_batch(w, cells, dt_over_dx)
        monkeypatch.setattr(models, "_power", _exp_log_power)
        reference = DIFFUSION.qoi_batch(w, cells, dt_over_dx)
        assert np.all(np.abs(q - reference) <= 2e-15 * reference)

    def test_exact_on_dyadic_factors(self):
        # these powers, and the distances from 1 that the squaring carries,
        # are exact in floating point
        g = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        for n in range(1, 27):
            power = models._power(g.copy(), n, np.empty_like(g), np.empty_like(g))
            assert np.array_equal(power, g**n)

    def test_one_step_makes_no_pass(self):
        g = np.array([0.25, -0.75])
        assert models._power(g, 1, None, None) is g


BURGERS_SHORT = replace(BURGERS, final_time=0.02)


def _tile_spanning_sizes(cells):
    """(min_size, max_size) of a drawn batch: from 2 where qoi_batch's tile
    holds 24 samples or more, else from one beyond a tile, so that the batch
    spans tiles and a split can cut one."""
    tile = _TILE_ELEMS // (cells + 1)
    min_size = 2 if tile >= 24 else tile + 1
    return min_size, min_size + 24


class TestBatchInvariance:
    """A sample's QoI is bit for bit the same whatever batch it is solved in,
    and wherever qoi_batch's tile edges fall in it."""

    @staticmethod
    def _check(model, w, cells, split, order):
        w = np.asarray(w)
        whole = model.qoi_batch(w, cells)
        alone = np.array([model.qoi_batch(w[i : i + 1], cells)[0] for i in range(w.size)])
        parts = np.concatenate([model.qoi_batch(w[:split], cells),
                                model.qoi_batch(w[split:], cells)])
        permuted = model.qoi_batch(w[order], cells)
        assert np.array_equal(whole, alone)
        assert np.array_equal(whole, parts)
        assert np.array_equal(whole[order], permuted)

    # at 4096 cells a tile holds _TILE_ELEMS // (cells + 1) = 15 samples, so
    # batches of 16 to 40 span tiles; the spectral kernel has no time loop,
    # so the full horizon costs no more than a short one
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), cells=st.sampled_from([2, 16, 17, 64, 100, 256, 4096]))
    def test_diffusion(self, data, cells):
        min_size, max_size = _tile_spanning_sizes(cells)
        w = data.draw(st.lists(st.floats(1.0, 4.0), min_size=min_size, max_size=max_size))
        split = data.draw(st.integers(1, len(w) - 1))
        order = np.array(data.draw(st.permutations(range(len(w)))))
        self._check(DIFFUSION, w, cells, split, order)

    # at 4096 cells batches of 16 to 40 span tiles, and a short horizon keeps
    # the march to 46 steps
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), case=st.sampled_from(
        [(BURGERS, c) for c in (2, 16, 17, 64, 100, 256)] + [(BURGERS_SHORT, 4096)]))
    def test_burgers(self, data, case):
        model, cells = case
        min_size, max_size = _tile_spanning_sizes(cells)
        w = data.draw(st.lists(st.floats(0.0, 2.0), min_size=min_size, max_size=max_size))
        split = data.draw(st.integers(1, len(w) - 1))
        order = np.array(data.draw(st.permutations(range(len(w)))))
        self._check(model, w, cells, split, order)


class TestGodunovFlux:
    def test_consistency(self):
        for u in (-1.5, 0.0, 0.7, 2.0):
            assert godunov_flux(u, u) == pytest.approx(u * u / 2, abs=1e-15)

    def test_right_moving_shock(self):
        assert godunov_flux(2.0, 0.0) == 2.0

    def test_left_moving_shock(self):
        # shock speed (uL + uR)/2 = -1 < 0: flux of the right state
        assert godunov_flux(-2.0, 0.0) == 0.0

    def test_transonic_rarefaction(self):
        assert godunov_flux(-1.0, 1.0) == 0.0

    def test_supersonic_rarefactions(self):
        assert godunov_flux(0.5, 1.5) == pytest.approx(0.125)
        assert godunov_flux(-1.5, -0.5) == pytest.approx(0.125)


def loop_time_steps(dt_cfl, final_time):
    """Step sizes of a march that accumulates t and stops within 1e-14 of
    final_time, as the Burgers kernel once did."""
    steps, t = [], 0.0
    while t < final_time - 1e-14:
        steps.append(min(dt_cfl, final_time - t))
        t += steps[-1]
    return steps


def godunov_march(model, u1, cells, steps=None):
    """Stepwise Godunov march of a Burgers model on the whole batch at once:
    ghost cells by concatenation, godunov_flux at every interface and the
    conservative update over every cell, over the given time steps (by
    default loop_time_steps).  The oracle of the in-place upwind kernel;
    returns cell averages (cells, B)."""
    u1 = np.asarray(u1, dtype=float)
    dx = model.domain_length / cells
    centers = (np.arange(cells) + 0.5) * dx
    u = np.where(centers[:, None] <= 1.0, u1[None, :], 0.0)
    ghost_l = np.full((1, u1.size), BURGERS_INFLOW)
    ghost_r = np.zeros((1, u1.size))
    if steps is None:
        steps = loop_time_steps(model.cfl * dx / BURGERS_INFLOW, model.final_time)
    for dt in steps:
        ext = np.concatenate([ghost_l, u, ghost_r], axis=0)
        flux = godunov_flux(ext[:-1, :], ext[1:, :])
        u = u - (dt / dx) * (flux[1:, :] - flux[:-1, :])
    return u


def assert_matches_march(u, march, length=2.0):
    """The kernel's stated tolerance against godunov_march.  The kernel folds
    the flux's halving into the step ratio, which rounds as the march's
    separate halving wherever the half-flux is a normal number: fields have
    the march's bits wherever |march| >= 2^-1000, differ from it by at most
    2^-1060 anywhere, and give the same midpoint QoIs bit for bit."""
    assert u.shape == march.shape
    big = np.abs(march) >= 2.0**-1000
    assert np.array_equal(u[big], march[big])
    assert np.abs(u - march).max() <= 2.0**-1060
    dx = length / u.shape[0]
    assert np.array_equal(qoi_midpoint(u, dx, 10.0), qoi_midpoint(march, dx, 10.0))


# the property tests' marches are capped at this many steps, enough for the
# zero front to cross the empty half of the domain at every mesh they draw
MAX_PROPERTY_STEPS = 400


@st.composite
def burgers_cases(draw):
    """(heights, cells, model), the model the preset's with drawn final_time
    and cfl, with batches of 1, of the tile qoi_batch would hand the kernel
    and one either side of it, and of two tiles and 3; heights include 0.0
    and the inflow state, which is the speed bound, exactly.  Final times
    include those of one step fewer, the same and one more than the step
    where the kernel's two windows meet."""
    cells = draw(st.integers(2, 600) | st.sampled_from([2, 3]))
    tile = _TILE_ELEMS // (cells + 1)
    batch = draw(st.sampled_from([1, tile - 1, tile, tile + 1, 2 * tile + 3]))
    # from 1e-3, not 0: final_time is capped in proportion to cfl, and near 0
    # the time step would underflow
    cfl = draw(st.floats(1e-3, 1.0) | st.just(1.0))
    dt = cfl * (2.0 / cells) / BURGERS_INFLOW
    # the kernel's two windows meet at step k = plateau - 1, the first whose
    # inflow window [.., k + 1) reaches the plateau edge
    plateau = int(np.count_nonzero((np.arange(cells) + 0.5) * (2.0 / cells) <= 1.0))
    meet = st.integers(-1, 1).map(lambda j: max(plateau + j, 1) * dt)
    final_time = draw(st.floats(0.0, 1.0, exclude_min=True) | st.just(1.0) | meet)
    final_time = min(final_time, MAX_PROPERTY_STEPS * dt)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.0, BURGERS_INFLOW, batch)
    w[0] = draw(st.sampled_from([0.0, BURGERS_INFLOW]) | st.floats(0.0, BURGERS_INFLOW))
    if batch > 1:
        w[-2:] = 0.0, BURGERS_INFLOW
    return w, cells, replace(BURGERS, final_time=final_time, cfl=cfl)


class TestTiledKernelAgainstMarch:
    """The Burgers march (ModelSpec.solve_field) is the stepwise Godunov
    march on every input it accepts, to the stated tolerance of
    assert_matches_march: bit for bit down to the subnormal range, and in
    every QoI.  The kernel marches whatever batch it is given as one; the
    batch sizes are drawn around the column tile ModelSpec.qoi_batch hands
    it."""

    # qoi_batch's tile holds _TILE_ELEMS // (cells + 1) samples: 21845 at 2
    # cells, 31 at 2048
    @pytest.mark.parametrize("cells, final_time", [(2, 0.5), (17, 0.5), (128, 0.5), (2048, 0.05)])
    def test_bit_identical_across_tile_boundaries(self, cells, final_time):
        model = replace(BURGERS, final_time=final_time)
        tile = _TILE_ELEMS // (cells + 1)
        rng = np.random.default_rng(cells)
        for B in (1, tile - 1, tile, tile + 1, 3 * tile + 5):
            w = rng.uniform(0.0, 2.0, B)
            _, u = model.solve_field(w, cells)
            assert u.shape == (cells, B)
            assert_matches_march(u, godunov_march(model, w, cells))

    @pytest.mark.parametrize("w", [[0.5, -0.1], [-0.0, -1e-300]])
    def test_negative_states_rejected(self, w):
        # the upwind flux is the Godunov flux only for nonnegative states
        with pytest.raises(ValueError, match="nonnegative"):
            BURGERS.solve_field(w, 64)

    @settings(max_examples=40, deadline=None)
    @given(case=burgers_cases())
    def test_bit_identical_to_march(self, case):
        w, cells, model = case
        steps = burgers_time_steps(model, cells)
        assert_matches_march(model.solve_field(w, cells)[1],
                             godunov_march(model, w, cells, steps=steps))

    @settings(max_examples=60, deadline=None)
    @given(case=burgers_cases())
    def test_fields_within_speed_bound(self, case):
        # the monotone scheme keeps every state in [0, BURGERS_INFLOW] for
        # cfl <= 1
        w, cells, model = case
        _, u = model.solve_field(w, cells)
        assert u.min() >= 0.0 and u.max() <= BURGERS_INFLOW


class TestFrontWindows:
    """The Burgers march steps only the rows near the two fronts, where the
    upwind update can be nonzero."""

    @pytest.fixture
    def rows(self, monkeypatch):
        """The number of rows of every _upwind_rows call the test makes."""
        rows = []
        inner = models._upwind_rows

        def counting(x, f, d, start, stop, ratio):
            rows.append(stop - start)
            return inner(x, f, d, start, stop, ratio)

        monkeypatch.setattr(models, "_upwind_rows", counting)
        return rows

    def test_march_updates_only_the_front_windows(self, rows):
        # one qoi_batch tile of preset inputs at 128 cells: the steps update
        # 40% of the cells x steps, where a sweep over every row the solution
        # has reached would update 78%
        cells = 128
        w = preset("burgers").distribution().inverse_cdf(
            np.random.default_rng(5).random(_TILE_ELEMS // (cells + 1)))
        _, u = BURGERS.solve_field(w, cells)
        assert np.array_equal(u, godunov_march(BURGERS, w, cells))
        steps = BURGERS.steps(cells)
        reached = sum(min(cells, cells // 2 + k + 1) for k in range(steps))
        assert reached > 0.75 * cells * steps
        assert sum(rows) < 0.45 * cells * steps

    def test_sorted_tiles_narrow_the_windows(self, rows):
        # three qoi_batch tiles of preset inputs at 128 cells: marched in
        # ascending u1, each tile's fronts lie close together, and the steps
        # update 36% of tiles x cells x steps, against 40% in draw order
        cells = 128
        tile = _TILE_ELEMS // (cells + 1)
        w = preset("burgers").distribution().inverse_cdf(
            np.random.default_rng(5).random(3 * tile))
        BURGERS.qoi_batch(w, cells)
        assert sum(rows) <= 0.37 * 3 * cells * BURGERS.steps(cells)


class TestBurgersTimeSteps:
    def test_preset_meshes_keep_the_loop_steps(self):
        # on the preset meshes 32 * 2^l the accumulating loop already took
        # ModelSpec.steps steps, so fields and cost units do not move
        for cells in (32 * 2**l for l in range(10)):
            steps = burgers_time_steps(BURGERS, cells)
            assert steps == loop_time_steps(0.9 * (2.0 / cells) / 2.0, 0.5)
            assert len(steps) == BURGERS.steps(cells)

    def test_no_sliver_step_beyond_the_work_model(self):
        # t accumulated over 400 steps of 0.0025 falls 1.1e-14 short of 1.0:
        # the loop took a 401st step of dt/dx = 1.9e-12 that the model did not charge
        spec = replace(BURGERS, final_time=1.0)
        steps = burgers_time_steps(spec, 360)
        assert len(loop_time_steps(0.9 * (2.0 / 360) / 2.0, 1.0)) == 401
        assert len(steps) == spec.steps(360) == 400
        assert spec.work_units(360) == 360 * len(steps)
        # and the solver takes exactly these 400 steps
        w = np.array([0.3, 1.1, 2.0])
        _, u = spec.solve_field(w, 360)
        assert np.array_equal(u, godunov_march(spec, w, 360, steps=steps))
        assert not np.array_equal(u, godunov_march(spec, w, 360))

    def test_no_rounding_sized_last_step(self):
        # final_time / dt is 20120 up to rounding; an absolute 1e-12 tolerance
        # counted 20121 steps, the last of them 0.0
        spec = replace(BURGERS, final_time=2.0, cfl=0.1)
        steps = burgers_time_steps(spec, 1006)
        assert len(steps) == spec.steps(1006) == 20120
        assert min(steps) > 0.0

    # round values put final_time / dt on an integer up to rounding
    @settings(max_examples=300, deadline=None)
    @given(cells=st.integers(2, 5000),
           final_time=st.floats(0.01, 2.0) | st.sampled_from([0.1, 0.5, 1.0, 2.0]),
           cfl=st.floats(0.05, 1.0) | st.sampled_from([0.1, 0.5, 0.9, 1.0]))
    def test_steps_match_work_model_and_sum_to_final_time(self, cells, final_time, cfl):
        spec = replace(BURGERS, final_time=final_time, cfl=cfl)
        steps = burgers_time_steps(spec, cells)
        dt_cfl = cfl * (2.0 / cells) / 2.0
        assert len(steps) == spec.steps(cells)
        t = 0.0
        for dt in steps:
            # the clipped last step also absorbs the rounding of the accumulated t
            assert 0.0 < dt <= dt_cfl * (1.0 + 1e-12) + len(steps) * np.spacing(final_time)
            t += dt
        assert t == final_time

    def test_rejects_nonpositive_final_time(self):
        with pytest.raises(ValueError):
            burgers_time_steps(replace(BURGERS, final_time=0.0), 64)


class TestQoiBatchMemory:
    """qoi_batch holds one column tile's solver arrays beyond its B QoIs,
    whatever B: the solver half of the bounded-memory property, at the
    presets' finest meshes."""

    @pytest.mark.parametrize("model, cells", [
        (DIFFUSION, 2048),
        (replace(BURGERS, final_time=0.01), 4096),
    ], ids=["diffusion", "burgers"])
    def test_memory_does_not_grow_with_batch(self, model, cells):
        # numpy reports its buffers to tracemalloc; a tile's arrays take
        # about 2 MB at either mesh
        extra = []
        for B in (512, 4096):
            w = np.linspace(1.0 if model.name == "diffusion" else 0.0, 2.0, B)
            tracemalloc.start()
            try:
                q = model.qoi_batch(w, cells)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert q.shape == (B,)
            extra.append(peak - q.nbytes)
        assert max(extra) < 3 * 2**20
        assert extra[1] - extra[0] < 2**17

    def test_tiles_march_in_one_set_of_buffers(self, monkeypatch):
        # the march's buffers are allocated once per call; holding every
        # tile's state keeps a buffer freed by one tile from being handed to
        # the next at the same address
        states = []
        inner = models._burgers_march

        def recording(u1, ratios, plateau, x, f, d):
            states.append(x)
            return inner(u1, ratios, plateau, x, f, d)

        monkeypatch.setattr(models, "_burgers_march", recording)
        cells = 128
        BURGERS.qoi_batch(np.linspace(0.0, 2.0, 3 * (_TILE_ELEMS // (cells + 1)) + 5), cells)
        assert len(states) == 4
        assert len({x.__array_interface__["data"][0] for x in states}) == 1


class TestBurgers:
    def test_mass_growth_matches_boundary_flux(self):
        T = 0.5
        _, u = replace(BURGERS, final_time=T).solve_field(0.0, 256)
        dx = 2.0 / 256
        mass = dx * u.sum()
        # inflow flux f(2) = 2, outflow f(0) = 0: mass grows at rate 2
        assert abs(mass - 2.0 * T) < 1e-6

    def test_solution_bounds(self):
        for u1 in (0.0, 0.7, 1.4, 2.0):
            _, u = BURGERS.solve_field(u1, 128)
            assert u.min() >= 0.0 and u.max() <= 2.0 + 1e-12

    def test_conservative_update_identity(self):
        # one conservative step moves exactly the boundary-flux difference
        rng = np.random.default_rng(0)
        u = rng.uniform(0.0, 2.0, 64)
        dx, dt = 2.0 / 64, 0.005
        ext = np.concatenate([[2.0], u, [0.0]])
        flux = godunov_flux(ext[:-1], ext[1:])
        unew = u - (dt / dx) * (flux[1:] - flux[:-1])
        change = dx * (unew.sum() - u.sum())
        assert abs(change - dt * (flux[0] - flux[-1])) < 1e-12

    def test_first_order_self_convergence(self):
        u1 = 0.9
        u128, u256, u512 = (BURGERS.solve_field(u1, c)[1][:, 0] for c in (128, 256, 512))
        dx = 2.0 / 128
        e_coarse = dx * np.abs(u256.reshape(-1, 2).mean(axis=1) - u128).sum()
        e_fine = (dx / 2) * np.abs(u512.reshape(-1, 2).mean(axis=1) - u256).sum()
        order = np.log2(e_coarse / e_fine)
        assert 0.6 <= order <= 1.1

    def test_converges_to_exact_qoi(self):
        for u1 in (0.0, 0.5, 1.0, 1.7, 2.0):
            q = float(BURGERS.qoi_batch([u1], 2048)[0])
            assert q == pytest.approx(exact_burgers_qoi(u1), abs=0.08)

    def test_qoi_range_within_paper_interval(self):
        w = np.linspace(0.0, 2.0, 31)
        for cells in (32, 128, 512):
            q = BURGERS.qoi_batch(w, cells)
            assert np.all(q >= 15.0) and np.all(q <= 65.0)

    def test_plateau_beyond_speed_bound_rejected(self):
        # the time step is fixed by the inflow state; a faster plateau would
        # break the CFL condition
        with pytest.raises(ValueError, match="speed bound"):
            BURGERS.solve_field([1.0, 2.5], 64)
        with pytest.raises(ValueError, match="speed bound"):
            BURGERS.solve_field(-2.5, 64)


class TestQoi:
    def test_zero_field(self):
        assert qoi_trapezoid(np.zeros(65), 4.0 / 64, 10.0) == 0.0
        assert qoi_midpoint(np.zeros(64), 2.0 / 64, 10.0) == 0.0

    def test_constant_field(self):
        assert qoi_trapezoid(np.ones(65), 4.0 / 64, 10.0) == pytest.approx(40.0)
        assert qoi_midpoint(np.ones(64), 2.0 / 64, 10.0) == pytest.approx(20.0)

    def test_steady_state_integral(self):
        # integral of ((x - 2) / 2)^2 over (0, 4) is 4/3
        x = np.linspace(0.0, 4.0, 513)
        q = qoi_trapezoid((x - 2.0) / 2.0, 4.0 / 512, 10.0)
        assert q == pytest.approx(40.0 / 3.0, abs=2e-4)


class TestSamplePair:
    """Coupled (fine, coarse) QoI pairs as the sample bank solves them."""

    HIER = MeshHierarchy(m0=16, factor=2, l_star=7)

    @classmethod
    def bank(cls):
        return SampleBank(DIFFUSION, preset("diffusion").distribution(), cls.HIER)

    def test_level_zero_has_no_coarse(self):
        fine, coarse = self.bank()._solve_pairs(0, np.array([2.0]))
        assert coarse is None and fine.shape == (1,)

    def test_coupling_reproducible_from_input(self):
        bank = self.bank()
        fine, coarse = bank._solve_pairs(3, np.array([2.7]))
        again = self.bank()._solve_pairs(3, np.array([2.7]))
        assert np.array_equal(fine, again[0]) and np.array_equal(coarse, again[1])
        assert np.array_equal(fine, DIFFUSION.qoi_batch([2.7], self.HIER.cells(3)))
        assert np.array_equal(coarse, DIFFUSION.qoi_batch([2.7], self.HIER.cells(2)))

    def test_fine_coarse_gap_shrinks(self):
        bank = self.bank()
        gaps = []
        for level in (1, 3, 5):
            fine, coarse = bank._solve_pairs(level, np.array([2.0]))
            gaps.append(abs(fine[0] - coarse[0]))
        assert gaps[2] < gaps[0]

    def test_batch_matches_scalar(self):
        bank = self.bank()
        fine, coarse = bank._solve_pairs(2, np.array([1.5, 3.0]))
        fine1, coarse1 = bank._solve_pairs(2, np.array([1.5]))
        assert fine[0] == fine1[0]
        assert coarse[0] == coarse1[0]


class TestWorkModel:
    def test_steps_track_mesh(self):
        assert diffusion_steps(16, 0.2, 4.0) == 1
        assert diffusion_steps(256, 0.2, 4.0) == 13
        assert BURGERS.steps(32) == 18

    def test_work_units_increase_with_level(self):
        h = MeshHierarchy(m0=16, factor=2, l_star=7)
        works = [DIFFUSION.work_units(h.cells(l)) for l in range(8)]
        assert all(b > a for a, b in zip(works, works[1:]))


class TestModelSpecValidation:
    @pytest.mark.parametrize("cfl", [0.0, -0.1, 1.0000001, 1.5])
    def test_cfl_outside_unit_interval_rejected(self, cfl):
        # above 1 the scheme is not monotone and states can turn negative;
        # the spec rejects it before any solve
        with pytest.raises(ValueError, match="cfl"):
            replace(BURGERS, cfl=cfl)

    @pytest.mark.parametrize("length", [0.0, -4.0])
    @pytest.mark.parametrize("model", [DIFFUSION, BURGERS], ids=["diffusion", "burgers"])
    def test_nonpositive_domain_length_rejected(self, model, length):
        # the mesh width is domain_length / cells
        with pytest.raises(ValueError, match="domain_length must be positive"):
            replace(model, domain_length=length)

    @pytest.mark.parametrize("cells", [0, 1, -3])
    @pytest.mark.parametrize("model", [DIFFUSION, BURGERS], ids=["diffusion", "burgers"])
    def test_fewer_than_two_cells_rejected(self, model, cells):
        # checked once per call, before any array is sized from cells
        with pytest.raises(ValueError, match="need at least two cells"):
            model.qoi_batch([1.0], cells)

    def test_cfl_one_accepted(self):
        spec = replace(BURGERS, cfl=1.0)
        assert spec.steps(32) == 16
