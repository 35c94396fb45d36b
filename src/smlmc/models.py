"""PDE testbeds: deterministic maps from a scalar random input to a scalar QoI.

Two models ship:

* linear diffusion on (0, 4) with a random diffusion coefficient, solved by
  central differences in space and Crank-Nicolson in time, the whole march
  evaluated exactly in the sine basis that diagonalises it (DST-I); QoI =
  10 * integral of u^2 at t = 0.2;
* inviscid Burgers on (0, 2) with a random nonnegative initial plateau,
  inflow state 2 and outflow state 0, solved by the first-order Godunov
  finite-volume scheme, which for the nonnegative states of this testbed is
  the upwind scheme, run only over the rows near the solution's two fronts;
  QoI = 10 * integral of u^2 at t = 0.5.

A ModelSpec holds a testbed's parameters (final time, domain length and CFL
number), its step count and work model; the kernels take the spec, not
copies of its values.  The diffusion walls and initial layer, the Burgers
boundary states and the QoI scale are fixed by the testbeds, as constants.

Each testbed has one code path: a set-up that validates a call's inputs once
(_diffusion_setup, _burgers_setup) and a kernel on numpy arrays of shape
(space, batch) (_diffusion_interior, _burgers_march).  ModelSpec.qoi_batch
dispatches to the model's QoI path (_diffusion_qois, _burgers_qois), the one
place that sizes a solve: it hands the kernel column tiles that fit in cache
and keeps only the QoIs, so any batch costs one tile's memory beyond its B
output values.  ModelSpec.solve_field builds a batch's fields from the same
set-up and kernel.  A sample's QoI does not depend on the rest of its batch.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dst, idst

DIFFUSION_IC_WIDTH = 0.05
# both testbeds' QoI is QOI_SCALE * integral of u^2 at the final time
QOI_SCALE = 10.0
# the Burgers inflow state.  The outflow state is 0 and the plateau heights
# are held to the inflow state, so it bounds every wave speed and fixes the
# CFL time step, the same for every sample
BURGERS_INFLOW = 2.0


@dataclass(frozen=True)
class MeshHierarchy:
    """Geometric mesh family M_l = m0 * factor^l, levels 0..l_star; the
    factor is a class constant, not a field."""

    m0: int
    l_star: int
    factor = 2

    def __post_init__(self):
        if self.m0 <= 1:
            raise ValueError("coarsest mesh needs more than one cell")
        if self.l_star < 0:
            raise ValueError("l_star must be nonnegative")

    def cells(self, level: int) -> int:
        if not 0 <= level <= self.l_star:
            raise ValueError(f"level {level} outside 0..{self.l_star}")
        return self.m0 * self.factor**level


def diffusion_steps(cells: int, final_time: float, length: float, dt_over_dx: float = 1.0) -> int:
    """Number of Crank-Nicolson steps: dt tracks dx so time and space errors balance."""
    dx = length / cells
    return max(1, int(np.ceil(final_time / (dt_over_dx * dx) - 1e-12)))


@lru_cache(maxsize=32)
def _diffusion_mesh(cells: int, final_time: float, length: float, dt_over_dx: float):
    """The batch-independent half of the spectral diffusion kernel at one mesh.

    Returns (n_steps, dt, ramp, coeffs, mu): the step count and time step,
    the wall ramp at the interior nodes, the orthonormal DST-I coefficients
    of the initial data less the ramp, and the mode factors mu_k.  Every
    batch and every tile at a mesh shares them, so they are built once per
    (cells, final_time, length, dt_over_dx) and handed out read-only.
    """
    n_steps = diffusion_steps(cells, final_time, length, dt_over_dx)
    x = np.linspace(0.0, length, cells + 1)
    ramp = -1.0 + 2.0 * x[1:-1] / length
    coeffs = dst(np.tanh((x[1:-1] - 2.0) / DIFFUSION_IC_WIDTH) - ramp, type=1, norm="ortho")
    k = np.arange(1, cells)
    mu = 4.0 * np.sin(k * np.pi / (2.0 * cells)) ** 2
    for a in (ramp, coeffs, mu):
        a.flags.writeable = False
    return n_steps, final_time / n_steps, ramp, coeffs, mu


def _diffusion_setup(model, d, cells: int, dt_over_dx: float):
    """The set-up of one diffusion call of a ModelSpec, after validating its
    inputs, before any array is sized from cells: (dx, *_diffusion_mesh).
    The model's own settings were checked when it was built."""
    if cells < 2:
        raise ValueError("need at least two cells")
    if np.any(d <= 0):
        raise ValueError("diffusion coefficient must be positive")
    return (model.domain_length / cells,
            *_diffusion_mesh(cells, model.final_time, model.domain_length, dt_over_dx))


def _power(g, n: int, e, t):
    """g**n elementwise for an integer n >= 1 and |g| <= 1, by binary
    exponentiation, in g's memory; e and t are scratch of g's shape.

    Squaring g in place would round each power near 1 to an absolute 2^-54,
    and the rest of the exponent multiplies that error by up to n / 2: at 103
    steps that moved QoIs by 2.5e-15.  So the squares g^2, g^4, ... are
    carried as their distances e from 1, which keep their relative accuracy.
    The first is e = 1 - g^2 = (1 - g)(1 + g), where one factor is exact once
    |g| >= 1/2 (Sterbenz), and squaring maps e to e (2 - e).  The product of
    the powers that n's bits select is never squared, so it is carried as
    is, from g when n is odd.  n = 1 returns g with no pass over it.
    """
    if n == 1:
        return g
    np.subtract(1.0, g, out=e)
    np.add(1.0, g, out=t)
    e *= t
    acc = g if n % 2 else None
    m = n // 2
    while True:
        if m & 1:
            if acc is None:
                acc = np.subtract(1.0, e, out=g)
            else:
                np.subtract(1.0, e, out=t)
                acc *= t
        m >>= 1
        if not m:
            return acc
        np.subtract(2.0, e, out=t)
        e *= t


def _diffusion_interior(d, setup, work):
    """Interior node values u(x_1 .. x_{cells-1}, final_time), shape
    (cells - 1, B), for a batch of coefficients d, over the set-up of
    _diffusion_setup.  Nodes are x_j = j * dx; the walls hold u = -1 at 0
    and +1 at domain_length, and the initial transition layer is
    tanh((x - 2) / DIFFUSION_IC_WIDTH).

    The Crank-Nicolson march is evaluated in closed form.  With the wall ramp
    r(x) = -1 + 2x / domain_length subtracted, each step multiplies the
    interior data by (I + lam A)^-1 (I - lam A), with lam = d dt / (2 dx^2)
    per sample and A the Dirichlet second-difference matrix.  The
    orthonormal DST-I diagonalises this step for any lam (Strang, SIAM
    Review 41, 1999): mode k is scaled by g_k = (1 - lam mu_k) / (1 + lam mu_k),
    with mu_k = 4 sin^2(k pi / (2 cells)).  So n steps are one DST-I of the
    initial data, a multiply by g_k^n and one inverse DST-I over the batch.
    The forward transform, the ramp and mu_k do not depend on the batch:
    every batch at a mesh shares them (_diffusion_mesh).  g_k^n is taken by
    squaring over the integer n (_power), with no pass at n = 1.  The step
    count and the work model are those of the stepwise march.

    work is scratch of shape (3, n) with n >= (cells - 1) * B, which a caller
    that solves many tiles reuses for each of them; the values returned lie
    in work[0].  Fresh arrays for each tile cost more in page faults than the
    passes over them.
    """
    dx, n_steps, dt, ramp, coeffs, mu = setup
    lam = d * dt / (2.0 * dx * dx)
    g, e, t = (row[: mu.size * d.size].reshape(mu.size, d.size) for row in work)
    np.multiply(mu[:, None], lam, out=g)
    np.add(g, 1.0, out=t)
    np.subtract(1.0, g, out=g)
    g /= t
    g = _power(g, n_steps, e, t)
    g *= coeffs[:, None]
    v = idst(g, type=1, norm="ortho", axis=0, overwrite_x=True)
    v += ramp[:, None]
    return v


def _burgers_dt(model, cells: int) -> float:
    """The CFL time step of the Burgers march of a ModelSpec, fixed by
    BURGERS_INFLOW, the wave-speed bound."""
    return model.cfl * (model.domain_length / cells) / BURGERS_INFLOW


def burgers_time_steps(model, cells: int) -> list:
    """The time steps of the Burgers march of a ModelSpec, model.steps(cells)
    of them.

    Each step is min(dt_cfl, final_time - t) with t accumulated step by step,
    and the last one is clipped onto final_time, so the steps sum to
    final_time and their count is the one the work model charges.
    """
    n_steps = model.steps(cells)
    dt_cfl = _burgers_dt(model, cells)
    steps = []
    t = 0.0
    for _ in range(n_steps - 1):
        steps.append(min(dt_cfl, model.final_time - t))
        t += steps[-1]
    steps.append(model.final_time - t)
    return steps


# steps between measurements of the march's inflow prefix and zero suffix,
# and the rows each measurement reads at a time
_EDGE_CHECK_STEPS = 8
_EDGE_ROWS = 16


def _upwind_rows(x, f, d, start, stop, ratio):
    """One upwind step over rows [start, stop) of the state u = x[1:], in four
    in-place passes: square the left states into the flux buffer f,
    difference them into d, scale d by ratio = 0.5 * (dt / dx), which holds
    the flux's halving, and subtract it from u.  Reads rows
    start - 1 .. stop - 1 of u (row -1 is the inflow ghost x[0]) and writes
    rows start .. stop - 1."""
    fk, dk = f[start : stop + 1], d[start:stop]
    np.square(x[start : stop + 1], out=fk)
    np.subtract(fk[1:], fk[:-1], out=dk)
    dk *= ratio
    x[start + 1 : stop + 1] -= dk


def _inflow_prefix(u, lo, stop):
    """lo advanced past the rows of u[lo:stop] that equal the inflow state
    in every column."""
    while lo < stop:
        same = (u[lo : min(stop, lo + _EDGE_ROWS)] == BURGERS_INFLOW).all(axis=1)
        if not same.all():
            return lo + int(np.argmin(same))
        lo += same.size
    return lo


def _zero_suffix(u, floor, hi):
    """hi lowered, not below floor, past the rows of u[floor:hi] that are 0 in
    every column."""
    while hi > floor:
        start = max(floor, hi - _EDGE_ROWS)
        live = np.flatnonzero(u[start:hi].any(axis=1))
        if live.size:
            return start + int(live[-1]) + 1
        hi = start
    return hi


def _burgers_setup(model, u1, cells: int):
    """The set-up of one Burgers call of a ModelSpec, after validating its
    inputs, before any array is sized from cells: (ratios, plateau), the
    step ratios 0.5 * (dt / dx) of burgers_time_steps and the number of
    cells of the initial plateau.  The model's own settings were checked
    when it was built.

    Each ratio halves the rounded dt / dx exactly, and _upwind_rows scales
    the difference of the squares by it in place of halving every square:
    the two round alike wherever the halved squares are normal numbers.
    """
    if cells < 2:
        raise ValueError("need at least two cells")
    if np.any(np.abs(u1) > BURGERS_INFLOW):
        raise ValueError(f"plateau heights must lie within the speed bound {BURGERS_INFLOW}")
    if np.any(u1 < 0):
        raise ValueError("plateau heights must be nonnegative")
    dx = model.domain_length / cells
    ratios = [0.5 * (dt / dx) for dt in burgers_time_steps(model, cells)]
    plateau = int(np.count_nonzero((np.arange(cells) + 0.5) * dx <= 1.0))
    return ratios, plateau


def _burgers_march(u1, ratios, plateau: int, x, f, d):
    """Cell averages u at the final time, shape (cells, B), for plateau
    heights u1 of shape (B,), over the ratios and plateau of _burgers_setup.
    Initial data is u1 on (0, 1] and 0 on (1, domain_length); the left ghost
    cell carries the inflow state BURGERS_INFLOW and the right one the
    outflow state 0.

    Every state is nonnegative: the plateau heights are required to be, the
    boundary states are, and with cfl <= 1 the monotone scheme keeps u in
    [0, BURGERS_INFLOW] (the top only up to rounding).  For the convex flux
    u^2 / 2 the Godunov flux of two nonnegative states is then the upwind
    flux f(u_left) (LeVeque, Finite Volume Methods for Hyperbolic Problems,
    2002, sec. 12.2): in IEEE arithmetic the exact Godunov flux
    0.5 * max(max(u_left, 0)^2, min(u_right, 0)^2) is 0.5 * u_left^2, and
    the march never reads the outflow ghost.  The tests march the Godunov
    flux as the oracle of this kernel.

    A step is four in-place passes over a window of rows (_upwind_rows).
    Moving the flux's halving into the ratio is exact wherever the halved
    squares are normal numbers, so fields keep the bits of the full sweep
    down to the subnormal range, and below 2^-1000 differ from them by a few
    units of 2^-1074; QoIs keep every bit.  A row whose state equals its left
    neighbour's in every column gets the update u - 0 * ratio = u, bits and
    all, so the march skips the rows where that is known to hold.
    Upwinding moves information one cell per step, and the solution has two
    fronts:

    * the inflow front.  Before step k the rows [k + 1, plateau) still hold
      u1 exactly, so step k updates rows [lo, min(k + 1, plateau)), where lo
      is the measured prefix of rows equal to the inflow state in every
      column (behind the boundary shock they reach it exactly); those rows
      and their left neighbours stay equal for good;
    * the plateau front.  Rows from hi on hold exactly 0 in every column,
      with hi trimmed past the measured trailing zero rows and then grown by
      one row a step, so step k updates rows [plateau, min(cells, hi + 1)).

    Once k + 1 reaches plateau the two windows meet and the step updates
    [lo, min(cells, hi + 1)).  While apart, neither window reads a row the
    other writes, so skipping rows changes no bit.  lo and hi are measured
    every _EDGE_CHECK_STEPS steps, _EDGE_ROWS rows at a time.  Columns never
    mix, so a sample's field does not depend on its batch.

    x and f are scratch of shape (cells + 1, B) and d of shape (cells, B),
    which a caller that marches many tiles reuses for each of them: the
    state with the inflow ghost in row 0, the flux buffer and the difference
    buffer.  The field returned is the view x[1:].  Fresh arrays for each
    tile cost about 110 minor page faults a tile at 32 and 128 cells.
    """
    cells = d.shape[0]
    x[0] = BURGERS_INFLOW
    u = x[1:]
    u[:plateau] = u1
    u[plateau:] = 0.0
    # rows [0, lo) hold the inflow state in every column and rows [hi, cells)
    # hold 0 in every column; both stay so, and are measured every
    # _EDGE_CHECK_STEPS steps
    lo, hi = 0, plateau
    for k, ratio in enumerate(ratios):
        if k % _EDGE_CHECK_STEPS == 0:
            hi = _zero_suffix(u, plateau, hi)
            lo = _inflow_prefix(u, lo, hi)
        right = min(cells, hi + 1)
        left = min(k + 1, plateau)
        if left < plateau:
            # the fronts are apart: rows [left, plateau) still hold u1
            if lo < left:
                _upwind_rows(x, f, d, lo, left, ratio)
            if plateau < right:
                _upwind_rows(x, f, d, plateau, right, ratio)
        elif lo < right:
            _upwind_rows(x, f, d, lo, right, ratio)
        hi = right
    if not np.all(np.isfinite(u)):
        raise FloatingPointError("Burgers solve produced non-finite values")
    return u


def _squares_by_sample(field, buffer=None):
    """field^2 as (batch, space) with each sample's values contiguous, in
    buffer when given (a C-contiguous array of that shape).

    numpy sums the last axis of this layout pairwise for every row whatever
    the batch size, so a sample's QoI does not depend on its batch-mates.
    Summing axis 0 of the (space, batch) layout goes row by row for B > 1 but
    pairwise for B = 1, which moved a lone sample's QoI by up to 7e-14.
    """
    return np.square(np.asarray(field, dtype=float).T, out=buffer, order="C")


def qoi_midpoint(field, dx: float):
    """QOI_SCALE * midpoint quadrature of field^2 on a cell-average grid."""
    return QOI_SCALE * dx * _squares_by_sample(field).sum(axis=-1)


# Elements of one column tile: each model's QoI path solves a batch
# _TILE_ELEMS // (cells + 1) samples at a time.  The Burgers march's three
# buffers (about 1.5 MB at 2^16) stay in a 4 MiB L2 cache while the tile takes
# all its steps; the best tile measured 2^15 to 2^16 elements at 32 to 512
# cells.  The diffusion kernel's (cells, T) arrays are as large.
_TILE_ELEMS = 1 << 16


def _diffusion_qois(spec, w, cells: int, dt_over_dx: float):
    """Diffusion QoIs of a ModelSpec for a batch of coefficients, without the
    field.  The QoI is the squares of the kernel's interior values, in the
    (batch, space) rows of _squares_by_sample, plus the walls' squares at
    weight 0.5 each, in the order of the trapezoid rule on the field, so it
    has the bits of that quadrature of ModelSpec.solve_field's field, the
    tests' qoi_trapezoid oracle.  The set-up is validated once per call and
    built once per mesh, the tiles share one scratch, and a non-finite QoI
    raises.
    """
    setup = _diffusion_setup(spec, w, cells, dt_over_dx)
    dx = setup[0]
    tile = max(1, _TILE_ELEMS // (cells + 1))
    out = np.empty(w.shape[0])
    work = np.empty((3, (cells - 1) * min(tile, w.shape[0])))
    for start in range(0, w.shape[0], tile):
        v = _diffusion_interior(w[start : start + tile], setup, work)
        squares = work[1, : v.size].reshape(v.shape[::-1])
        q = QOI_SCALE * dx * (0.5 + _squares_by_sample(v, squares).sum(axis=-1) + 0.5)
        if not np.all(np.isfinite(q)):
            raise FloatingPointError("diffusion solve produced non-finite values")
        out[start : start + tile] = q
    return out


def _burgers_qois(spec, w, cells: int):
    """Burgers QoIs of a ModelSpec for a batch of plateau heights.  The
    inputs are validated and the march's step ratios built once per call
    (_burgers_setup).  The tiles are taken in ascending u1, which narrows the
    rows between a tile's slowest and fastest fronts that its steps update,
    and every tile marches in one set of buffers (_burgers_march); each
    tile's QoIs go back to their inputs' places in the output.
    """
    ratios, plateau = _burgers_setup(spec, w, cells)
    order = np.argsort(w)
    w = w[order]
    dx = spec.domain_length / cells
    tile = max(1, _TILE_ELEMS // (cells + 1))
    out = np.empty(w.shape[0])
    work = np.empty((3, (cells + 1) * min(tile, w.shape[0])))
    for start in range(0, w.shape[0], tile):
        part = w[start : start + tile]
        x, f, d = (row[: m * part.size].reshape(m, part.size)
                   for row, m in zip(work, (cells + 1, cells + 1, cells)))
        u = _burgers_march(part, ratios, plateau, x, f, d)
        out[order[start : start + tile]] = qoi_midpoint(u, dx)
    return out


@dataclass(frozen=True)
class ModelSpec:
    """One PDE testbed: identity, geometry, final time and the Burgers
    march's CFL number, checked once here for every solve."""

    name: str                 # "diffusion" | "burgers"
    final_time: float
    domain_length: float
    cfl: float                # Burgers only

    def __post_init__(self):
        if self.name not in ("diffusion", "burgers"):
            raise ValueError(f"unknown model {self.name!r}")
        if self.final_time <= 0:
            raise ValueError("final_time must be positive")
        if self.domain_length <= 0:
            raise ValueError("domain_length must be positive")
        # checked for both models: the [model] cfl key is shared, so an
        # out-of-range value is a config error whichever model reads it
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl {self.cfl} must lie in (0, 1]: above 1 the Burgers "
                             "scheme is not monotone")

    def qoi_batch(self, w, cells: int, dt_over_dx: float = 1.0):
        """QoI values for a batch of inputs at the given resolution, from the
        model's QoI path (_diffusion_qois, _burgers_qois), which tiles the
        batch.  dt_over_dx sets the diffusion time step; the CFL-limited
        Burgers march ignores it."""
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if self.name == "diffusion":
            return _diffusion_qois(self, w, cells, dt_over_dx)
        return _burgers_qois(self, w, cells)

    def solve_field(self, w, cells: int, dt_over_dx: float = 1.0):
        """(x, u): the solution fields for a batch of inputs on the model's own
        grid, u of shape (space, B): the cells + 1 nodes for diffusion, walls
        included, the cell centres for Burgers.  dt_over_dx is qoi_batch's."""
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if self.name == "diffusion":
            setup = _diffusion_setup(self, w, cells, dt_over_dx)
            v = _diffusion_interior(w, setup, np.empty((3, (cells - 1) * w.size)))
            u = np.pad(v, ((1, 1), (0, 0)), constant_values=((-1.0, 1.0), (0.0, 0.0)))
            if not np.all(np.isfinite(u)):
                raise FloatingPointError("diffusion solve produced non-finite values")
            return np.linspace(0.0, self.domain_length, cells + 1), u
        ratios, plateau = _burgers_setup(self, w, cells)
        u = _burgers_march(w, ratios, plateau, np.empty((cells + 1, w.size)),
                           np.empty((cells + 1, w.size)), np.empty((cells, w.size)))
        return (np.arange(cells) + 0.5) * self.domain_length / cells, u

    def steps(self, cells: int) -> int:
        """Time steps of one solve.  The Burgers march is CFL-limited, its
        final step clipped onto final_time: a ratio final_time / dt within a
        relative 1e-12 above an integer counts as that integer, because past
        a few thousand steps the ratio's rounding exceeds any absolute
        tolerance, and the count would gain a step of rounding size."""
        if self.name == "diffusion":
            return diffusion_steps(cells, self.final_time, self.domain_length)
        return int(np.ceil(self.final_time / _burgers_dt(self, cells) * (1.0 - 1e-12)))

    def work_units(self, cells: int) -> float:
        """Deterministic work model: cells times time steps for one solve."""
        return float(cells) * self.steps(cells)
