"""Indicator smoothing: moment-matched polynomial and Gaussian-CDF kernels,
plus per-level bandwidth calibration against the error budget.

Both smoothers replace the indicator 1{Q <= q} by a sigmoid ramp of width
delta.  The polynomial kernel evaluates g((Q - q) / delta) with g built from
endpoint and moment conditions; the KDE kernel evaluates Phi((q - Q) / delta)
(note the reversed argument), the standard normal CDF.

Both kernels saturate: further than half_width * delta from Q (delta for the
polynomial, 8 delta for the KDE kernel, whose argument is clipped at +-8) a
node's value is exactly one of two constants, the kernel's saturation pair
(0 and 1 for the polynomial, Phi(-8) and Phi(8) for the KDE kernel).  So a
level difference g(Q_f) - g(Q_c) is exactly 0 away from both QoIs, and a
level-0 term g(Q_f) there is a saturation value.  The estimators evaluate
each kernel's paired form only in that band and count the saturated level-0
terms: their sums at levels >= 1 are the dense sums bit for bit, those at
level 0 agree with them to rounding.  The dense values matrix is paired over
the whole grid and is their test oracle.

Calibration measures each kernel's bias against a Gaussian-pilot-smoothed
empirical CDF (bandwidth h).  For either kernel the bias at r = delta / h is
one Taylor series in r, whose coefficients are the kernel's moments times
Hermite moments of the pilot, built once per calibration.  Each kernel
carries its moment vector, the largest r its 40 terms serve (1 for the
polynomial, 0.5 for the KDE kernel) and the exact form that takes over
beyond it: a 48-point Gauss-Legendre quadrature of the ramp against the
pilot density (GL-48) for the polynomial, the normal CDF in closed form for
the KDE kernel.  Both exact forms are also the tests' references for the
series.  A calibration first bounds the bias over its whole bandwidth
bracket by the series' absolute terms, and when the bound stays below the
target it returns the bracket top without scanning.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
# terms of the discrepancy series: orders m = 0 .. 39
_SERIES_TERMS = 40
_ORDERS = np.arange(_SERIES_TERMS)
_FACTORIALS = np.array([math.factorial(m) for m in _ORDERS], dtype=float)
# the rounding a computed discrepancy may carry beyond the exact value its
# bound holds: this fraction of the bound, plus this much outright
_BOUND_REL = 2.0 ** -30
_BOUND_ABS = 2.0 ** -40
# the calibration's log-spaced scan points, and the width in log delta to
# which it bisects a crossing
_SCAN_POINTS = 40
_REL_TOL = 1e-3


def _series_weights(mu: np.ndarray) -> np.ndarray:
    """A kernel's factor (-1)^m mu_m / m! of the discrepancy series' m-th
    term, from its moments mu_m = int (g(s) - 1{s < 0}) s^m ds."""
    return (-1.0) ** _ORDERS * mu / _FACTORIALS


@dataclass(frozen=True)
class GilesPolynomial:
    """Polynomial sigmoid of degree <= d + 1 on [-1, 1], constant outside.

    Determined by g(1) = 0, g(-1) = 1 and the moment conditions
    int_{-1}^{1} s^k g(s) ds = (-1)^k / (k + 1) for k = 0..d-1, which make the
    smoothing bias of order delta^(d+1) for a d-times differentiable density.
    """

    degree_d: int
    coeffs: np.ndarray  # ascending powers, length degree_d + 2

    # g is exactly 1 at s < -1 and exactly 0 at s > 1 (the two copyto of
    # _ramp), so a node further than half_width * delta from Q takes one of
    # the saturation values: at nodes below Q, then at nodes above it
    half_width = 1.0
    saturation = (0.0, 1.0)
    # the largest r = delta / h the discrepancy series serves; beyond it the
    # series needs more terms and cancels, and GL-48 takes over
    series_max_ratio = 1.0

    def __call__(self, s):
        s = np.array(s, dtype=float)
        out = self._ramp(s.reshape(-1)).reshape(s.shape)
        if out.ndim == 0:
            return float(out)
        return out

    def paired(self, qoi, nodes, delta: float):
        """g((Q - q) / delta) elementwise over float arrays of QoIs and nodes,
        paired or broadcast against each other."""
        s = qoi - nodes
        s /= delta
        return self._ramp(s)

    def values(self, qoi, nodes, delta: float):
        """Smoothed indicator matrix g((Q_j - q_n) / delta), shape
        (len(qoi), len(nodes)): paired over the broadcast grid.  The dense
        test oracle of the estimators' band sums."""
        return self.paired(np.asarray(qoi, dtype=float)[:, None],
                           np.asarray(nodes, dtype=float)[None, :], delta)

    @property
    def series_moments(self) -> np.ndarray:
        """The series weights (_series_weights) of g's moments
        mu_m = int_{-1}^{1} (g(s) - 1{s < 0}) s^m ds, zero for m < d and for
        even m."""
        power = _ORDERS[:, None] + np.arange(self.coeffs.size)[None, :]
        monomial = np.where(power % 2 == 0, 2.0 / (power + 1), 0.0)  # int s^power
        mu = (monomial * self.coeffs).sum(axis=1) - (-1.0) ** _ORDERS / (_ORDERS + 1)
        return _series_weights(mu)

    def exact_discrepancy(self, samples, nodes, deltas, h):
        """The discrepancy by GL-48: the pilot's tail mass below q - delta
        contributes 1 and the ramp is integrated against the pilot density
        by Gauss-Legendre on [-1, 1].  The form above series_max_ratio, and
        the tests' reference for the series."""
        pilot_cdf = ndtr((nodes[:, None] - samples[None, :]) / h).mean(axis=1)
        out = np.empty(nodes.size)
        g_at = self(_GL_NODES)
        for j, (q, dd) in enumerate(zip(nodes, deltas)):
            tail = ndtr((q - dd - samples) / h).mean()
            x = q + dd * _GL_NODES[:, None]  # (quad, N)
            density = np.exp(-0.5 * ((x - samples[None, :]) / h) ** 2) / (np.sqrt(2 * np.pi) * h)
            ramp = (g_at[:, None] * density * _GL_WEIGHTS[:, None]).sum(axis=0).mean() * dd
            out[j] = tail + ramp
        return np.abs(out - pilot_cdf)

    def _ramp(self, s):
        """g over the float array s, which is overwritten: polyval's Horner
        steps (multiply, then add) in place on the clipped argument, then the
        constants outside [-1, 1]."""
        below, above = s < -1.0, s > 1.0
        x = np.clip(s, -1.0, 1.0, out=s)
        out = x * 0.0
        out += self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            out *= x
            out += c
        np.copyto(out, 1.0, where=below)
        np.copyto(out, 0.0, where=above)
        return out


# Phi is within 1e-15 of 0 and 1 beyond |s| = 8; the ramp clips there
_KDE_CLIP = 8.0


class GaussianKernelCdf:
    """Standard normal CDF acting as the smoothing sigmoid of a Gaussian KDE."""

    # the ramp clips its argument to [-8, 8], so a node further than
    # half_width * delta from Q takes exactly Phi(-8) (below Q) or Phi(8)
    # (above Q); neither is exactly 0 or 1
    half_width = _KDE_CLIP
    saturation = (float(ndtr(-_KDE_CLIP)), float(ndtr(_KDE_CLIP)))
    # the series weights of the moments of Phi(-s): m!! / (m + 1) at odd m,
    # 0 at even m, so the series is the heat flow of the pilot CDF,
    # -sum_k (r^2 / 2)^k / k! A_{2k-1}
    series_moments = _series_weights(np.array(
        [math.prod(range(m, 0, -2)) / (m + 1) if m % 2 else 0.0 for m in _ORDERS]))
    # the largest r the series serves: its terms fall like r^(2k) / (2^k k!)
    # times Hermite moments |A_{2k-1}| <= 1.09 sqrt((2k-1)!) / sqrt(2 pi)
    # (Cramer), so up to 0.5 the tail past the 40th order is under 1e-14;
    # beyond it the closed form takes over
    series_max_ratio = 0.5

    def __call__(self, s):
        out = self._ramp(np.array(s, dtype=float))
        if out.ndim == 0:
            return float(out)
        return out

    def paired(self, qoi, nodes, delta: float):
        """Phi((q - Q) / delta) elementwise over float arrays of QoIs and
        nodes, paired or broadcast against each other."""
        s = nodes - qoi
        s /= delta
        return self._ramp(s)

    def values(self, qoi, nodes, delta: float):
        """Smoothed indicator matrix Phi((q_n - Q_j) / delta), shape
        (len(qoi), len(nodes)): paired over the broadcast grid.  The dense
        test oracle of the estimators' band sums."""
        return self.paired(np.asarray(qoi, dtype=float)[:, None],
                           np.asarray(nodes, dtype=float)[None, :], delta)

    @staticmethod
    def exact_discrepancy(samples, nodes, deltas, h):
        """The discrepancy in closed form: Phi at bandwidth delta convolved
        with the Gaussian pilot is a normal CDF at bandwidth
        sqrt(delta^2 + h^2).  The form above series_max_ratio, and the tests'
        reference for the series."""
        u = nodes[:, None] - samples[None, :]
        eff = np.sqrt(deltas * deltas + h * h)
        return np.abs(ndtr(u / eff[:, None]).mean(axis=1) - ndtr(u / h).mean(axis=1))

    @staticmethod
    def _ramp(s):
        """Phi over the float array s, in place.  The clip saves time, and
        it makes Phi exactly constant beyond +-8, which the estimators'
        band sums rely on."""
        np.clip(s, -_KDE_CLIP, _KDE_CLIP, out=s)
        return ndtr(s, out=s)


GAUSSIAN_CDF = GaussianKernelCdf()


def build_giles_polynomial(d: int) -> GilesPolynomial:
    """Solve the (d+2)-condition linear system for the smoothing polynomial.

    Rows: k-th moment conditions for k = 0..d-1, then the two endpoint
    conditions.  Monomial moments over [-1, 1] vanish for odd total power.
    """
    if d < 0:
        raise ValueError("smoothness parameter d must be nonnegative")
    n = d + 2  # coefficients of a degree <= d+1 polynomial
    A = np.zeros((n, n))
    b = np.zeros(n)
    for k in range(d):
        for j in range(n):
            power = k + j
            A[k, j] = 2.0 / (power + 1) if power % 2 == 0 else 0.0
        b[k] = (-1.0) ** k / (k + 1)
    A[d, :] = 1.0                                  # g(1) = 0
    b[d] = 0.0
    A[d + 1, :] = [(-1.0) ** j for j in range(n)]  # g(-1) = 1
    b[d + 1] = 1.0
    try:
        coeffs = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"smoothing polynomial system is singular for d={d}") from exc
    poly = GilesPolynomial(degree_d=d, coeffs=coeffs)
    _check_conditions(poly)
    return poly


def _check_conditions(poly: GilesPolynomial):
    if abs(poly(1.0)) > 1e-12 or abs(poly(-1.0) - 1.0) > 1e-12:
        raise ValueError("endpoint conditions violated")
    c = poly.coeffs
    for k in range(poly.degree_d):
        moment = sum(
            c[j] * (2.0 / (k + j + 1) if (k + j) % 2 == 0 else 0.0) for j in range(c.size)
        )
        if abs(moment - (-1.0) ** k / (k + 1)) > 1e-10:
            raise ValueError(f"moment condition k={k} violated")


# the kernel of each smoother name a run can give.  d = 3 makes the
# polynomial's bias of order delta^4 with a cubic ramp (g - 1/2 is odd, so
# the k = 2 moment condition costs no degree); a larger d needs a higher
# degree, whose ramp overshoots [0, 1] further
SMOOTHERS = {"none": None, "giles": build_giles_polynomial(3), "kde": GAUSSIAN_CDF}


def _silverman(samples: np.ndarray) -> float:
    s = float(np.std(samples))
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = float(q75 - q25)
    a = min(s, iqr / 1.34) if iqr > 0 else s
    return max(0.9 * a * samples.size ** (-0.2), 1e-12)


@dataclass(frozen=True)
class _Pilot:
    """The Gaussian pilot of one sample set at a set of nodes, built once per
    calibration: its bandwidth h and per node the discrepancy series'
    coefficients, shape (nodes, _SERIES_TERMS)."""

    h: float
    series: np.ndarray

    def subset(self, idx):
        """The pilot at nodes[idx]."""
        return _Pilot(self.h, self.series[idx])


def _build_pilot(smoother, samples, nodes) -> _Pilot:
    h = _silverman(samples)
    u = (nodes[:, None] - samples[None, :]) / h
    return _Pilot(h, _hermite_moments(u) * smoother.series_moments)


def _hermite_moments(u: np.ndarray) -> np.ndarray:
    """A[n, m] = mean_j He_m(u_nj) phi(u_nj) for m < _SERIES_TERMS.

    Built by the phi-weighted recurrence P_{m+1} = u P_m - m P_{m-1} from
    P_0 = phi(u), so a node far from every sample gives exactly 0 at every
    order, where He_m(u) times an underflowed phi(u) could be inf times 0.
    """
    out = np.empty((u.shape[0], _SERIES_TERMS))
    prev = np.zeros_like(u)
    cur = np.exp(-0.5 * u * u)
    cur /= np.sqrt(2.0 * np.pi)
    scratch = np.empty_like(u)
    for m in range(_SERIES_TERMS):
        out[:, m] = cur.mean(axis=1)
        prev *= -m
        prev += np.multiply(u, cur, out=scratch)
        prev, cur = cur, prev
    return out


def calibration_discrepancy(smoother, samples, nodes, deltas, pilot=None):
    """|bias| per node of smoothing at bandwidth delta, measured against a
    Gaussian-pilot-smoothed empirical CDF of the samples.

    Smoothing the empirical CDF before differencing removes the sampling noise
    that otherwise swamps the per-sample discrepancy at warmup sizes; both
    terms are convolved with the same pilot, so the comparison stays unbiased
    at leading order.  deltas may be scalar or per-node.  pilot is the
    _build_pilot of (smoother, samples, nodes); a calibration passes its own,
    built once, and without one it is built here (Silverman bandwidth h).

    With r = delta / h, u_nj = (q_n - X_j) / h and the kernel's moments
    mu_m = int (g(s) - 1{s < 0}) s^m ds, the discrepancy is
    |sum_{m < 40} r^(m+1) (-1)^m mu_m A_nm / m!| with the Hermite moments
    A_nm = mean_j He_m(u_nj) phi(u_nj): the Taylor series of the pilot density
    across the ramp.  It serves r <= smoother.series_max_ratio; beyond, the
    kernel's exact_discrepancy takes over.
    """
    samples = np.asarray(samples, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    if samples.size == 0:
        raise ValueError("calibration needs at least one sample")
    if pilot is None:
        pilot = _build_pilot(smoother, samples, nodes)
    h = pilot.h
    d = np.broadcast_to(np.asarray(deltas, dtype=float), nodes.shape)
    r = d / h
    near = r <= smoother.series_max_ratio
    out = np.empty(nodes.size)
    # r^1 .. r^40 along each node's row, by running products; each row is
    # summed on its own, so a node's value does not depend on the others
    powers = np.cumprod(np.repeat(r[near, None], _SERIES_TERMS, axis=1), axis=1)
    out[near] = np.abs((pilot.series[near] * powers).sum(axis=1))
    if not near.all():
        far = ~near
        out[far] = smoother.exact_discrepancy(samples, nodes[far], d[far], h)
    return out


def _discrepancy_bound(smoother, pilot: _Pilot, r_top: float):
    """Per node, an upper bound on calibration_discrepancy at every
    delta <= r_top * h, or None when r_top lies beyond the series' range
    smoother.series_max_ratio: sum_m |series_nm| r_top^(m+1), which bounds
    the series at every r <= r_top term by term."""
    if r_top > smoother.series_max_ratio:
        return None
    return np.abs(pilot.series) @ r_top ** np.arange(1, _SERIES_TERMS + 1)


def _scan_start(smoother, pilot: _Pilot, grid, target: float):
    """The first step k >= 1 of the scan, whose previous point grid[k - 1]
    it evaluates first: the first scan point at which the series bound,
    with room for rounding, does not keep every node below the target (so
    none can reach it lower down), or None when no scan point has one.  The
    top scan point is tried first, so a certified calibration costs one
    bound; the others within the series' range take one product, a column
    of _discrepancy_bound per scan point."""
    top = _discrepancy_bound(smoother, pilot, grid[-1] / pilot.h)
    if top is not None and np.all(top * (1.0 + _BOUND_REL) + _BOUND_ABS < target):
        return None
    r = grid / pilot.h
    r = r[r <= smoother.series_max_ratio]
    bound = np.abs(pilot.series) @ r ** np.arange(1, _SERIES_TERMS + 1)[:, None]
    cleared = np.all(bound * (1.0 + _BOUND_REL) + _BOUND_ABS < target, axis=0)
    return max(int(np.argmin(np.append(cleared, False))), 1)


def calibrate_bandwidth(smoother, samples, nodes, eps: float, bracket_top: float,
                        target_fraction: float) -> float:
    """Per-level bandwidth from a bracketed root search on the discrepancy.

    For each interpolation node the search locates the first bandwidth at
    which the node's discrepancy crosses target_fraction * eps (a scan of
    _SCAN_POINTS log-spaced bandwidths, then bisection in log delta down to a
    width of _REL_TOL).  The level bandwidth is the smallest rooted crossing,
    so plugging it back keeps the discrepancy within the target at every
    node; nodes whose discrepancy never reaches the target impose no
    constraint.  With no rooted node at all the bracket top is returned.
    bracket_top caps the search (the node spacing in the engines; smoothing
    beyond the grid resolution trades unquantifiable bias for variance).

    The scan stops at the first step where a node crosses, and only the
    nodes that crossed there are bisected: their roots lie below that step's
    scan point and any later crossing lies at or above it, so the smallest
    root is among them.

    Before the scan, _discrepancy_bound bounds every node's discrepancy at
    the scan points within series_max_ratio * h, for either kernel by the
    absolute terms of its series.  When the bound at the top scan point, with
    room for rounding, stays below the target at every node, no node can
    cross and the search returns the bracket top without scanning: the scan's
    own answer.  Otherwise the scan starts just below the first scan point
    whose bound does not clear the target: below it no node reaches the
    target, so no crossing is skipped and the answer is the full scan's.
    """
    samples = np.asarray(samples, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    if samples.size == 0:
        raise ValueError("calibration needs at least one sample")
    if eps <= 0:
        raise ValueError("tolerance must be positive")
    spread = float(samples.max() - samples.min())
    if spread <= 0:
        spread = max(abs(float(samples[0])), 1.0) * 1e-3
    lo = 1e-6 * spread
    hi = min(spread, float(bracket_top))
    if hi <= lo:
        return float(hi if hi > 0 else bracket_top)
    target = target_fraction * eps
    pilot = _build_pilot(smoother, samples, nodes)
    grid = np.exp(np.linspace(np.log(lo), np.log(hi), _SCAN_POINTS))
    start = _scan_start(smoother, pilot, grid, target)
    if start is None:
        return float(hi)  # no node can reach the target at any scan point
    prev = calibration_discrepancy(smoother, samples, nodes, grid[start - 1], pilot)
    for k in range(start, _SCAN_POINTS):
        cur = calibration_discrepancy(smoother, samples, nodes, grid[k], pilot)
        crossed = np.flatnonzero((prev < target) & (cur >= target))
        if crossed.size:
            break
        prev = cur
    else:
        return float(hi)
    nodes, pilot = nodes[crossed], pilot.subset(crossed)
    b_lo = np.full(crossed.size, np.log(grid[k] / (grid[1] / grid[0])))
    b_hi = np.full(crossed.size, np.log(grid[k]))
    while np.any(b_hi - b_lo > _REL_TOL):
        mid = 0.5 * (b_lo + b_hi)
        disc = calibration_discrepancy(smoother, samples, nodes, np.exp(mid), pilot)
        below = disc < target
        b_lo = np.where(below, mid, b_lo)
        b_hi = np.where(below, b_hi, mid)
    # lower bracket end: the discrepancy there is still below target
    return float(np.exp(b_lo).min())
