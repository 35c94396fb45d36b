"""Indicator smoothing: moment-matched polynomial and Gaussian-CDF kernels,
plus per-level bandwidth calibration against the error budget.

Both smoothers replace the indicator 1{Q <= q} by a sigmoid ramp of width
delta.  The polynomial kernel evaluates g((Q - q) / delta) with g built from
endpoint and moment conditions; the KDE kernel evaluates Phi((q - Q) / delta)
(note the reversed argument), the standard normal CDF.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


@dataclass(frozen=True)
class GilesPolynomial:
    """Polynomial sigmoid of degree <= d + 1 on [-1, 1], constant outside.

    Determined by g(1) = 0, g(-1) = 1 and the moment conditions
    int_{-1}^{1} s^k g(s) ds = (-1)^k / (k + 1) for k = 0..d-1, which make the
    smoothing bias of order delta^(d+1) for a d-times differentiable density.
    """

    degree_d: int
    coeffs: np.ndarray  # ascending powers, length degree_d + 2

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        inner = np.polynomial.polynomial.polyval(np.clip(s, -1.0, 1.0), self.coeffs)
        out = np.where(s < -1.0, 1.0, np.where(s > 1.0, 0.0, inner))
        if out.ndim == 0:
            return float(out)
        return out

    def values(self, qoi, nodes, delta: float):
        """Smoothed indicator matrix g((Q_j - q_n) / delta), shape (len(qoi), len(nodes))."""
        qoi = np.asarray(qoi, dtype=float)
        nodes = np.asarray(nodes, dtype=float)
        return self((qoi[:, None] - nodes[None, :]) / delta)


class GaussianKernelCdf:
    """Standard normal CDF acting as the smoothing sigmoid of a Gaussian KDE."""

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        # Phi saturates to 0/1 beyond |s| = 8 to below 1e-15; clip for speed
        out = ndtr(np.clip(s, -8.0, 8.0))
        if out.ndim == 0:
            return float(out)
        return out

    def values(self, qoi, nodes, delta: float):
        """Smoothed indicator matrix Phi((q_n - Q_j) / delta), shape (len(qoi), len(nodes))."""
        qoi = np.asarray(qoi, dtype=float)
        nodes = np.asarray(nodes, dtype=float)
        return self((nodes[None, :] - qoi[:, None]) / delta)


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


def _silverman(samples: np.ndarray) -> float:
    s = float(np.std(samples))
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = float(q75 - q25)
    a = min(s, iqr / 1.34) if iqr > 0 else s
    return max(0.9 * a * samples.size ** (-0.2), 1e-12)


def calibration_discrepancy(smoother, samples, nodes, deltas, pilot_bandwidth=None):
    """|bias| per node of smoothing at bandwidth delta, measured against a
    Gaussian-pilot-smoothed empirical CDF of the samples.

    Smoothing the empirical CDF before differencing removes the sampling noise
    that otherwise swamps the per-sample discrepancy at warmup sizes; both
    terms are convolved with the same pilot, so the comparison stays unbiased
    at leading order.  deltas may be scalar or per-node.
    """
    samples = np.asarray(samples, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    if samples.size == 0:
        raise ValueError("calibration needs at least one sample")
    h = _silverman(samples) if pilot_bandwidth is None else float(pilot_bandwidth)
    d = np.broadcast_to(np.asarray(deltas, dtype=float), nodes.shape)
    pilot_cdf = ndtr((nodes[:, None] - samples[None, :]) / h).mean(axis=1)
    if isinstance(smoother, GaussianKernelCdf):
        # Phi * Gaussian pilot convolves in closed form: bandwidth sqrt(delta^2 + h^2)
        eff = np.sqrt(d * d + h * h)
        smoothed = ndtr((nodes[:, None] - samples[None, :]) / eff[:, None]).mean(axis=1)
        return np.abs(smoothed - pilot_cdf)
    # polynomial kernel: tail mass below q - delta contributes 1, the ramp is
    # integrated against the pilot by Gauss-Legendre on [-1, 1]
    out = np.empty(nodes.size)
    g_at = smoother(_GL_NODES)
    for j, (q, dd) in enumerate(zip(nodes, d)):
        tail = ndtr((q - dd - samples) / h).mean()
        x = q + dd * _GL_NODES[:, None]  # (quad, N)
        density = np.exp(-0.5 * ((x - samples[None, :]) / h) ** 2) / (np.sqrt(2 * np.pi) * h)
        ramp = (g_at[:, None] * density * _GL_WEIGHTS[:, None]).sum(axis=0).mean() * dd
        out[j] = tail + ramp
    return np.abs(out - pilot_cdf)


def calibrate_bandwidth(
    smoother,
    samples,
    nodes,
    eps: float,
    bracket_top: float = np.inf,
    target_fraction: float = 0.25,
    scan_points: int = 40,
    rel_tol: float = 1e-3,
) -> float:
    """Per-level bandwidth from a bracketed root search on the discrepancy.

    For each interpolation node the search locates the first bandwidth at
    which the node's discrepancy crosses target_fraction * eps (log-spaced
    scan, then bisection in log delta).  The level bandwidth is the smallest
    rooted crossing, so plugging it back keeps the discrepancy within the
    target at every node; nodes whose discrepancy never reaches the target
    impose no constraint.  With no rooted node at all the bracket top is
    returned.  bracket_top caps the search (the node spacing in the engines;
    smoothing beyond the grid resolution trades unquantifiable bias for
    variance).
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
    h = _silverman(samples)
    grid = np.exp(np.linspace(np.log(lo), np.log(hi), scan_points))
    roots = np.full(nodes.size, np.inf)
    found = np.zeros(nodes.size, dtype=bool)
    prev = calibration_discrepancy(smoother, samples, nodes, grid[0], h)
    for g in grid[1:]:
        cur = calibration_discrepancy(smoother, samples, nodes, g, h)
        newly = ~found & (prev < target) & (cur >= target)
        if newly.any():
            b_lo = np.where(newly, np.log(g / (grid[1] / grid[0])), 0.0)
            b_hi = np.where(newly, np.log(g), 0.0)
            while np.any((b_hi - b_lo)[newly] > rel_tol):
                mid = 0.5 * (b_lo + b_hi)
                disc = calibration_discrepancy(smoother, samples, nodes, np.exp(mid), h)
                below = disc < target
                b_lo = np.where(below, mid, b_lo)
                b_hi = np.where(below, b_hi, mid)
            # lower bracket end: the discrepancy there is still below target
            roots = np.where(newly, np.exp(b_lo), roots)
            found |= newly
        prev = cur
    if not found.any():
        return float(hi)
    return float(roots[found].min())
