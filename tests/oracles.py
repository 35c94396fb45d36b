"""Test oracles: plain forms of what the package computes another way.

smlmc does not run any of these; the tests hold its faster paths to them.
Test modules import this one as ``oracles`` (pytest puts tests/ on the
import path, since it has no __init__.py).  The one oracle that stays in the
package is cdf.sup_distance, because the benchmark judges estimates by it.
"""

import numpy as np

from smlmc.models import QOI_SCALE, _squares_by_sample


def thomas_solve(lower, diag, upper, rhs):
    """Solve a tridiagonal system by the Thomas algorithm.

    The tests march Crank-Nicolson step by step with it as the oracle of
    the spectral diffusion kernel's fields (ModelSpec.solve_field).

    Parameters
    ----------
    lower, upper : arrays of shape (n-1,) or (n-1, B)
        Sub- and super-diagonal entries.
    diag : array of shape (n,) or (n, B)
        Main diagonal.
    rhs : array of shape (n,) or (n, B)
        Right-hand side(s); a trailing batch axis solves B independent systems
        in one sweep.

    The sweep assumes the usual diagonal-dominance; a vanishing pivot raises.
    """
    diag = np.asarray(diag, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = diag.shape[0]
    if n == 1:
        if np.any(diag == 0.0):
            raise FloatingPointError("zero pivot in tridiagonal solve")
        return rhs / diag
    cp = np.empty_like(upper if upper.ndim == rhs.ndim else rhs[: n - 1])
    dp = np.empty_like(rhs)
    piv = diag[0]
    if np.any(piv == 0.0):
        raise FloatingPointError("zero pivot in tridiagonal solve")
    cp[0] = upper[0] / piv
    dp[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - lower[i - 1] * cp[i - 1]
        if np.any(piv == 0.0):
            raise FloatingPointError("zero pivot in tridiagonal solve")
        if i < n - 1:
            cp[i] = upper[i] / piv
        dp[i] = (rhs[i] - lower[i - 1] * dp[i - 1]) / piv
    x = np.empty_like(rhs)
    x[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def godunov_flux(u_left, u_right):
    """Exact Godunov flux for f(u) = u^2 / 2.

    Shock when u_left >= u_right (flux of the side the shock moves towards,
    by the sign of the shock speed (u_left + u_right) / 2); rarefaction
    otherwise, with zero flux across a transonic fan.  Vectorizes; equivalent
    to max(f(max(u_left, 0)), f(min(u_right, 0))).

    The Burgers march only admits nonnegative states, where this is the
    upwind flux f(u_left) bit for bit, and does that arithmetic in place in
    its tile buffers.  The tests march with this function as the oracle of
    that kernel's fields (ModelSpec.solve_field).
    """
    ul = np.asarray(u_left, dtype=float)
    ur = np.asarray(u_right, dtype=float)
    fl = np.maximum(ul, 0.0) ** 2
    fr = np.minimum(ur, 0.0) ** 2
    out = 0.5 * np.maximum(fl, fr)
    if out.ndim == 0:
        return float(out)
    return out


def qoi_trapezoid(field, dx: float):
    """QOI_SCALE * trapezoid quadrature of field^2 on a node grid (boundary nodes
    included), over the (batch, space) rows of the package's own
    _squares_by_sample.

    ModelSpec.qoi_batch sums the squares of the diffusion kernel's interior
    values and adds the walls' constant terms, with no field assembled.  The
    tests hold this function on ModelSpec.solve_field's field as the oracle
    of that interior QoI.
    """
    f2 = _squares_by_sample(field)
    return QOI_SCALE * dx * (0.5 * f2[..., 0] + f2[..., 1:-1].sum(axis=-1) + 0.5 * f2[..., -1])


def exact_burgers_qoi(u1):
    """The Burgers QoI at t = 0.5 in closed form, the oracle of the solver's
    convergence and of the reference CDF.  The boundary shock (2 -> u1,
    speed (2 + u1) / 2) and the plateau shock (u1 -> 0, speed u1 / 2) do not
    interact before t = 1, so at t = 0.5 the profile is three constant
    states: Q = 10 (4 x_1 + u1^2 (x_2 - x_1)) with x_1 = (2 + u1) / 4 and
    x_2 = 1 + u1 / 4."""
    return 20.0 + 10.0 * u1 + 5.0 * u1**2


def exact_burgers_cdf(dist, q):
    """The exact CDF of the Burgers QoI at the values q, for plateau heights
    drawn from dist, the oracle of the Burgers reference CDFs:
    F(q) = F_W(Q^-1(q)), with the increasing Q of exact_burgers_qoi inverted
    on [0, 2] by linear interpolation on 20001 heights (within 2e-9)."""
    u1 = np.linspace(0.0, 2.0, 20001)
    return dist.cdf(np.interp(q, exact_burgers_qoi(u1), u1))


def required_samples_mlmc(variances, works, eps: float, budget_factor: float):
    """Per-level sample counts N_l = ceil(max_n bf eps^-2 sqrt(V_{n,l}/w_l)
    sum_k sqrt(V_{n,k} w_k)).

    variances: one per-node array (or scalar) per level; works: one positive
    scalar per level.

    The engine sizes every run with required_samples_smlmc; this plainer
    single-stratum form is the oracle of its r = 1 case.
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


def indicator(q_node, qoi):
    """1 when the sample falls at or below the node (closed on the right).

    The dense oracle of cdf.indicator_counts, which the estimators call.
    """
    q_node = np.asarray(q_node, dtype=float)
    qoi = np.asarray(qoi, dtype=float)
    out = (qoi <= q_node).astype(float)
    if out.ndim == 0:
        return float(out)
    return out


def sample(dist, rng: np.random.Generator, size: int):
    """i.i.d. draws of a TruncatedLognormal dist via the inverse-CDF
    transform of rng's uniform stream.

    The engine draws through its per-stratum substreams instead; this is the
    oracle of the sampling law (acceptance criterion 7) and of the engine's
    single-stratum draws.
    """
    return dist.inverse_cdf(rng.random(size))
