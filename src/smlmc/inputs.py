"""Truncated lognormal input distribution, stratification, and sample allocation.

The random inputs of both testbed problems follow a lognormal law truncated to
a bounded interval.  Sampling goes through the inverse CDF so that conditional
(per-stratum) sampling reuses the same machinery.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf, erfinv

_SQRT2 = np.sqrt(2.0)
# inverse_cdf checks its erfinv round trip only where |e| exceeds this.  A
# dense sweep of u (9 million points, two thirds log-spaced towards 0 and 1)
# over both presets and two laws whose e spans (-1, 1) found round-trip errors
# of at most 1.4e-15 at |e| <= 0.99, against the 1e-10 that triggers a repair
_ERF_CHECKED = 0.99


def substream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based RNG substream for a (level, stratum, ...) key.

    All randomness of a run derives from one master seed; substreams are
    statistically independent Philox streams keyed by integers, so results do
    not depend on the order in which streams are created.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))
    )


@dataclass(frozen=True)
class TruncatedLognormal:
    """Lognormal distribution truncated to the interval [w_lo, w_hi].

    mu and sigma are location and scale of the underlying normal in log space.
    w_lo = 0 is allowed: the lower error-function term then takes its limit -1,
    and the support is treated as (0, w_hi].
    """

    mu: float
    sigma: float
    w_lo: float
    w_hi: float
    _erf_lo: float = field(init=False, repr=False)
    _erf_hi: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.w_lo < 0 or self.w_hi <= self.w_lo:
            raise ValueError(f"need 0 <= w_lo < w_hi, got [{self.w_lo}, {self.w_hi}]")
        if self.w_lo == 0.0:
            elo = -1.0
        else:
            elo = float(erf((np.log(self.w_lo) - self.mu) / (_SQRT2 * self.sigma)))
        ehi = float(erf((np.log(self.w_hi) - self.mu) / (_SQRT2 * self.sigma)))
        # far in a tail both erf terms round to the same value: every
        # probability would be 0/0
        if not ehi - elo > 0.0:
            raise ValueError(f"the law at mu {self.mu}, sigma {self.sigma} has no mass "
                             f"on the support [{self.w_lo}, {self.w_hi}] in double precision")
        object.__setattr__(self, "_erf_lo", elo)
        object.__setattr__(self, "_erf_hi", ehi)

    @property
    def _norm(self) -> float:
        return self._erf_hi - self._erf_lo

    def pdf(self, w):
        """Density; zero outside [w_lo, w_hi]."""
        w = np.asarray(w, dtype=float)
        scalar = w.ndim == 0
        w = np.atleast_1d(w)
        out = np.zeros_like(w)
        inside = (w >= self.w_lo) & (w <= self.w_hi) & (w > 0.0)
        ws = w[inside]
        if ws.size:
            z = (np.log(ws) - self.mu) / self.sigma
            out[inside] = (
                _SQRT2 / (np.sqrt(np.pi) * self.sigma * ws) * np.exp(-0.5 * z * z) / self._norm
            )
        return float(out[0]) if scalar else out

    def cdf(self, w):
        """Distribution function; 0 below w_lo, 1 above w_hi."""
        w = np.asarray(w, dtype=float)
        scalar = w.ndim == 0
        w = np.atleast_1d(w)
        out = np.empty_like(w)
        below = w <= max(self.w_lo, 0.0)
        above = w >= self.w_hi
        mid = ~below & ~above
        out[below] = 0.0
        out[above] = 1.0
        wm = w[mid]
        if wm.size:
            e = erf((np.log(wm) - self.mu) / (_SQRT2 * self.sigma))
            out[mid] = np.clip((e - self._erf_lo) / self._norm, 0.0, 1.0)
        return float(out[0]) if scalar else out

    def inverse_cdf(self, u):
        """Quantile function on [0, 1]; closed form via erfinv, bisection fallback."""
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        if np.any(u < 0.0) or np.any(u > 1.0):
            raise ValueError("inverse_cdf argument must lie in [0, 1]")
        e = self._erf_lo + u * self._norm
        with np.errstate(divide="ignore", over="ignore"):
            w = np.exp(self.mu + _SQRT2 * self.sigma * erfinv(np.clip(e, -1.0, 1.0)))
        w = np.clip(w, self.w_lo, self.w_hi)
        w[u <= 0.0] = self.w_lo
        w[u >= 1.0] = self.w_hi
        # erfinv loses accuracy where erf saturates: there, check the round
        # trip through cdf, and repair the points that fail by bisection
        bad = ~np.isfinite(w)
        near = np.abs(e) > _ERF_CHECKED
        bad[near] |= np.abs(self.cdf(np.maximum(w[near], 1e-300)) - u[near]) > 1e-10
        bad &= (u > 0.0) & (u < 1.0)
        if np.any(bad):
            w[bad] = self._bisect(u[bad])
        return float(w[0]) if scalar else w

    def _bisect(self, u):
        lo = np.full(u.shape, self.w_lo if self.w_lo > 0 else np.finfo(float).tiny)
        hi = np.full(u.shape, self.w_hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            less = self.cdf(mid) < u
            lo = np.where(less, mid, lo)
            hi = np.where(less, hi, mid)
            if np.all(hi - lo < 1e-14 * self.w_hi):
                break
        return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Stratification:
    """Partition of [w_lo, w_hi] into contiguous strata with known probabilities."""

    boundaries: np.ndarray  # length r + 1, increasing
    probs: np.ndarray       # length r, positive, sums to 1

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if b.ndim != 1 or b.size < 2 or np.any(np.diff(b) <= 0):
            raise ValueError("boundaries must be strictly increasing with >= 2 entries")
        if p.size != b.size - 1:
            raise ValueError("probs must have one entry per stratum")
        # written so that a nan fails them
        if not np.all(p > 0.0):
            raise ValueError("degenerate stratum: every stratum probability must be positive")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise ValueError(f"stratum probabilities sum to {p.sum()}, not 1")
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "probs", p)

    @property
    def r(self) -> int:
        return self.probs.size


def build_equal_width_strata(dist: TruncatedLognormal, r: int) -> Stratification:
    """Equal-width partition of the support with probabilities from CDF differences."""
    if r < 1:
        raise ValueError(f"need at least one stratum, got r={r}")
    b = np.linspace(dist.w_lo, dist.w_hi, r + 1)
    p = np.diff(dist.cdf(b))
    p = p / p.sum()  # remove float residue so probabilities sum to 1 exactly
    return Stratification(boundaries=b, probs=p)


def _round_counts(raw: np.ndarray, total: int, min_count: int) -> np.ndarray:
    """floor + largest-fractional-part remainder, then enforce a per-entry floor
    by stealing from the largest entry.  total >= len(raw) * min_count, so
    while an entry is short the largest holds more than min_count."""
    n = np.floor(raw).astype(int)
    remainder = total - int(n.sum())
    if remainder > 0:
        order = np.argsort(-(raw - n), kind="stable")
        n[order[:remainder]] += 1
    while np.any(n < min_count):
        short = int(np.argmax(n < min_count))
        n[int(np.argmax(n))] -= 1
        n[short] += 1
    return n


def proportional_allocation(N: int, strat: Stratification, min_count: int = 1) -> np.ndarray:
    """n_i = N * p_i, rounded deterministically, every stratum at least min_count."""
    if N < strat.r * min_count:
        raise ValueError(f"N={N} cannot give {min_count} sample(s) to each of {strat.r} strata")
    return _round_counts(N * strat.probs, N, min_count)
