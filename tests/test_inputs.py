import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfinv
from scipy.stats import kstest

import smlmc.inputs
from oracles import sample
from smlmc.config import preset
from smlmc.estimators import LevelState, SampleBank
from smlmc.inputs import (
    Stratification,
    TruncatedLognormal,
    build_equal_width_strata,
    proportional_allocation,
    substream,
)

DIFF = TruncatedLognormal(mu=3.0, sigma=3.0, w_lo=1.0, w_hi=4.0)
BURG = TruncatedLognormal(mu=1.5, sigma=1.0, w_lo=0.0, w_hi=2.0)


class TestPdf:
    def test_zero_outside_support(self):
        assert DIFF.pdf(0.5) == 0.0
        assert DIFF.pdf(4.5) == 0.0
        assert BURG.pdf(-0.1) == 0.0

    def test_normalizes_to_one(self):
        total, err = quad(DIFF.pdf, 1.0, 4.0, epsabs=1e-13)
        assert abs(total - 1.0) < 1e-10

    def test_zero_lower_truncation_value(self):
        # oracle: normalize the raw lognormal kernel over (0, 2] by quadrature
        kernel = lambda w: np.exp(-((np.log(w) - 1.5) ** 2) / 2.0) / w
        norm, _ = quad(kernel, 1e-300, 2.0, epsabs=1e-13)
        expected = kernel(1.0) / norm
        assert BURG.pdf(1.0) == pytest.approx(expected, abs=1e-10)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TruncatedLognormal(mu=0.0, sigma=0.0, w_lo=1.0, w_hi=2.0)
        with pytest.raises(ValueError):
            TruncatedLognormal(mu=0.0, sigma=1.0, w_lo=2.0, w_hi=1.0)

    def test_support_without_mass_rejected(self):
        # the mass lies near e^3 = 20; both erf terms round to -1, so every
        # probability was 0/0 and a stratified run never ended
        with pytest.raises(ValueError, match=r"^the law at mu 3\.0, sigma 0\.01 has no "
                           r"mass on the support \[1\.0, 4\.0\]"):
            TruncatedLognormal(mu=3.0, sigma=0.01, w_lo=1.0, w_hi=4.0)


class TestCdf:
    def test_boundaries(self):
        assert DIFF.cdf(1.0) == 0.0
        assert DIFF.cdf(4.0) == 1.0
        assert BURG.cdf(0.0) == 0.0
        assert BURG.cdf(2.0) == 1.0

    def test_monotone(self):
        w = np.linspace(1.0, 4.0, 500)
        assert np.all(np.diff(DIFF.cdf(w)) >= 0)

    def test_against_quadrature(self):
        expected, _ = quad(DIFF.pdf, 1.0, 2.0, epsabs=1e-13)
        assert DIFF.cdf(2.0) == pytest.approx(expected, abs=1e-10)


class TestInverseCdf:
    def test_endpoints(self):
        assert DIFF.inverse_cdf(0.0) == 1.0
        assert DIFF.inverse_cdf(1.0) == 4.0
        assert BURG.inverse_cdf(0.0) == 0.0

    def test_median_against_bisection(self):
        lo, hi = 1.0, 4.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if DIFF.cdf(mid) < 0.5:
                lo = mid
            else:
                hi = mid
        assert DIFF.inverse_cdf(0.5) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_round_trip(self):
        u = np.linspace(1e-3, 1.0 - 1e-3, 1000)
        for dist in (DIFF, BURG):
            back = dist.cdf(dist.inverse_cdf(u))
            assert np.abs(back - u).max() < 1e-8

    def test_domain_error(self):
        with pytest.raises(ValueError):
            DIFF.inverse_cdf(1.5)
        with pytest.raises(ValueError):
            DIFF.inverse_cdf(-0.1)

    @staticmethod
    def _always_checked(dist, u):
        """inverse_cdf with the erfinv round trip checked at every point,
        whatever |e|."""
        e = dist._erf_lo + u * dist._norm
        with np.errstate(divide="ignore", over="ignore"):
            w = np.exp(dist.mu + np.sqrt(2.0) * dist.sigma * erfinv(np.clip(e, -1.0, 1.0)))
        w = np.clip(w, dist.w_lo, dist.w_hi)
        w[u <= 0.0] = dist.w_lo
        w[u >= 1.0] = dist.w_hi
        bad = ~np.isfinite(w) | (np.abs(dist.cdf(np.maximum(w, 1e-300)) - u) > 1e-10)
        bad &= (u > 0.0) & (u < 1.0)
        if np.any(bad):
            w[bad] = dist._bisect(u[bad])
        return w

    @pytest.mark.parametrize("dist", [DIFF, BURG], ids=["diffusion", "burgers"])
    def test_matches_always_checked_path(self, dist):
        # checking only where |e| is near 1 changes no draw: e spans
        # [-0.68, -0.41] for diffusion and reaches -1 for Burgers
        tiny = np.logspace(-300, -0.3, 300_001)
        u = np.concatenate([np.linspace(0.0, 1.0, 1_000_001), tiny, 1.0 - tiny])
        assert np.array_equal(dist.inverse_cdf(u), self._always_checked(dist, u))

    def test_repairs_where_erf_saturates(self, monkeypatch):
        # Burgers' w_lo = 0 puts e at -1; an erfinv that goes wrong near
        # |e| = 1 is still caught by the round trip and repaired
        exact = erfinv
        monkeypatch.setattr(smlmc.inputs, "erfinv",
                            lambda e: np.where(np.abs(e) > 0.999, 0.9, 1.0) * exact(e))
        u = np.logspace(-12, -3, 50)
        w = BURG.inverse_cdf(u)
        assert np.abs(BURG.cdf(w) - u).max() <= 1e-10


class TestSampling:
    def test_support(self):
        w = sample(DIFF, substream(0, 0, 0), 1000)
        assert np.all((w >= 1.0) & (w <= 4.0))

    def test_kolmogorov_smirnov(self):
        w = sample(DIFF, substream(7, 0, 0), 100_000)
        stat = kstest(w, DIFF.cdf).statistic
        assert stat < 0.01
        w = sample(BURG, substream(8, 0, 0), 100_000)
        assert kstest(w, BURG.cdf).statistic < 0.01

    def test_deterministic_replay(self):
        a = sample(DIFF, substream(123, 2, 1), 50)
        b = sample(DIFF, substream(123, 2, 1), 50)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = sample(DIFF, substream(123, 0, 0), 50)
        b = sample(DIFF, substream(123, 0, 1), 50)
        assert not np.array_equal(a, b)


class TestStratification:
    def test_single_stratum(self):
        s = build_equal_width_strata(DIFF, 1)
        assert s.r == 1
        assert s.probs[0] == 1.0

    def test_equal_width_boundaries(self):
        s = build_equal_width_strata(DIFF, 8)
        assert np.allclose(s.boundaries, 1.0 + 0.375 * np.arange(9))

    def test_probabilities_against_quadrature(self):
        s = build_equal_width_strata(DIFF, 8)
        for i in range(8):
            expected, _ = quad(DIFF.pdf, s.boundaries[i], s.boundaries[i + 1],
                               epsabs=1e-13)
            assert s.probs[i] == pytest.approx(expected, abs=1e-9)

    def test_probs_sum_to_one(self):
        for r in (2, 8, 16):
            s = build_equal_width_strata(DIFF, r)
            assert abs(s.probs.sum() - 1.0) <= 1e-12

    def test_zero_strata_rejected(self):
        with pytest.raises(ValueError):
            build_equal_width_strata(DIFF, 0)

    def test_nan_probabilities_rejected(self):
        # nan gets past p <= 0 and a sum test written as > 1e-12
        with pytest.raises(ValueError, match="degenerate stratum"):
            Stratification(np.array([1.0, 2.0, 4.0]), np.array([np.nan, np.nan]))

    def test_mixture_of_conditionals_recovers_pdf(self):
        s = build_equal_width_strata(DIFF, 8)
        w = np.linspace(1.0001, 3.9999, 400)
        mix = np.zeros_like(w)
        for i in range(8):
            inside = (w > s.boundaries[i]) & (w <= s.boundaries[i + 1])
            conditional = np.where(inside, DIFF.pdf(w) / s.probs[i], 0.0)
            mix += s.probs[i] * conditional
        assert np.abs(mix - DIFF.pdf(w)).max() < 1e-10


def _draws(r, seed, m):
    """r equal-width strata of DIFF, and m level-0 draws of each as a
    diffusion-preset sample bank draws a pass: all strata pooled into one
    inverse_cdf call."""
    exp = preset("diffusion")
    bank = SampleBank(exp.model_spec(), DIFF, exp.hierarchy())
    strat = build_equal_width_strata(DIFF, r)
    cdf = DIFF.cdf(strat.boundaries)
    meshes = (exp.hierarchy().cells(0),)
    pooled = bank._draw([(bank._rows(seed, (0, i), cdf[i], cdf[i + 1], meshes), m)
                         for i in range(r)])
    return strat, np.split(pooled, r)


class TestSampleStratum:
    """Conditional input draws of the sample bank, SampleBank._draw (0-based
    strata, one substream per (level, stratum))."""

    def test_degenerate_matches_plain_sampling(self):
        _, (a,) = _draws(1, 5, 100)
        b = sample(DIFF, substream(5, 0, 0), 100)
        assert np.array_equal(a, b)

    def test_draws_inside_stratum(self):
        s, draws = _draws(8, 9, 500)
        for i, w in enumerate(draws):
            assert np.all(w >= s.boundaries[i] - 1e-12)
            assert np.all(w <= s.boundaries[i + 1] + 1e-12)

    def test_conditional_law(self):
        s, draws = _draws(4, 11, 10_000)
        for i, w in enumerate(draws):
            lo = float(DIFF.cdf(s.boundaries[i]))
            span = float(DIFF.cdf(s.boundaries[i + 1])) - lo
            cond_cdf = lambda x: (DIFF.cdf(x) - lo) / span
            assert kstest(w, cond_cdf).statistic < 0.02


def _strat(probs):
    probs = np.asarray(probs, dtype=float)
    edges = np.concatenate([[0.0], np.cumsum(probs)])
    return Stratification(boundaries=edges, probs=probs)


class TestAllocation:
    def test_even_split(self):
        assert proportional_allocation(10, _strat([0.5, 0.5])).tolist() == [5, 5]

    def test_minimum_one_each(self):
        assert proportional_allocation(4, _strat([0.25] * 4)).tolist() == [1, 1, 1, 1]

    def test_remainder_by_fractional_part(self):
        s = build_equal_width_strata(DIFF, 8)
        n = proportional_allocation(100, s)
        raw = 100 * s.probs
        base = np.floor(raw).astype(int)
        order = np.argsort(-(raw - base), kind="stable")
        expected = base.copy()
        expected[order[: 100 - base.sum()]] += 1
        assert n.tolist() == expected.tolist()
        assert n.sum() == 100

    def test_too_small_total(self):
        with pytest.raises(ValueError):
            proportional_allocation(3, _strat([0.25] * 4))

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=50, max_value=500),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_allocation_invariants(self, r, total, seed, min_count):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(r) * 2.0)
        probs = probs / probs.sum()
        s = _strat(probs)
        n = proportional_allocation(total, s, min_count)
        assert np.all(n >= min_count)
        assert int(n.sum()) == total


def _filled_level(counts, means, sds, seed=0, nodes=3):
    """A LevelState holding counts[i] normal draws with the given mean and
    spread in stratum i, recorded as the engine records indicator
    differences, and its stratum probabilities p_i = n_i / N: proportional
    counts."""
    counts = np.asarray(counts)
    rng = np.random.default_rng(seed)
    lv = LevelState(0, counts.size, nodes, 1.0)
    for i, m in enumerate(counts):
        x = rng.normal(means[i], sds[i], (int(m), nodes))
        lv.sum_idiff[i] += x.sum(axis=0)
        lv.sumsq_idiff[i] += (x * x).sum(axis=0)
        lv.n[i] += int(m)
    return lv, counts / counts.sum()


def _between(lv, probs):
    """(1/N) sum_i p_i (mean_i - grand mean)^2, from the level's sums."""
    probs = np.asarray(probs, dtype=float)[:, None]
    means = lv.sum_idiff / lv.n[:, None]
    grand = (probs * means).sum(axis=0)
    return (probs * (means - grand) ** 2).sum(axis=0) / lv.n_total


class TestVarianceReduction:
    """Law of total variance on the engine's level statistics: under
    proportional counts the stratified estimator variance sum_i p_i^2 V_i / n_i
    equals the plain MC variance V / N less the between-strata term."""

    def test_identity_and_inequality(self):
        lv, probs = _filled_level([20, 50, 30], [1.0, 3.0, -1.0], [0.7, 0.45, 0.95])
        v_strat = lv.stratified_estimator_variance(probs)
        v_mc = lv.var_idiff_pooled() / lv.n_total
        assert np.all(v_strat <= v_mc)
        assert np.abs(v_mc - v_strat - _between(lv, probs)).max() < 1e-10

    def test_equality_iff_equal_means(self):
        # every stratum holds the same values: no between-strata variance
        probs = [0.25] * 4
        lv = LevelState(0, 4, 2, 1.0)
        x = np.array([[0.3, -1.0], [2.0, 0.5], [1.1, 0.0]])
        for i in range(4):
            lv.sum_idiff[i] += x.sum(axis=0)
            lv.sumsq_idiff[i] += (x * x).sum(axis=0)
            lv.n[i] += x.shape[0]
        assert lv.stratified_estimator_variance(probs) == pytest.approx(
            lv.var_idiff_pooled() / lv.n_total, abs=1e-14
        )

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_inequality_random_stats(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(2, 6))
        lv, probs = _filled_level(rng.integers(2, 50, r), rng.normal(size=r),
                                  rng.uniform(0.0, 1.5, r), seed)
        v_strat = lv.stratified_estimator_variance(probs)
        v_mc = lv.var_idiff_pooled() / lv.n_total
        assert np.all(v_strat <= v_mc + 1e-12)

    def test_single_sample_variance_zeroed(self):
        lv = LevelState(0, 2, 3, 1.0)
        x = np.array([0.4, -2.0, 1.0])
        lv.sum_idiff[1] += x
        lv.sumsq_idiff[1] += x * x
        lv.n[1] += 1
        assert np.array_equal(lv.var_idiff(), np.zeros((2, 3)))
