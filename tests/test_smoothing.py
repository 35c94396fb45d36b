import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import integrate
from scipy.special import ndtr

from smlmc import smoothing
from smlmc.config import preset
from smlmc.estimators import CALIBRATION_FRACTION
from smlmc.inputs import substream
from smlmc.smoothing import (
    GAUSSIAN_CDF,
    SMOOTHERS,
    GaussianKernelCdf,
    _build_pilot,
    _discrepancy_bound,
    _silverman,
    build_giles_polynomial,
    calibrate_bandwidth,
    calibration_discrepancy,
)


def gl48_discrepancy(smoother, samples, nodes, deltas):
    """Oracle: the discrepancy with GL-48 quadrature at every bandwidth for
    the polynomial kernel, and the KDE kernel's closed form with the pilot
    CDF computed at each call: each kernel's exact form, with no series."""
    samples = np.asarray(samples, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    h = _silverman(samples)
    d = np.broadcast_to(np.asarray(deltas, dtype=float), nodes.shape)
    if isinstance(smoother, GaussianKernelCdf):
        pilot_cdf = ndtr((nodes[:, None] - samples[None, :]) / h).mean(axis=1)
        eff = np.sqrt(d * d + h * h)
        smoothed = ndtr((nodes[:, None] - samples[None, :]) / eff[:, None]).mean(axis=1)
        return np.abs(smoothed - pilot_cdf)
    return smoother.exact_discrepancy(samples, nodes, d, h)


def full_scan_calibration(smoother, samples, nodes, eps, bracket_top, target_fraction,
                          discrepancy=gl48_discrepancy):
    """Oracle: the bracketed root search that scans all of the calibration's
    scan points, bisects every node that crosses at any step to the
    calibration's tolerance, evaluating all nodes at each bisection point,
    and returns the smallest root."""
    samples = np.asarray(samples, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    spread = float(samples.max() - samples.min())
    if spread <= 0:
        spread = max(abs(float(samples[0])), 1.0) * 1e-3
    lo = 1e-6 * spread
    hi = min(spread, float(bracket_top))
    if hi <= lo:
        return float(hi if hi > 0 else bracket_top)
    target = target_fraction * eps
    grid = np.exp(np.linspace(np.log(lo), np.log(hi), smoothing._SCAN_POINTS))
    roots = np.full(nodes.size, np.inf)
    found = np.zeros(nodes.size, dtype=bool)
    prev = discrepancy(smoother, samples, nodes, grid[0])
    for g in grid[1:]:
        cur = discrepancy(smoother, samples, nodes, g)
        newly = ~found & (prev < target) & (cur >= target)
        if newly.any():
            b_lo = np.where(newly, np.log(g / (grid[1] / grid[0])), 0.0)
            b_hi = np.where(newly, np.log(g), 0.0)
            while np.any((b_hi - b_lo)[newly] > smoothing._REL_TOL):
                mid = 0.5 * (b_lo + b_hi)
                below = discrepancy(smoother, samples, nodes, np.exp(mid)) < target
                b_lo = np.where(below, mid, b_lo)
                b_hi = np.where(below, b_hi, mid)
            roots = np.where(newly, np.exp(b_lo), roots)
            found |= newly
        prev = cur
    if not found.any():
        return float(hi)
    return float(roots[found].min())


def poly_moment(coeffs, k):
    """Exact integral of s^k p(s) over [-1, 1] for an ascending-coefficient poly."""
    return sum(
        c * (2.0 / (k + j + 1) if (k + j) % 2 == 0 else 0.0)
        for j, c in enumerate(coeffs)
    )


class TestGilesPolynomial:
    def test_degree_zero_and_one_are_linear_ramp(self):
        for d in (0, 1):
            poly = build_giles_polynomial(d)
            s = np.linspace(-1, 1, 101)
            assert np.abs(poly(s) - (1.0 - s) / 2.0).max() < 1e-12

    def test_degree_three_known_coefficients(self):
        # hand solve of the five-condition system: 1/2 - (9/8) s + (5/8) s^3
        poly = build_giles_polynomial(3)
        expected = np.array([0.5, -1.125, 0.0, 0.625, 0.0])
        assert np.allclose(poly.coeffs, expected, atol=1e-12)

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_conditions_hold(self, d):
        poly = build_giles_polynomial(d)
        assert abs(poly(1.0)) < 1e-10
        assert abs(poly(-1.0) - 1.0) < 1e-10
        for k in range(d):
            assert abs(poly_moment(poly.coeffs, k) - (-1.0) ** k / (k + 1)) < 1e-10

    def test_extension_constants(self):
        poly = build_giles_polynomial(3)
        assert poly(-2.0) == 1.0
        assert poly(2.0) == 0.0
        assert np.array_equal(poly(np.array([-5.0, 5.0])), [1.0, 0.0])

    def test_midpoint_linear_case(self):
        assert build_giles_polynomial(1)(0.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_covers_unit_interval(self, d):
        s = np.linspace(-1, 1, 2001)
        v = build_giles_polynomial(d)(s)
        assert v.min() <= 1e-12 and v.max() >= 1.0 - 1e-12

    @pytest.mark.parametrize("d", [0, 1])
    def test_monotone_nonincreasing_low_degree(self, d):
        s = np.linspace(-1.5, 1.5, 400)
        v = build_giles_polynomial(d)(s)
        assert np.all(np.diff(v) <= 1e-14)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            build_giles_polynomial(-1)


def phi(s):
    """The KDE kernel's Phi over the values s, by paired at Q = 0 and
    delta = 1, where (q - Q) / delta is s exactly."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return GAUSSIAN_CDF.paired(np.zeros_like(s), s, 1.0)


class TestGaussianCdf:
    def test_center(self):
        assert phi(0.0).tolist() == [0.5]

    def test_limits(self):
        assert phi(40.0)[0] == pytest.approx(1.0, abs=1e-15)
        assert phi(-40.0)[0] == pytest.approx(0.0, abs=1e-15)

    def test_quantile_value(self):
        assert phi(1.959964)[0] == pytest.approx(0.975, abs=1e-6)

    @given(st.floats(min_value=-6, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, s):
        assert abs(phi(-s)[0] - (1.0 - phi(s)[0])) < 1e-14

    def test_monotone(self):
        s = np.linspace(-9, 9, 500)
        assert np.all(np.diff(phi(s)) >= 0)


def pair_term(smoother, delta, q_node, fine, coarse=None):
    """One pair's smoothed level term at one node, through the kernel's
    dense values matrix."""
    term = smoother.values(np.array([fine]), np.array([q_node]), delta)[0, 0]
    if coarse is not None:
        term -= smoother.values(np.array([coarse]), np.array([q_node]), delta)[0, 0]
    return term


class TestSmoothedTerm:
    def test_saturated_below_node(self):
        for smoother in (build_giles_polynomial(3), GAUSSIAN_CDF):
            assert pair_term(smoother, 1.0, 0.0, -10.0) == pytest.approx(1.0, abs=1e-12)

    def test_telescoping_cancellation(self):
        for smoother in (build_giles_polynomial(3), GAUSSIAN_CDF):
            assert pair_term(smoother, 0.7, 3.0, 3.2, 3.2) == 0.0

    def test_linear_ramp_hand_value(self):
        # g(s) = (1 - s)/2: g(0.5) - g(-0.5) = 0.25 - 0.75
        poly = build_giles_polynomial(1)
        assert pair_term(poly, 1.0, 0.0, 0.5, -0.5) == pytest.approx(-0.5)

    def test_orientations_agree_on_sign(self):
        # both kernels approach the indicator 1{Q <= q}
        for smoother in (build_giles_polynomial(3), GAUSSIAN_CDF):
            near_one = pair_term(smoother, 0.05, 2.0, 1.0)
            near_zero = pair_term(smoother, 0.05, 0.0, 1.0)
            assert near_one > 0.99 and near_zero < 0.01

    def test_delta_to_zero_recovers_indicator(self):
        q = 1.0  # fine above, coarse below: indicator difference is -1
        for smoother in (build_giles_polynomial(3), GAUSSIAN_CDF):
            val = pair_term(smoother, 1e-6, q, 1.3, 0.7)
            assert val == pytest.approx(-1.0, abs=1e-9)


class TestCalibration:
    def test_symmetric_samples_cap_at_bracket_top(self):
        # {-1, +1} around the only node: the discrepancy vanishes identically
        # for every bandwidth (odd symmetry of both kernels), so the search
        # caps at the bracket top
        samples = np.array([-1.0, 1.0])
        nodes = np.array([0.0])
        poly = build_giles_polynomial(1)
        delta = calibrate_bandwidth(poly, samples, nodes, eps=0.01, bracket_top=5.0,
                                    target_fraction=0.25)
        scan = np.exp(np.linspace(np.log(2e-6), np.log(2.0), 200))
        disc = np.array([
            calibration_discrepancy(poly, samples, nodes, d)[0] for d in scan
        ])
        assert disc.max() < 0.005  # never reaches the target anywhere
        assert delta == pytest.approx(min(2.0, 5.0))

    def test_root_matches_grid_scan_oracle(self):
        rng = np.random.default_rng(1)
        samples = np.sort(rng.normal(size=40)) * 2.0 + 0.3
        nodes = np.linspace(-3.0, 3.0, 7)
        eps = 0.02
        for smoother in (build_giles_polynomial(3), GAUSSIAN_CDF):
            delta = calibrate_bandwidth(
                smoother, samples, nodes, eps, bracket_top=np.inf,
                target_fraction=0.5,
            )
            # oracle: dense log-grid scan for each node's first crossing of
            # eps/2, independently of the bisection path
            spread = samples.max() - samples.min()
            grid = np.exp(np.linspace(np.log(1e-6 * spread), np.log(spread), 4000))
            roots = []
            for q in nodes:
                # the pilot does not depend on delta: build it once per node
                node = np.array([q])
                pilot = _build_pilot(smoother, samples, node)
                disc = np.array([
                    calibration_discrepancy(smoother, samples, node, d, pilot)[0]
                    for d in grid
                ])
                crossing = np.nonzero(disc >= 0.5 * eps)[0]
                if crossing.size and crossing[0] > 0:
                    roots.append(grid[crossing[0] - 1])
            expected = min(roots)
            assert delta == pytest.approx(expected, rel=2e-2)

    def test_plugback_consistency(self):
        # the returned bandwidth keeps the discrepancy within the budget
        # target at every node
        rng = np.random.default_rng(5)
        samples = rng.normal(size=80) * 1.5
        nodes = np.linspace(-4.0, 4.0, 17)
        eps = 0.01
        for smoother in (build_giles_polynomial(3), GAUSSIAN_CDF):
            delta = calibrate_bandwidth(smoother, samples, nodes, eps,
                                        bracket_top=np.inf, target_fraction=0.25)
            disc = calibration_discrepancy(smoother, samples, nodes, delta)
            assert disc.max() <= eps / 2.0 + 1e-8   # paper budget target
            assert disc.max() <= 0.25 * eps + 1e-8  # configured target

    def test_bracket_top_caps(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=60)
        nodes = np.linspace(-2, 2, 9)
        delta = calibrate_bandwidth(GAUSSIAN_CDF, samples, nodes, eps=0.01,
                                    bracket_top=0.05, target_fraction=0.25)
        assert delta <= 0.05 + 1e-12

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            calibrate_bandwidth(GAUSSIAN_CDF, np.array([]), np.array([0.0]), 0.01,
                                np.inf, 0.25)

    def test_tighter_tolerance_means_smaller_bandwidth(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=200) * 2.0
        nodes = np.linspace(-4, 4, 17)
        d_loose = calibrate_bandwidth(GAUSSIAN_CDF, samples, nodes, eps=0.02,
                                      bracket_top=np.inf, target_fraction=0.25)
        d_tight = calibrate_bandwidth(GAUSSIAN_CDF, samples, nodes, eps=0.005,
                                      bracket_top=np.inf, target_fraction=0.25)
        assert d_tight < d_loose


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestKernelValues:
    """values() works in place; it must give the bits of the plain
    polyval / where and clip / ndtr expressions, signed zeros included."""

    @given(st.integers(0, 6), st.integers(0, 2**32 - 1), st.integers(1, 60),
           st.integers(1, 30), st.floats(1e-6, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_plain_expressions(self, d, seed, n_qoi, n_nodes, delta):
        rng = np.random.default_rng(seed)
        qoi = np.r_[rng.normal(size=n_qoi) * 3.0, -1.0, 1.0, 0.0]
        nodes = np.r_[np.linspace(-4.0, 4.0, n_nodes), 0.0]
        kept = qoi.copy(), nodes.copy()
        poly = build_giles_polynomial(d)
        s = (qoi[:, None] - nodes[None, :]) / delta
        inner = np.polynomial.polynomial.polyval(np.clip(s, -1.0, 1.0), poly.coeffs)
        expected = np.where(s < -1.0, 1.0, np.where(s > 1.0, 0.0, inner))
        assert np.array_equal(_bits(poly.values(qoi, nodes, delta)), _bits(expected))
        assert np.array_equal(_bits(poly(s)), _bits(expected))
        expected = ndtr(np.clip((nodes[None, :] - qoi[:, None]) / delta, -8.0, 8.0))
        assert np.array_equal(_bits(GAUSSIAN_CDF.values(qoi, nodes, delta)),
                              _bits(expected))
        # the inputs are not overwritten
        assert np.array_equal(qoi, kept[0]) and np.array_equal(nodes, kept[1])

    def test_scalar_and_shape(self):
        poly = build_giles_polynomial(3)
        assert isinstance(poly(0.25), float)
        s = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        assert poly(s).shape == (3, 4)
        assert np.array_equal(poly(s).ravel(), poly(s.ravel()))


class TestDiscrepancySeries:
    """Each kernel's discrepancy series against its exact form: GL-48 for the
    polynomial kernel, the closed form for the KDE kernel."""

    @staticmethod
    def _case(seed, n, scale):
        # GL-48 forms q + delta s at the magnitude of the nodes, so its own
        # rounding grows with |q| / h (two close samples at 1 put it near
        # 1000 and GL-48 off by 1e-14); samples centred on 0 keep |q| / h
        # below about 20 and the reference near 1e-15
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=n) * scale
        samples -= samples.mean()
        h = _silverman(samples)
        # nodes within a few pilot bandwidths of the data, plus one 1e6 h
        # away from every sample
        nodes = np.r_[rng.uniform(samples.min() - 3 * h, samples.max() + 3 * h, 6),
                      samples.max() + 1e6 * h]
        return rng, samples, nodes, h

    @given(st.sampled_from([1, 2, 3, 5]), st.integers(0, 2**32 - 1),
           st.integers(2, 200), st.floats(0.05, 5.0), st.floats(-7.0, 0.0))
    @settings(max_examples=150, deadline=None)
    def test_series_matches_quadrature(self, d, seed, n, scale, log_r):
        rng, samples, nodes, h = self._case(seed, n, scale)
        poly = build_giles_polynomial(d)
        # per-node r in [1e-7, 1]; the last node takes the drawn value
        r = np.r_[10.0 ** rng.uniform(-7.0, 0.0, nodes.size - 1), 10.0 ** log_r]
        series = calibration_discrepancy(poly, samples, nodes, r * h)
        assert np.all(np.isfinite(series))
        quad = gl48_discrepancy(poly, samples, nodes, r * h)
        assert np.abs(series - quad).max() <= 1e-14

    @given(st.integers(0, 2**32 - 1), st.integers(2, 200), st.floats(0.05, 5.0),
           st.floats(-7.0, np.log10(0.5)))
    @settings(max_examples=150, deadline=None)
    def test_kde_series_matches_closed_form(self, seed, n, scale, log_r):
        # a tolerance, not the closed form's bits: at r = 1e-5 its two means
        # of normal CDFs cancel to near 1e-11 and keep their rounding, near
        # 1e-16, which the series does not share
        rng, samples, nodes, h = self._case(seed, n, scale)
        # per-node r in [1e-7, 0.5]; the last node takes the drawn value
        r = np.r_[10.0 ** rng.uniform(-7.0, np.log10(0.5), nodes.size - 1), 10.0 ** log_r]
        series = calibration_discrepancy(GAUSSIAN_CDF, samples, nodes, r * h)
        assert np.all(np.isfinite(series))
        closed = gl48_discrepancy(GAUSSIAN_CDF, samples, nodes, r * h)
        assert np.abs(series - closed).max() <= 1e-14

    def test_kde_switch_at_r_half(self):
        _, samples, nodes, h = self._case(11, 80, 1.5)
        below = calibration_discrepancy(GAUSSIAN_CDF, samples, nodes, (0.5 - 1e-12) * h)
        above = calibration_discrepancy(GAUSSIAN_CDF, samples, nodes, (0.5 + 1e-12) * h)
        closed_below = gl48_discrepancy(GAUSSIAN_CDF, samples, nodes, (0.5 - 1e-12) * h)
        closed_above = gl48_discrepancy(GAUSSIAN_CDF, samples, nodes, (0.5 + 1e-12) * h)
        assert np.abs(below - closed_below).max() <= 1e-14
        # above r = 0.5 the closed form itself runs
        assert np.array_equal(above, closed_above)
        assert np.abs(above - below).max() <= 1e-10

    def test_gaussian_moments_match_quadrature(self):
        # mu_m = int (Phi(-s) - 1{s < 0}) s^m ds by adaptive quadrature on
        # each half line, against the closed form m!! / (m + 1) at odd m
        weights = GAUSSIAN_CDF.series_moments
        for m in range(weights.size):
            mu = (integrate.quad(lambda s: ndtr(-s) * s**m, 0.0, np.inf,
                                 epsabs=0, limit=200)[0]
                  + integrate.quad(lambda s: -ndtr(s) * s**m, -np.inf, 0.0,
                                   epsabs=0, limit=200)[0])
            expected = (-1.0) ** m * mu / math.factorial(m)
            if m % 2 == 0:
                assert weights[m] == 0.0 and abs(expected) < 1e-12
            else:
                assert weights[m] == pytest.approx(expected, rel=1e-9)

    def test_far_node_is_exactly_zero(self):
        _, samples, nodes, h = self._case(3, 50, 1.0)
        for smoother in (build_giles_polynomial(3), GAUSSIAN_CDF):
            disc = calibration_discrepancy(smoother, samples, nodes[-1:], 0.5 * h)
            assert disc[0] == 0.0

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_switch_at_r_one(self, d):
        _, samples, nodes, h = self._case(11, 80, 1.5)
        poly = build_giles_polynomial(d)
        below = calibration_discrepancy(poly, samples, nodes, (1.0 - 1e-12) * h)
        above = calibration_discrepancy(poly, samples, nodes, (1.0 + 1e-12) * h)
        quad_below = gl48_discrepancy(poly, samples, nodes, (1.0 - 1e-12) * h)
        quad_above = gl48_discrepancy(poly, samples, nodes, (1.0 + 1e-12) * h)
        assert np.abs(below - quad_below).max() <= 1e-14
        # above r = 1 the quadrature itself runs
        assert np.array_equal(above, quad_above)
        assert np.abs(above - below).max() <= 1e-10

    def test_mixed_nodes_match_single_node_calls(self):
        # per-node bandwidths on both sides of r = 1 and of r = 0.5: each
        # node's value does not depend on the path the other nodes take
        _, samples, nodes, h = self._case(5, 60, 2.0)
        deltas = h * np.array([0.3, 1.7, 1.0, 2.5, 1e-5, 0.99, 0.5])
        for smoother in (build_giles_polynomial(3), GAUSSIAN_CDF):
            together = calibration_discrepancy(smoother, samples, nodes, deltas)
            alone = [calibration_discrepancy(smoother, samples, nodes[i:i + 1],
                                             deltas[i])[0]
                     for i in range(nodes.size)]
            assert np.array_equal(together, alone)

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 5])
    def test_kernel_moments_vanish_below_d(self, d):
        weights = build_giles_polynomial(d).series_moments
        assert np.all(np.abs(weights[:d]) < 1e-15)
        # g(s) - 1{s < 0} is odd about 0, so only odd orders survive
        assert np.abs(weights[0::2]).max() < 1e-15
        assert np.abs(weights[d:d + 2]).max() > 1e-6


class TestCalibrationSearch:
    """calibrate_bandwidth against the full-scan oracle."""

    @staticmethod
    def _case(crossing):
        rng = np.random.default_rng(1)
        samples = np.sort(rng.normal(size=40)) * 2.0 + 0.3
        nodes = np.linspace(-3.0, 3.0, 7)
        # eps 0.02 at target fraction 0.5 crosses at every node; eps 2 never
        return samples, nodes, (0.02 if crossing else 2.0)

    @pytest.mark.parametrize("crossing", [True, False])
    @pytest.mark.parametrize("kernel", ["giles", "kde"])
    def test_equals_full_scan_oracle(self, crossing, kernel):
        smoother = build_giles_polynomial(3) if kernel == "giles" else GAUSSIAN_CDF
        samples, nodes, eps = self._case(crossing)
        delta = calibrate_bandwidth(smoother, samples, nodes, eps, np.inf, 0.5)
        expected = full_scan_calibration(smoother, samples, nodes, eps, np.inf, 0.5)
        assert delta == expected
        spread = samples.max() - samples.min()
        assert (delta < spread) == crossing

    @given(st.integers(0, 2**32 - 1), st.integers(5, 120), st.integers(4, 30),
           st.floats(-3.0, -0.5), st.floats(0.1, 0.5),
           st.sampled_from([np.inf, 0.3, 2.0]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_early_exit_same_bits_as_full_scan(self, seed, n, n_nodes, log_eps,
                                                fraction, top, giles):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=n) * rng.uniform(0.2, 3.0)
        nodes = np.linspace(-4.0, 4.0, n_nodes)
        smoother = build_giles_polynomial(3) if giles else GAUSSIAN_CDF
        eps = 10.0 ** log_eps
        delta = calibrate_bandwidth(smoother, samples, nodes, eps, top, fraction)
        expected = full_scan_calibration(smoother, samples, nodes, eps, top, fraction,
                                         discrepancy=calibration_discrepancy)
        assert delta == expected

    def test_bisects_only_crossed_nodes(self, monkeypatch):
        # a burgers-like level: 101 nodes at spacing 0.5, capped there
        rng = np.random.default_rng(4)
        samples = rng.normal(30.0, 4.0, size=50)
        nodes = np.linspace(15.0, 65.0, 101)
        calls = []
        inner = smoothing.calibration_discrepancy

        def counting(smoother, samples, nodes, deltas, pilot=None):
            calls.append(np.size(nodes))
            return inner(smoother, samples, nodes, deltas, pilot)

        def no_quadrature(*args):
            raise AssertionError("GL-48 ran below r = 1")

        monkeypatch.setattr(smoothing, "calibration_discrepancy", counting)
        monkeypatch.setattr(smoothing.GilesPolynomial, "exact_discrepancy", no_quadrature)
        poly = build_giles_polynomial(3)
        # the presets' tolerances never cross below the node spacing; a
        # ten-thousandth of them crosses halfway up the scan
        delta = calibrate_bandwidth(poly, samples, nodes, 1e-6, bracket_top=0.5,
                                    target_fraction=0.15)
        assert delta < 0.5  # some node crossed
        scans = [c for c in calls if c == nodes.size]
        bisections = calls[len(scans):]
        assert bisections and max(bisections) < nodes.size
        assert len(scans) < 40  # the scan stopped at the first crossing


def _slack(bound):
    """The bound with the rounding allowance the certificate adds to it."""
    return bound * (1.0 + smoothing._BOUND_REL) + smoothing._BOUND_ABS


class TestDiscrepancyBound:
    """The certificate of calibrate_bandwidth: an upper bound on the
    discrepancy over every bandwidth up to the bracket top, which lets the
    search return the top without scanning."""

    @staticmethod
    def _case(seed, n, n_nodes):
        rng = np.random.default_rng(seed)
        return rng.normal(size=n) * rng.uniform(0.2, 3.0), np.linspace(-4.0, 4.0, n_nodes)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 120), st.integers(3, 30),
           st.floats(0.01, 1.0), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bounds_the_discrepancy_up_to_r_top(self, seed, n, n_nodes, frac, kde):
        samples, nodes = self._case(seed, n, n_nodes)
        smoother = GAUSSIAN_CDF if kde else build_giles_polynomial(3)
        r_top = frac * smoother.series_max_ratio
        pilot = _build_pilot(smoother, samples, nodes)
        bound = _discrepancy_bound(smoother, pilot, r_top)
        for r in np.linspace(0.05, 1.0, 20) * r_top:
            disc = calibration_discrepancy(smoother, samples, nodes, r * pilot.h, pilot)
            assert np.all(disc <= _slack(bound))

    @pytest.mark.parametrize("kde", [True, False], ids=["kde", "giles"])
    def test_no_bound_beyond_its_range(self, kde):
        samples, nodes = self._case(0, 30, 5)
        smoother = GAUSSIAN_CDF if kde else build_giles_polynomial(3)
        top = smoother.series_max_ratio
        pilot = _build_pilot(smoother, samples, nodes)
        assert _discrepancy_bound(smoother, pilot, top) is not None
        assert _discrepancy_bound(smoother, pilot, np.nextafter(top, 2)) is None

    # bracket tops at r_top = top / h either side of the bounds' limits 0.5
    # (KDE) and 1 (polynomial), and targets either side of the bound there
    @given(st.integers(0, 2**32 - 1), st.integers(5, 120), st.integers(4, 30),
           st.booleans(), st.floats(-0.05, 0.05), st.floats(-0.3, 0.3))
    @settings(max_examples=80, deadline=None)
    def test_certified_search_same_bits_as_full_scan(self, seed, n, n_nodes, kde,
                                                     offset, log_factor):
        samples, nodes = self._case(seed, n, n_nodes)
        smoother = GAUSSIAN_CDF if kde else build_giles_polynomial(3)
        pilot = _build_pilot(smoother, samples, nodes)
        top = (smoother.series_max_ratio + offset) * pilot.h
        r_top = min(top, samples.max() - samples.min()) / pilot.h
        bound = _discrepancy_bound(smoother, pilot, r_top)
        if bound is None:
            bound = calibration_discrepancy(smoother, samples, nodes, r_top * pilot.h, pilot)
        eps = max(float(bound.max()), 1e-12) * 10.0**log_factor / 0.25
        delta = calibrate_bandwidth(smoother, samples, nodes, eps, top, 0.25)
        expected = full_scan_calibration(smoother, samples, nodes, eps, top, 0.25,
                                         discrepancy=calibration_discrepancy)
        assert delta == expected

    @pytest.mark.parametrize("kde", [True, False], ids=["kde", "giles"])
    def test_burgers_preset_warmups_need_no_scan(self, monkeypatch, kde):
        # the warmups of 50 at the Burgers preset's first levels, tolerances
        # and node spacing: every calibration is certified at the bracket top
        calls = []
        monkeypatch.setattr(smoothing, "calibration_discrepancy",
                            lambda *args: calls.append(args))
        exp = preset("burgers")
        model, dist, hier, grid = (exp.model_spec(), exp.distribution(), exp.hierarchy(),
                                   exp.node_grid())
        smoother = SMOOTHERS["kde" if kde else "giles"]
        for level in range(3):
            fine = model.qoi_batch(dist.inverse_cdf(substream(0, level, 0).random(50)),
                                   hier.cells(level))
            for eps in exp.eps_values:
                delta = calibrate_bandwidth(smoother, fine, grid.nodes, eps, grid.h,
                                            CALIBRATION_FRACTION)
                assert delta == grid.h
        assert not calls
