import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smlmc.smoothing import (
    GAUSSIAN_CDF,
    build_giles_polynomial,
    calibrate_bandwidth,
    calibration_discrepancy,
)


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


class TestGaussianCdf:
    def test_center(self):
        assert GAUSSIAN_CDF(0.0) == 0.5

    def test_limits(self):
        assert GAUSSIAN_CDF(40.0) == pytest.approx(1.0, abs=1e-15)
        assert GAUSSIAN_CDF(-40.0) == pytest.approx(0.0, abs=1e-15)

    def test_quantile_value(self):
        assert GAUSSIAN_CDF(1.959964) == pytest.approx(0.975, abs=1e-6)

    @given(st.floats(min_value=-6, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, s):
        assert abs(GAUSSIAN_CDF(-s) - (1.0 - GAUSSIAN_CDF(s))) < 1e-14

    def test_monotone(self):
        s = np.linspace(-9, 9, 500)
        assert np.all(np.diff(GAUSSIAN_CDF(s)) >= 0)


def pair_term(smoother, delta, q_node, fine, coarse=None):
    """One pair's smoothed level term at one node, through the kernel's
    values matrix as the engine evaluates it."""
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
        delta = calibrate_bandwidth(poly, samples, nodes, eps=0.01, bracket_top=5.0)
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
                disc = np.array([
                    calibration_discrepancy(smoother, samples, np.array([q]), d)[0]
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
                                        bracket_top=np.inf)
            disc = calibration_discrepancy(smoother, samples, nodes, delta)
            assert disc.max() <= eps / 2.0 + 1e-8   # paper budget target
            assert disc.max() <= 0.25 * eps + 1e-8  # configured target

    def test_bracket_top_caps(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=60)
        nodes = np.linspace(-2, 2, 9)
        delta = calibrate_bandwidth(GAUSSIAN_CDF, samples, nodes, eps=0.01,
                                    bracket_top=0.05)
        assert delta <= 0.05 + 1e-12

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            calibrate_bandwidth(GAUSSIAN_CDF, np.array([]), np.array([0.0]), 0.01)

    def test_tighter_tolerance_means_smaller_bandwidth(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=200) * 2.0
        nodes = np.linspace(-4, 4, 17)
        d_loose = calibrate_bandwidth(GAUSSIAN_CDF, samples, nodes, eps=0.02,
                                      bracket_top=np.inf)
        d_tight = calibrate_bandwidth(GAUSSIAN_CDF, samples, nodes, eps=0.005,
                                      bracket_top=np.inf)
        assert d_tight < d_loose
