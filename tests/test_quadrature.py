import math

import numpy as np
import pytest

from proxsamp import (
    QuadratureDensity,
    kl_divergence,
    make_gaussian,
    make_l1,
    make_power_norm,
    make_quad_plus_l1,
    modified_gaussian_ratio,
)


class TestDensityBuild:
    def test_laplace_normalizer(self):
        q = QuadratureDensity.build(make_l1(1, 1.0).value, 1)
        assert math.exp(q.log_z) == pytest.approx(2.0, rel=1e-9)
        assert q.truncation_error < 1e-8

    def test_gaussian_normalizer(self):
        q = QuadratureDensity.build(make_gaussian(1, (1.0,)).value, 1)
        assert math.exp(q.log_z) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-10)

    def test_2d_gaussian_normalizer(self):
        q = QuadratureDensity.build(make_gaussian(2, (1.0, 2.0)).value, 2)
        assert math.exp(q.log_z) == pytest.approx(2 * math.pi / math.sqrt(2.0), rel=1e-9)

    @pytest.mark.parametrize(
        "pot,dim",
        [
            (make_l1(1, 1.0), 1),
            (make_gaussian(1, (1.0,)), 1),
            (make_quad_plus_l1(1, (1.0,), 1.0), 1),
            (make_power_norm(1, 0.5, 1.0), 1),
        ],
    )
    def test_halving_self_consistency_1d(self, pot, dim):
        q1 = QuadratureDensity.build(pot.value, dim)
        q2 = QuadratureDensity.build(pot.value, dim, n_points=16385)
        assert abs(math.exp(q1.log_z - q2.log_z) - 1.0) < 1e-7

    def test_halving_self_consistency_2d(self):
        pot = make_quad_plus_l1(2, (1.0, 1.0), 1.0)
        q1 = QuadratureDensity.build(pot.value, 2)
        q2 = QuadratureDensity.build(pot.value, 2, n_points=1281)
        assert abs(math.exp(q1.log_z - q2.log_z) - 1.0) < 1e-7

    def test_density_integrates_to_one(self):
        from proxsamp.quadrature import _simpson_weights

        q = QuadratureDensity.build(make_l1(1, 1.0).value, 1)
        x = q.axes[0]
        total = float(np.sum(_simpson_weights(x.size) * q.density)) * (x[1] - x[0])
        assert total == pytest.approx(1.0, abs=1e-12)
        # trapezoid cross-check carries its own O(h^2) error budget
        assert np.trapezoid(q.density, x) == pytest.approx(1.0, abs=1e-4)

    def test_cdf_monotone_and_normalized(self):
        q = QuadratureDensity.build(make_l1(1, 1.0).value, 1)
        assert q.cdf[0] == 0.0
        assert q.cdf[-1] == pytest.approx(1.0)
        assert np.all(np.diff(q.cdf) >= 0)
        assert q.cdf_at(0.0) == pytest.approx(0.5, abs=1e-9)

    def test_quantile_inverts_cdf(self):
        q = QuadratureDensity.build(make_gaussian(1, (1.0,)).value, 1)
        for u in (0.05, 0.3, 0.5, 0.9):
            assert q.cdf_at(q.quantile(u)) == pytest.approx(u, abs=1e-9)

    def test_moments_laplace(self):
        q = QuadratureDensity.build(make_l1(1, 1.0).value, 1)
        assert q.moment(lambda x: float(x[0]) ** 2) == pytest.approx(2.0, rel=1e-7)
        assert q.moment(lambda x: float(x[0]) ** 4) == pytest.approx(24.0, rel=1e-6)

    def test_unsupported_dim(self):
        with pytest.raises(ValueError):
            QuadratureDensity.build(lambda x: float(x @ x), 3)

    def test_kl_divergence_between_gaussians(self):
        # KL(N(0, 1) || N(0, 4)) = 0.5 (1/4 + ln 4 - 1)
        q = QuadratureDensity.build(make_gaussian(1, (0.25,)).value, 1)

        def logpdf0(x):
            return -0.5 * float(x[0]) ** 2 - 0.5 * math.log(2 * math.pi)

        expected = 0.5 * (0.25 + math.log(4.0) - 1.0)
        assert kl_divergence(logpdf0, q) == pytest.approx(expected, abs=1e-8)


class TestModifiedGaussianIntegral:
    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_a_zero_closed_form(self, d):
        eta = 0.37
        # with a = 0 the integral is the Gaussian one, (2 pi eta)^(d/2)
        assert modified_gaussian_ratio(0.5, eta, 0.0, d) == pytest.approx(2.0, rel=1e-8)

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_alpha_one_closed_form(self, d):
        eta, a = 0.5, 0.7
        # the integral is (2 pi / (1/eta + 2a))^(d/2)
        val = modified_gaussian_ratio(1.0, eta, a, d)
        assert val == pytest.approx(2.0 * (1.0 + 2.0 * a * eta) ** (-d / 2.0), rel=1e-8)

    def test_boundary_point_value(self):
        # alpha=0, d=1, eta=1, a=0.5 sits exactly on the admissibility
        # boundary; the integral is 2 e^(1/8) sqrt(2 pi) (1 - Phi(1/2)) by the
        # error-function closed form
        val = modified_gaussian_ratio(0.0, 1.0, 0.5, 1)
        from scipy.special import ndtr

        expected = 4 * math.exp(0.125) * (1 - ndtr(0.5))
        assert val == pytest.approx(expected, rel=1e-8)
        assert val >= 1.0

    def test_ratio_at_a_zero_is_two(self):
        assert modified_gaussian_ratio(0.25, 0.8, 0.0, 7) == pytest.approx(2.0, rel=1e-8)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            modified_gaussian_ratio(0.5, -1.0, 0.0, 2)
        with pytest.raises(ValueError):
            modified_gaussian_ratio(0.5, 1.0, -0.1, 2)
        with pytest.raises(ValueError):
            modified_gaussian_ratio(0.5, 1.0, 0.0, 0)

    def test_large_dimension_stable(self):
        # the log-space route must not overflow where the direct form would;
        # a sits just inside the admissibility boundary, so the bound holds
        eta, d = 1e-3, 500
        a = 0.999 * 0.5 / math.sqrt(eta * d)
        ratio = modified_gaussian_ratio(0.0, eta, a, d)
        assert 1.0 - 1e-6 <= ratio <= 2.0
