import hashlib
import math

import numpy as np
import pytest

from proxsamp import (
    ProxObjective,
    QuadratureDensity,
    RegularizedTarget,
    default_zoo,
    kl_divergence,
    make_gaussian,
    make_hinge_sum,
    make_l1,
    make_power_norm,
    make_quad_plus_l1,
    modified_gaussian_ratio,
)
from proxsamp.potentials import takes_rows


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
        q = QuadratureDensity.build(make_l1(1, 1.0).value, 1)
        x = q.axes[0]
        assert q.moment(lambda _: 1.0) == pytest.approx(1.0, abs=1e-12)
        # trapezoid cross-check carries its own O(h^2) error budget
        assert np.trapezoid(q.density, x) == pytest.approx(1.0, abs=1e-4)

    def test_cdf_monotone_and_normalized(self):
        q = QuadratureDensity.build(make_l1(1, 1.0).value, 1)
        assert q.cdf[0] == 0.0
        assert q.cdf[-1] == pytest.approx(1.0)
        assert np.all(np.diff(q.cdf) >= 0)
        assert q.cdf_at(0.0) == pytest.approx(0.5, abs=1e-9)

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

    def test_kl_divergence_between_gaussians_2d(self):
        # KL(N(0, I) || N(0, diag(1/p))) = 0.5 sum_i (p_i - 1 - ln p_i)
        p = (0.25, 2.0)
        q = QuadratureDensity.build(make_gaussian(2, p).value, 2, n_points=321)

        def logpdf0(x):
            return -0.5 * float(x @ x) - math.log(2 * math.pi)

        # Simpson's O(h^4) error at 321 points per axis is ~6e-7
        expected = 0.5 * sum(pi - 1.0 - math.log(pi) for pi in p)
        assert kl_divergence(logpdf0, q) == pytest.approx(expected, abs=2e-6)

    def test_lattice_missing_mass_is_refused(self):
        # hinges along (1, 1) and, 20x flatter, along (1, -1): the box
        # bracketed on the coordinate axes cuts off the diagonal tails
        planes = [((1.0, 1.0), -0.5), ((-1.0, -1.0), -0.5),
                  ((0.05, -0.05), -0.5), ((-0.05, 0.05), -0.5)]
        with pytest.raises(ValueError, match="budget"):
            QuadratureDensity.build(make_hinge_sum(2, planes).value, 2, n_points=101)


def _sha256(a) -> str:
    return hashlib.sha256(np.asarray(a, dtype=np.float64).tobytes()).hexdigest()


class TestPinnedTruthBits:
    """sha256 of the float64 bytes of the 1-D truths behind A1 and the
    laplace-a1 set-up, recorded with numpy 2.4 on x86-64: a rewrite of the
    lattice or Simpson arithmetic must leave every 1-D bit in place."""

    PINS = {
        "l1": {
            "log_z": "c1a31fce60dd63d84f82fb99aa8cbb2fb9a99cd389083a6525445cfe9643e022",
            "density": "6462081a6fc106e9a224f9d5fe552e4a49dede51107b365f76a08ab7f1c63010",
            "cdf": "d50d73d799045b7ab47bb20c42e83d05e6a8eae6a06118a6011d43c19b692916",
        },
        "a1-regularized": {
            "log_z": "d2bc2ab067b42ebd0f0c1b49efedce2844cdbd9cc3abc46b11f55fc445b39dde",
            "density": "646265f3db79860b497a7664bf46f2a30374971d0d057c2c9f277777380e8a5c",
            "cdf": "a49da64f1d84376a8567e954a26d4c0f2c2d67ef8c097f1048acb9c7a4684a29",
        },
    }

    @staticmethod
    def truth(name):
        pot = make_l1(1, 1.0)
        if name == "a1-regularized":
            # A1's mu = 0.2 / (sqrt(2) sqrt(M4)) with the l1 lattice's M4
            pot = RegularizedTarget(pot, 0.028867513476156716, np.zeros(1))
        return QuadratureDensity.build(pot.value, 1)

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_bits(self, name):
        q = self.truth(name)
        got = {field: _sha256(getattr(q, field)) for field in self.PINS[name]}
        assert got == self.PINS[name]


class TestRowOracles:
    """A ``takes_rows`` oracle tabulates a lattice in one call; a plain
    wrapper of it, one call per point.  Both give the same bits."""

    @staticmethod
    def oracles(name, dim):
        pot = default_zoo(dim)[name]
        target = RegularizedTarget(pot, 0.4, np.full(dim, 0.25))
        obj = ProxObjective(target, 0.5, np.full(dim, 0.5))
        return [pot.value, target.value, obj.value]

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    def test_marked_and_looped_give_the_same_bits(self, name, dim):
        n = None if dim == 1 else 81
        for f in self.oracles(name, dim):
            marked = QuadratureDensity.build(f, dim, n_points=n)
            looped = QuadratureDensity.build(lambda x: f(x), dim, n_points=n)
            for field in ("logpot", "density", "cdf"):
                assert _sha256(getattr(marked, field)) == _sha256(getattr(looped, field)), field
            assert marked.log_z.hex() == looped.log_z.hex()

            @takes_rows
            def logpdf(x):
                return -f(x) - marked.log_z

            assert marked.moment(f).hex() == marked.moment(lambda x: f(x)).hex()
            kl = kl_divergence(logpdf, marked)
            assert kl.hex() == kl_divergence(lambda x: logpdf(x), marked).hex()
            assert abs(kl) < 1e-9


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
