import numpy as np
import pytest

from proxsamp import QuadratureDensity, make_gaussian, make_l1, tv_hist
from proxsamp.metrics import (
    ks_1samp,
    ks_2samp,
    ks_critical,
    two_sample_n_eff,
)


@pytest.fixture(scope="module")
def laplace_truth():
    return QuadratureDensity.build(make_l1(1, 1.0).value, 1)


@pytest.fixture(scope="module")
def gauss_truth():
    return QuadratureDensity.build(make_gaussian(1, (1.0,)).value, 1)


def draw(pot, rng, n):
    """n exact draws from a 1-D zoo potential's exp(-f)."""
    return pot.sample_exact(rng, n)[:, 0]


class TestTvHist:
    def test_identical_histograms_zero(self, gauss_truth):
        # samples exactly matching the bin masses: TV from discretization only
        edges = np.linspace(gauss_truth.axes[0][0], gauss_truth.axes[0][-1], 51)
        p = gauss_truth.bin_probs(edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        counts = np.round(p * 1_000_000).astype(int)
        samples = np.repeat(centers, counts)
        assert tv_hist(samples, gauss_truth, bins=50) < 1e-3

    def test_disjoint_supports_one(self, gauss_truth):
        samples = np.full(1000, gauss_truth.axes[0][-1] + 50.0)
        assert tv_hist(samples, gauss_truth) == pytest.approx(1.0, abs=1e-9)

    def test_self_draw_small(self, gauss_truth):
        rng = np.random.default_rng(0)
        samples = draw(make_gaussian(1, (1.0,)), rng, 100_000)
        assert tv_hist(samples, gauss_truth, bins=100) <= 0.03

    def test_decreases_with_n(self, laplace_truth):
        rng = np.random.default_rng(1)
        tvs = [
            tv_hist(draw(make_l1(1, 1.0), rng, n), laplace_truth, bins=30)
            for n in (1000, 10_000, 100_000)
        ]
        assert tvs[2] < tvs[0]

    def test_dimension_guard(self, gauss_truth):
        with pytest.raises(ValueError):
            tv_hist(np.zeros((10, 3)), gauss_truth)
        # TV is 1D only: a 2D truth is refused, whatever the samples
        truth_2d = QuadratureDensity.build(make_gaussian(2, (1.0, 1.0)).value, 2, n_points=21)
        with pytest.raises(ValueError, match="1D only"):
            tv_hist(np.zeros((10, 2)), truth_2d)


class TestKs:
    def test_one_sample_null_calibrated(self, gauss_truth):
        rng = np.random.default_rng(4)
        s = draw(make_gaussian(1, (1.0,)), rng, 50_000)
        assert ks_1samp(s, gauss_truth.cdf_at) < ks_critical(0.01, 50_000)

    def test_one_sample_detects_shift(self, gauss_truth):
        rng = np.random.default_rng(5)
        s = draw(make_gaussian(1, (1.0,)), rng, 50_000) + 0.05
        assert ks_1samp(s, gauss_truth.cdf_at) > ks_critical(0.01, 50_000)

    def test_cdf_variant_matches_uniform(self):
        rng = np.random.default_rng(6)
        u = rng.random(20_000)
        stat = ks_1samp(u, lambda x: np.clip(x, 0, 1))
        assert stat < ks_critical(0.01, 20_000)

    def test_two_sample_same_distribution(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(30_000)
        b = rng.standard_normal(30_000)
        assert ks_2samp(a, b) < ks_critical(0.01, two_sample_n_eff(30_000, 30_000))

    def test_two_sample_detects_difference(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(30_000)
        b = rng.standard_normal(30_000) * 1.1
        assert ks_2samp(a, b) > ks_critical(0.01, two_sample_n_eff(30_000, 30_000))

    def test_critical_value_magnitude(self):
        # classic asymptotic constant at 1%
        assert ks_critical(0.01, 100_000) == pytest.approx(1.6276 / np.sqrt(100_000), rel=1e-3)
