import math

import numpy as np
import pytest

from proxsamp import (
    Potential,
    RegularizedTarget,
    SmoothnessProfile,
    default_zoo,
    make_gaussian,
    make_hinge_sum,
    make_l1,
    make_power_norm,
    make_quad_plus_l1,
    validate_profile,
)
from proxsamp.potentials import _zoo_hinge_planes, make_by_name, positively_spans, sample_in_ball


def grid_prox_oracle(f, eta, y, lo=-4.0, hi=4.0, step=1e-4):
    """Brute-force 1D prox by scanning a fine grid."""
    u = np.arange(lo, hi + step, step)
    vals = [f(np.array([ui])) + (ui - y) ** 2 / (2 * eta) for ui in u]
    return u[int(np.argmin(vals))]


class TestRegularizedTarget:
    def test_value_mu_zero_reduces_to_f(self):
        t = RegularizedTarget(make_l1(1, 1.0), 0.0, np.zeros(1))
        assert t.value(np.array([-2.0])) == pytest.approx(2.0)

    def test_value_direct_formula(self):
        t = RegularizedTarget(make_l1(1, 1.0), 2.0, np.zeros(1))
        assert t.value(np.array([1.0])) == pytest.approx(2.0)

    def test_value_2d(self):
        t = RegularizedTarget(make_l1(2, 1.0), 1.0, np.array([1.0, 0.0]))
        assert t.value(np.array([0.0, 0.0])) == pytest.approx(0.5)

    def test_subgrad_sign(self):
        t = RegularizedTarget(make_l1(1, 1.0), 0.0, np.zeros(1))
        assert t.subgrad(np.array([3.0]))[0] == pytest.approx(1.0)

    def test_subgrad_kink_zero_rule(self):
        t = RegularizedTarget(make_l1(1, 1.0), 0.0, np.zeros(1))
        assert t.subgrad(np.array([0.0]))[0] == 0.0

    def test_subgrad_sum_rule(self):
        t = RegularizedTarget(make_l1(1, 1.0), 1.0, np.zeros(1))
        assert t.subgrad(np.array([-2.0]))[0] == pytest.approx(-3.0)

    def test_dimension_mismatch(self):
        t = RegularizedTarget(make_l1(2, 1.0), 0.0, np.zeros(2))
        with pytest.raises(ValueError):
            t.value(np.array([1.0]))
        with pytest.raises(ValueError):
            t.subgrad(np.array([1.0, 2.0, 3.0]))


class TestValidateProfile:
    def test_l1_declared_profile_passes(self):
        rng = np.random.default_rng(0)
        rep = validate_profile(make_l1(1, 1.0), 500, 10.0, rng)
        assert rep.passed

    def test_quadratic_correct_l_one_passes(self):
        rng = np.random.default_rng(1)
        rep = validate_profile(make_gaussian(2, (1.0, 1.0)), 500, 10.0, rng)
        assert rep.passed

    def test_quadratic_understated_l_one_fails(self):
        # ||x||^2/2 declared with half its true Lipschitz constant
        bad = Potential(
            dim=2,
            value=lambda x: 0.5 * float(x @ x),
            subgrad=lambda x: np.asarray(x, dtype=float),
            profile=SmoothnessProfile(alpha=1.0, l_alpha=0.0, l_one=0.5),
        )
        rng = np.random.default_rng(2)
        rep = validate_profile(bad, 2000, 10.0, rng)
        assert not rep.passed
        # violation is exactly half the pair distance at the worst pair
        assert rep.max_smoothness_violation == pytest.approx(
            0.5 * rep.worst_pair_dist, rel=1e-12
        )

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    def test_zoo_profiles_pass_at_scale(self, name):
        pot = default_zoo(3)[name]
        rng = np.random.default_rng(42)
        rep = validate_profile(pot, 10_000, 10.0, rng)
        assert rep.passed, rep
        assert rep.max_convexity_violation <= 1e-10


class TestZoo:
    def test_soft_threshold_example(self):
        f = make_l1(1, 1.0)
        z = f.prox(0.5, np.array([2.0]))
        assert z[0] == pytest.approx(1.5)
        assert z[0] == pytest.approx(grid_prox_oracle(f.value, 0.5, 2.0), abs=1e-4)

    def test_power_norm_value(self):
        assert make_power_norm(1, 1.0, 1.0).value(np.array([3.0])) == pytest.approx(4.5)

    def test_gaussian_prox_example(self):
        z = make_gaussian(2, (1.0, 1.0)).prox(1.0, np.array([2.0, 0.0]))
        np.testing.assert_allclose(z, [1.0, 0.0])

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    def test_power_norm_prox_matches_grid(self, alpha):
        f = make_power_norm(1, alpha, 1.3)
        for y, eta in [(2.0, 0.5), (-1.2, 0.8), (0.3, 2.0)]:
            z = f.prox(eta, np.array([y]))
            assert z[0] == pytest.approx(grid_prox_oracle(f.value, eta, y), abs=2e-4)

    def test_quad_plus_l1_prox_matches_grid(self):
        f = make_quad_plus_l1(1, (2.0,), 1.5)
        for y, eta in [(2.0, 0.5), (-3.0, 0.25), (0.4, 1.0)]:
            z = f.prox(eta, np.array([y]))
            assert z[0] == pytest.approx(grid_prox_oracle(f.value, eta, y), abs=2e-4)

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "gaussian"])
    def test_prox_stationarity(self, name):
        # (y - z)/eta must be a subgradient at z = prox(eta, y):
        # f(w) >= f(z) + <(y - z)/eta, w - z> for sampled w
        pot = default_zoo(3)[name]
        rng = np.random.default_rng(9)
        for _ in range(10):
            y = rng.standard_normal(3) * 3.0
            eta = rng.uniform(0.1, 2.0)
            z = pot.prox(eta, y)
            fz = pot.value(z)
            g = (y - z) / eta
            for _ in range(100):
                w = sample_in_ball(rng, 3, 5.0)
                assert pot.value(w) >= fz + g @ (w - z) - 1e-8

    def test_hinge_value_and_subgrad(self):
        f = make_hinge_sum(2, [((1.0, 0.0), -1.0), ((0.0, 1.0), 0.5)])
        assert f.value(np.array([2.0, 0.0])) == pytest.approx(1.5)
        np.testing.assert_allclose(f.subgrad(np.array([2.0, 0.0])), [1.0, 1.0])
        # both hinges inactive
        assert f.value(np.array([0.0, -1.0])) == pytest.approx(0.0)

    def test_zoo_hinge_coordinate_moments(self):
        # each rotated coordinate has density exp(-max(0, |t| - 1/2)) / 3
        from scipy.integrate import quad

        pieces = ((-math.inf, -0.5), (-0.5, 0.5), (0.5, math.inf))

        def integral(k):
            return sum(quad(lambda t: t**k * math.exp(-max(0.0, abs(t) - 0.5)), a, b)[0] for a, b in pieces)

        assert integral(0) == pytest.approx(3.0, rel=1e-10)
        assert integral(2) / 3.0 == pytest.approx(79 / 36, rel=1e-10)
        assert integral(4) / 3.0 == pytest.approx(6331 / 240, rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_zoo_hinge_planes(self, d):
        # (+-q_i, -1/2) with orthonormal q_i: f = sum_i max(0, |<q_i, x>| - 1/2)
        normals = np.stack([a for a, _ in _zoo_hinge_planes(d)])
        q = normals[::2]
        np.testing.assert_allclose(normals[1::2], -q)
        np.testing.assert_allclose(q @ q.T, np.eye(d), atol=1e-12)
        assert positively_spans(normals)
        x = np.random.default_rng(d).standard_normal(d) * 2.0
        expected = np.maximum(np.abs(q @ x) - 0.5, 0.0).sum()
        assert default_zoo(d)["hinge_sum"].value(x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_zoo_hinge_profile_is_subgradient_diameter(self, d):
        # subgradients sum_i s_i q_i, s_i in {-1, 0, 1}: diameter 2 sqrt(d),
        # reached between +-2 sum_i q_i, where every hinge is active
        pot = default_zoo(d)["hinge_sum"]
        assert pot.profile.alpha == 0.0
        assert pot.profile.l_alpha == 2.0 * math.sqrt(d)
        q = np.stack([a for a, _ in _zoo_hinge_planes(d)])[::2]
        x = 2.0 * q.sum(axis=0)
        spread = np.linalg.norm(pot.subgrad(x) - pot.subgrad(-x))
        assert spread == pytest.approx(pot.profile.l_alpha, rel=1e-12)
        rep = validate_profile(pot, 2000, 10.0, np.random.default_rng(d))
        assert rep.passed, rep

    def test_make_by_name_rejects_improper_hinge_sets(self):
        quadrant = [((1.0, 0.0), -0.5), ((0.0, 1.0), -0.5)]
        line = [((1.0, 0.0), -0.5), ((-1.0, 0.0), -0.5)]  # a zero sum, but rank 1
        for planes in (quadrant, line):
            with pytest.raises(ValueError, match="positively span"):
                make_by_name("hinge_sum", 2, {"planes": planes})
        pot = make_by_name("hinge_sum", 2, {"planes": quadrant + [((-1.0, -1.0), -0.5)]})
        assert pot.value(np.array([1.0, -1.0])) == pytest.approx(0.5)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            make_l1(2, -1.0)
        with pytest.raises(ValueError):
            make_power_norm(2, 1.5)
        with pytest.raises(ValueError):
            make_gaussian(2, (1.0, -1.0))
        with pytest.raises(ValueError):
            make_quad_plus_l1(2, (1.0,), 1.0)
        with pytest.raises(ValueError):
            make_hinge_sum(2, [])

    def test_make_by_name_unknown(self):
        with pytest.raises(ValueError, match="available"):
            make_by_name("not_a_potential", 2, {})

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            SmoothnessProfile(alpha=1.5, l_alpha=1.0)
        with pytest.raises(ValueError):
            SmoothnessProfile(alpha=0.5, l_alpha=-1.0)
        assert not SmoothnessProfile(alpha=1.0, l_alpha=0.0).usable
