import math

import numpy as np
import pytest

from proxsamp import (
    ProxObjective,
    RegularizedTarget,
    acceptance_probability_oracle,
    check_prop_key_bound,
    default_prop_key_grid,
    default_zoo,
    make_l1,
    make_quad_plus_l1,
    prox_bundle,
    prox_of_target,
    sandwich_suite,
    wendel_check,
)
from proxsamp.rejection import EnvelopeViolationError
from tests_zero_helper import make_zero


class TestWendel:
    def test_spot_value(self):
        # Gamma(2)/Gamma(1.5) = 1/Gamma(1.5) ~ 1.1284 inside [1, sqrt(1.5)]
        ratio = math.exp(math.lgamma(2.0) - math.lgamma(1.5))
        assert ratio == pytest.approx(1.1283791671, rel=1e-9)
        assert 1.0 <= ratio <= 1.5**0.5
        rep = wendel_check([1.0], [0.5])
        assert rep.passed

    def test_grid_passes(self):
        rep = wendel_check(np.linspace(0.05, 100.0, 40), np.linspace(0.01, 0.99, 40))
        assert rep.passed

    def test_t_ten_s_quarter(self):
        assert wendel_check([10.0], [0.25]).passed

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            wendel_check([1.0], [1.5])


class TestPropKeyBound:
    def test_default_grid_has_fifty_points_and_passes(self):
        grid = default_prop_key_grid()
        assert len(grid) == 50
        rep = check_prop_key_bound(grid)
        assert rep.passed
        assert rep.details["worst_ratio"] >= 1.0 - 1e-6

    def test_a_zero_ratio_exactly_two(self):
        rep = check_prop_key_bound([(0.5, 0.3, 0.0, 4)])
        assert rep.details["worst_ratio"] == pytest.approx(2.0, rel=1e-8)

    def test_boundary_admissible(self):
        alpha, d = 0.0, 5
        eta = 1.0 / (4.0 * d)
        a = 0.5 / math.sqrt(eta * d)
        rep = check_prop_key_bound([(alpha, eta, a, d)])
        assert rep.passed

    def test_inadmissible_point_rejected(self):
        with pytest.raises(ValueError):
            check_prop_key_bound([(0.0, 1.0, 10.0, 5)])


class TestAcceptanceOracle:
    def test_free_potential_ratio_one(self):
        pot = make_zero(1)
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(1)), 0.5, np.array([0.3]))
        ratio = acceptance_probability_oracle(obj, np.array([0.3]), obj.value(np.array([0.3])))
        assert ratio == pytest.approx(1.0, abs=1e-8)

    def test_l1_exact_mode_at_least_half(self):
        pot = make_l1(1, 1.0)
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(1)), 0.25, np.array([2.0]))
        xstar = prox_of_target(obj)
        ratio = acceptance_probability_oracle(obj, xstar, obj.value(xstar))
        assert 0.5 <= ratio <= 1.0

    def test_l1_bundle_mode_bound(self):
        pot = make_l1(1, 1.0)
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(1)), 0.25, np.array([2.0]))
        res = prox_bundle(obj, delta=0.25)
        ratio = acceptance_probability_oracle(
            obj, res.x_model, res.best_value - 0.25
        )
        assert ratio >= math.exp(-0.25) / 2.0

    def test_violation_detected(self):
        pot = make_l1(1, 1.0)
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(1)), 0.25, np.array([2.0]))
        with pytest.raises(EnvelopeViolationError):
            # offset above the true optimum shrinks the envelope integral
            # below the target's, pushing the ratio past 1
            acceptance_probability_oracle(obj, np.array([1.9]), 3.0)

    def test_2d_composite_ratio(self):
        pot = make_quad_plus_l1(2, (1.0, 1.0), 1.0)
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(2)), 0.1, np.array([1.0, -0.5]))
        xstar = prox_of_target(obj)
        ratio = acceptance_probability_oracle(obj, xstar, obj.value(xstar))
        assert 0.0 < ratio <= 1.0


class TestSandwich:
    def test_free_potential_slacks_zero(self):
        pot = make_zero(2)
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(2)), 0.5, np.array([1.0, 0.0]))
        rng = np.random.default_rng(0)
        rep = sandwich_suite(obj, 200, rng)
        assert rep.passed
        assert rep.min_lower_slack == pytest.approx(0.0, abs=1e-10)
        assert rep.min_upper_slack == pytest.approx(0.0, abs=1e-10)

    def test_l1_exact_mode(self):
        pot = make_l1(2, 1.0)
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(2)), 0.25, np.array([2.0, -1.0]))
        rng = np.random.default_rng(1)
        rep = sandwich_suite(obj, 500, rng)
        assert rep.passed

    def test_composite_bundle_mode(self):
        pot = make_quad_plus_l1(2, (2.0, 1.0), 1.0)
        obj = ProxObjective(RegularizedTarget(pot, 0.3, np.zeros(2)), 0.125, np.array([0.7, 0.4]))
        rng = np.random.default_rng(2)
        res = prox_bundle(obj, delta=0.05)
        rep = sandwich_suite(obj, 500, rng, bundle_result=res)
        assert rep.passed

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    def test_zoo_sandwich(self, name):
        pot = default_zoo(2)[name]
        rng = np.random.default_rng(3)
        from proxsamp.chain import select_params_composite

        eta, delta = select_params_composite(pot.profile, 2)
        for mu in (0.0, 0.2):
            obj = ProxObjective(
                RegularizedTarget(pot, mu, np.zeros(2)), eta, rng.standard_normal(2)
            )
            rep = sandwich_suite(obj, 300, rng)
            assert rep.passed, (name, mu, rep)
            res = prox_bundle(obj, delta)
            rep = sandwich_suite(obj, 300, rng, bundle_result=res)
            assert rep.passed, (name, mu, rep)
