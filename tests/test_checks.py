import math
from dataclasses import replace

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
from proxsamp.chain import select_params_composite
from proxsamp.potentials import takes_rows
from proxsamp.rejection import (
    EnvelopeViolationError,
    envelope_offset,
    lower_envelope,
    upper_envelope,
)
from tests_zero_helper import make_zero


def per_probe_sandwich(obj, probes, rng, bundle_result=None):
    """Reference for ``sandwich_suite``'s block path: one probe at a time
    through the scalar g_y^eta and envelopes, folded with Python's min.
    Returns (min lower slack, min upper slack)."""
    if obj.target.base.prox is not None:
        xstar = prox_of_target(obj)
    else:
        xstar = prox_bundle(obj, 1e-10, max_iter=10_000).x_best
    vstar = obj.value(xstar)
    if bundle_result is None:
        center, offset = xstar, vstar
    else:
        res = bundle_result
        center = res.x_model
        offset = envelope_offset(res.best_value, res.model_value, res.qp_gap, res.delta)
    scale = 5.0 * math.sqrt(obj.eta)
    min_lower = min_upper = math.inf
    for _ in range(probes):
        x = center + scale * rng.standard_normal(obj.dim)
        g = obj.value(x)
        min_lower = min(min_lower, g - lower_envelope(x, center, offset, obj.inv_two_eta_mu))
        min_upper = min(min_upper, upper_envelope(x, xstar, vstar, obj) - g)
    return min_lower, min_upper


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

    @pytest.mark.parametrize("dim", [2, 5])
    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    def test_block_equals_per_probe_loop(self, name, dim):
        # the block path draws the same probes and computes the same numbers
        pot = default_zoo(dim)[name]
        eta, delta = select_params_composite(pot.profile, dim)
        rng = np.random.default_rng(11)
        for mu in (0.0, 0.2):
            obj = ProxObjective(RegularizedTarget(pot, mu, np.zeros(dim)), eta, 2.0 * rng.standard_normal(dim))
            for res in (None, prox_bundle(obj, delta)):
                ref_rng = np.random.default_rng()
                ref_rng.bit_generator.state = rng.bit_generator.state
                rep = sandwich_suite(obj, 400, rng, bundle_result=res)
                ref = per_probe_sandwich(obj, 400, ref_rng, bundle_result=res)
                assert (rep.min_lower_slack, rep.min_upper_slack) == ref, (name, mu, res)
                assert rep.n_probes == 400
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_potential_without_values_takes_row_loop(self):
        pot = make_zero(2)
        assert not getattr(pot.value, "takes_rows", False)
        seen = []
        counted = replace(pot, value=lambda x: seen.append(np.array(x)) or 0.0)
        obj = ProxObjective(RegularizedTarget(counted, 0.0, np.zeros(2)), 0.5, np.array([1.0, 0.0]))
        rep = sandwich_suite(obj, 50, np.random.default_rng(4))
        assert rep.passed
        # one call at the prox point, then one per probe row, in draw order
        probes = np.array([1.0, 0.0]) + 5.0 * math.sqrt(0.5) * np.random.default_rng(4).standard_normal((50, 2))
        assert len(seen) == 51
        assert np.array_equal(np.array(seen[1:]), probes)

    def test_raised_offset_fails(self):
        pot = make_l1(2, 1.0)
        eta, delta = select_params_composite(pot.profile, 2)
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(2)), eta, np.array([0.6, -0.3]))
        res = prox_bundle(obj, delta)
        raised = replace(res, best_value=res.best_value + 0.1, model_value=res.model_value + 0.1)
        offset = envelope_offset(res.best_value, res.model_value, res.qp_gap, res.delta)
        assert envelope_offset(
            raised.best_value, raised.model_value, raised.qp_gap, raised.delta
        ) == pytest.approx(offset + 0.1, abs=1e-12)
        assert sandwich_suite(obj, 500, np.random.default_rng(5), bundle_result=res).passed
        rep = sandwich_suite(obj, 500, np.random.default_rng(5), bundle_result=raised)
        assert not rep.passed
        assert rep.min_lower_slack < -0.05

    def test_nan_slack_fails(self):
        # l1 with value NaN where |x_0| > 0.3: a fold with Python's min, where
        # min(inf, nan) is inf, passed it with slacks 0.069 and 0.146
        l1 = make_l1(2, 1.0)
        pot = replace(l1, value=lambda x: math.nan if abs(x[0]) > 0.3 else l1.value(x))
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(2)), 0.25, np.array([0.1, -0.2]))
        rep = sandwich_suite(obj, 500, np.random.default_rng(1))
        assert not rep.passed
        assert math.isnan(rep.min_lower_slack) and math.isnan(rep.min_upper_slack)

    def test_stale_values_raise(self):
        # a row-capable value whose row branch disagrees with its point
        # branch at the first probe is refused
        l1 = default_zoo(2)["l1"]

        def report(pot):
            obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(2)), 0.25, np.array([1.0, 0.5]))
            return sandwich_suite(obj, 10, np.random.default_rng(6))

        @takes_rows
        def stale(x):
            return 2.0 * l1.value(x) if np.ndim(x) == 2 else l1.value(x)

        with pytest.raises(ValueError, match="potential 'l1': value gives .* on rows where"):
            report(replace(l1, value=stale))
        # a wrapper of the same function, as the benchmark's tracer makes, is
        # looped over and gives the same report
        assert report(replace(l1, value=lambda x: l1.value(x))) == report(l1)
        assert report(l1).passed
