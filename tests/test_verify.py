"""Shape of the `verify` report at small sizes: the fields the benchmark's
gate re-derivation reads, and the closed-form proposal bounds."""

import math

import pytest

from proxsamp.verify import suite_acceptance_bounds, suite_bundle_bounds, suite_stationarity


def test_acceptance_bounds_cases_and_closed_forms():
    # l1 and quad_plus_l1 have alpha = 0, so delta = 1/d; gaussian runs exact
    closed = {
        ("l1", "exact", 1): 2.0,
        ("l1", "bundle", 1): 2.0 * math.e,
        ("l1", "exact", 5): 2.0,
        ("l1", "bundle", 5): 2.0 * math.exp(0.2),
        ("gaussian", "exact", 5): math.exp(0.5),
        ("quad_plus_l1", "bundle", 5): 2.0 * math.exp(0.7),
    }
    cases = suite_acceptance_bounds(n_calls=20).details["cases"]
    assert [(c["target"], c["mode"], c["dim"]) for c in cases] == list(closed)
    for c in cases:
        assert c["bound"] == pytest.approx(closed[c["target"], c["mode"], c["dim"]], rel=1e-12)
        assert {"mean_proposals", "slack_3sigma", "passed"} <= set(c)


def test_stationarity_has_two_cases():
    cases = suite_stationarity(n=200).details["cases"]
    assert [c["target"] for c in cases] == ["gaussian", "laplace"]
    assert all({"ks", "critical_1pct"} <= set(c) for c in cases)


def test_bundle_bounds_cases_carry_violations():
    rep = suite_bundle_bounds(n_draws=5)
    cases = rep.details["cases"]
    assert [c["target"] for c in cases] == ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"]
    assert all(isinstance(c["violations"], int) for c in cases)
