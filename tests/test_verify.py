"""Shape of the `verify` report at small sizes: the fields the benchmark's
gate re-derivation reads, and the closed-form proposal bounds."""

import json
import math
from dataclasses import replace

import pytest

import proxsamp.chain as chain
import proxsamp.verify as verify
from proxsamp.bundle import ProxObjective
from proxsamp.verify import suite_acceptance_bounds, suite_bundle_bounds, suite_sandwich, suite_stationarity


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


def test_sandwich_default_report_pinned():
    # `proxsamp verify`'s A6 report, to the bit: the block path must draw and
    # compute exactly what the per-probe path did
    det = suite_sandwich().details
    assert det["min_lower_slack"].hex() == "-0x1.8000000000000p-44"
    assert det["min_upper_slack"].hex() == "-0x1.0000000000000p-43"
    assert det["n_probes"] == 80000


def test_sandwich_suite_fails_on_a_nan_case(monkeypatch):
    # one case with a NaN slack, as ``sandwich_suite`` reports it, must fail
    # the suite and show in its report
    real = verify.sandwich_suite
    reports = []

    def third_case_nan(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        if len(reports) == 3:
            return replace(reports[-1], min_lower_slack=math.nan, passed=False)
        return reports[-1]

    monkeypatch.setattr(verify, "sandwich_suite", third_case_nan)
    rep = suite_sandwich(probes_per_case=20, n_draws=1)
    assert len(reports) == 20
    assert not rep.passed
    assert math.isnan(rep.details["min_lower_slack"])
    assert rep.details["min_upper_slack"] == min(r.min_upper_slack for r in reports)


def test_tv_decay_default_size_passes():
    rep = verify.suite_tv_decay()
    assert rep.passed
    assert rep.details["checkpoints"] == [1, 2, 3, 5, 10, 40]
    # eta = 1 and lam = 1 halve the mean and the distance of the variance
    # to 1 per sweep, from the start x = 3
    for case in rep.details["cases"]:
        k = case["k"]
        assert case["mean"] == 3.0 * 2.0**-k
        assert case["var"] == 1.0 - 4.0**-k
    json.dumps(rep.details, allow_nan=False)


@pytest.mark.parametrize("scale", ["sqrt_eta", "sqrt_eta_mu"], ids=["y_draw", "proposals"])
def test_tv_decay_fails_on_a_sampler_20pct_too_wide(monkeypatch, scale):
    # a y draw (sqrt_eta) or a proposal (sqrt_eta_mu) 20% wider changes the
    # chain's law; the closed form must see it at the suite's default size
    class Wider(ProxObjective):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            setattr(self, scale, 1.2 * getattr(self, scale))

    monkeypatch.setattr(chain, "ProxObjective", Wider)
    assert not verify.suite_tv_decay().passed
