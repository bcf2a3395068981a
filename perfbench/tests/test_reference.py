"""Tests of the benchmark's reference checkers, so that no check passes vacuously.

    python3 -m pytest perfbench/tests -q
"""

import copy
import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate, signal, stats

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import reference as ref  # noqa: E402


def ar1_ess(n, rho):
    """Closed-form ESS of n draws of a stationary AR(1) series."""
    return n * (1.0 - rho) / (1.0 + rho)


def ar1(rng, n, rho):
    e = rng.standard_normal(n)
    e[0] /= math.sqrt(1.0 - rho * rho)  # stationary start
    return signal.lfilter([1.0], [1.0, -rho], e)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_ess_matches_ar1_closed_form(rho):
    n = 200_000
    x = ar1(np.random.default_rng(1), n, rho)
    expected = ar1_ess(n, rho)
    assert ref.ess(x) == pytest.approx(expected, rel=0.06)
    assert ref.ar_ess(x) == pytest.approx(expected, rel=0.06)
    assert ref.bulk_ess(x) == pytest.approx(expected, rel=0.06)


def test_ar_ess_matches_ar2_closed_form():
    # x_t = 1.2 x_{t-1} - 0.4 x_{t-2} + e_t: ESS = n gamma_0 (1 - 1.2 + 0.4)^2 / 1
    phi1, phi2, n = 1.2, -0.4, 400_000
    x = signal.lfilter([1.0], [1.0, -phi1, -phi2], np.random.default_rng(6).standard_normal(n + 1000))[1000:]
    gamma0 = (1.0 - phi2) / ((1.0 + phi2) * ((1.0 - phi2) ** 2 - phi1**2))
    expected = n * gamma0 * (1.0 - phi1 - phi2) ** 2
    assert ref.ar_ess(x) == pytest.approx(expected, rel=0.06)
    assert ref.ess(x) == pytest.approx(expected, rel=0.06)


def test_ess_pools_chains():
    rng = np.random.default_rng(2)
    chains = np.stack([ar1(rng, 50_000, 0.8) for _ in range(4)])
    assert ref.ess(chains) == pytest.approx(ar1_ess(200_000, 0.8), rel=0.08)
    assert ref.bulk_ess(chains) == pytest.approx(ar1_ess(200_000, 0.8), rel=0.08)


def test_ess_sees_chains_that_disagree():
    rng = np.random.default_rng(3)
    chains = np.stack([rng.standard_normal(10_000) + shift for shift in (0.0, 3.0)])
    assert ref.ess(chains) < 100.0
    assert ref.bulk_ess(chains) < 100.0


def power_norm_draws(rng, n, d, k):
    """Exact draws from exp(-||x||^k / k): f(X) ~ Gamma(d / k), uniform direction."""
    u = rng.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return (k * rng.gamma(d / k, 1.0, n))[:, None] ** (1.0 / k) * u


def test_gamma_mean_gate_accepts_exact_draws_and_rejects_scaled_ones():
    d, k = 20, 1.5
    rng = np.random.default_rng(4)
    x = power_norm_draws(rng, 20_000, d, k)
    f = np.linalg.norm(x, axis=1) ** k / k
    assert stats.kstest(f, stats.gamma(d / k).cdf).pvalue > 1e-3
    chains = f.reshape(20, 1000)
    assert ref.gamma_mean_gate(chains, d / k, batch=100)["passed"]
    scaled = np.linalg.norm(1.05 * x, axis=1) ** k / k
    gate = ref.gamma_mean_gate(scaled.reshape(20, 1000), d / k, batch=100)
    assert not gate["passed"]
    assert gate["z"] > 5.0


def test_batch_means_se_of_iid_draws():
    rng = np.random.default_rng(5)
    chains = rng.standard_normal((10, 10_000))
    assert ref.batch_means_se(chains, 100) == pytest.approx(1.0 / math.sqrt(100_000), rel=0.15)


def quad_bins(density, edges):
    bounds = np.concatenate([[-np.inf], edges, [np.inf]])
    return np.array([integrate.quad(density, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                     for a, b in zip(bounds[:-1], bounds[1:])])


def test_laplace_bin_probabilities_match_quad():
    edges = np.linspace(-8.0, 8.0, 23)
    expected = quad_bins(lambda x: 0.5 * math.exp(-abs(x)), edges)
    assert np.allclose(ref.bin_probs(ref.laplace_cdf, edges), expected, rtol=1e-9, atol=1e-14)


@pytest.mark.parametrize("mu", [ref.regularization_mu(0.2), 0.5, 3.0])
def test_regularized_laplace_bin_probabilities_match_quad(mu):
    law = ref.RegularizedLaplace(mu)
    z, _ = integrate.quad(law.unnormalized, -np.inf, np.inf, epsrel=1e-13)
    edges = np.linspace(-8.0, 8.0, 23)
    expected = quad_bins(lambda x: law.unnormalized(x) / z, edges)
    assert np.allclose(ref.bin_probs(law.cdf, edges), expected, rtol=1e-8, atol=1e-14)


def test_regularization_mu_uses_laplace_fourth_moment():
    m4, _ = integrate.quad(lambda x: x**4 * 0.5 * math.exp(-abs(x)), -np.inf, np.inf)
    assert m4 == pytest.approx(ref.LAPLACE_M4, rel=1e-10)


def test_laplace_tv_gate_separates_laplace_from_gaussian():
    rng = np.random.default_rng(6)
    assert ref.laplace_tv_gate(rng.laplace(0.0, 1.0, 5000), eps=0.02)["passed"]
    assert not ref.laplace_tv_gate(rng.standard_normal(5000), eps=0.02)["passed"]


def test_ks_gate_accepts_the_law_and_rejects_plain_laplace():
    mu = 0.5
    law = ref.RegularizedLaplace(mu)
    rng = np.random.default_rng(7)
    # exact draws by rejection from Laplace(0, 1): accept with exp(-mu x^2 / 2)
    x = rng.laplace(0.0, 1.0, 40_000)
    x = x[rng.random(x.size) < np.exp(-0.5 * mu * x * x)][:10_000]
    assert ref.ks_gate(x, law.cdf, x.size, 1e-4)["passed"]
    assert not ref.ks_gate(rng.laplace(0.0, 1.0, 10_000), law.cdf, 10_000, 1e-4)["passed"]


GOOD_REPORT = {
    "passed": True,
    "suites": [
        {"name": "prop-key", "passed": True, "details": {}},
        {"name": "sandwich", "passed": True, "details": {"min_lower_slack": 0.0, "min_upper_slack": 1e-3}},
        {"name": "acceptance-bounds", "passed": True, "details": {"cases": [
            {"target": t, "mode": m, "dim": d, "mean_proposals": 1.5, "slack_3sigma": 0.01,
             "bound": ref.acceptance_bound(t, m, d)}
            for t, m, d in [("l1", "exact", 1), ("l1", "bundle", 1), ("l1", "exact", 5),
                            ("l1", "bundle", 5), ("gaussian", "exact", 5), ("quad_plus_l1", "bundle", 5)]]}},
        {"name": "bundle-bounds", "passed": True, "details": {"cases": [{"target": "l1", "violations": 0}]}},
        {"name": "stationarity", "passed": True, "details": {"cases": [
            {"target": "gaussian", "ks": 0.005}, {"target": "laplace", "ks": 0.006}]}},
        {"name": "tv-decay", "passed": True, "details": {}},
    ],
}


def test_verify_gates_pass_a_good_report():
    assert all(not f for f in ref.verify_gates(GOOD_REPORT).values())


@pytest.mark.parametrize(
    "suite, edit",
    [
        ("acceptance-bounds", lambda d: d["cases"][1].update(mean_proposals=5.5)),
        ("acceptance-bounds", lambda d: d["cases"][4].update(bound=10.0)),
        ("acceptance-bounds", lambda d: d["cases"].pop()),
        ("stationarity", lambda d: d["cases"][0].update(ks=0.02)),
        ("sandwich", lambda d: d.update(min_lower_slack=-1e-6)),
        ("bundle-bounds", lambda d: d["cases"][0].update(violations=1)),
    ],
)
def test_verify_gates_catch_each_broken_gate(suite, edit):
    report = copy.deepcopy(GOOD_REPORT)
    edit(next(s for s in report["suites"] if s["name"] == suite)["details"])
    fails = ref.verify_gates(report)
    assert fails[suite]
    assert all(not f for name, f in fails.items() if name != suite)


def test_strict_json_refuses_non_finite_constants():
    assert ref.parse_strict_json('{"a": 1.5}') == {"a": 1.5}
    for text in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}'):
        with pytest.raises(ValueError):
            ref.parse_strict_json(text)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    import json

    import run
    from tracing import SpanTable, Tracer, layer_metrics

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layers = {name: unit for name, (_, unit) in layer_metrics(SpanTable(Tracer())).items()}
    layers["cli.csv_bytes"] = "bytes"
    layers["trace.overhead.steps_per_s_pct"] = layers["trace.overhead.wall_s_pct"] = "%"
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers
