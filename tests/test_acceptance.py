"""Acceptance criteria A1-A8, each at its stated size and tolerance.

Every test prints one pass/fail line (echoed again in the terminal
summary).  A2-A7 call the `verify` suites and their per-case functions
with the suites' seeds at the full desk-scale sizes; the `verify` CLI runs
the same code at its smaller default sizes.
"""

import math
import time

import numpy as np
import pytest

from _report import record
from proxsamp import (
    ChainConfig,
    MomentEstimate,
    ProxObjective,
    QuadratureDensity,
    RegularizedTarget,
    RgoConfig,
    default_zoo,
    kl_divergence,
    make_gaussian,
    make_l1,
    rgo_sample,
    run_chain,
    select_mu,
    select_num_iters,
    select_params_composite,
    select_params_semismooth,
    tv_hist,
)
from proxsamp.metrics import ks_2samp, ks_critical, two_sample_n_eff
from proxsamp.verify import (
    bundle_case,
    proposal_case,
    suite_bundle_bounds,
    suite_prop_key,
    suite_sandwich,
    suite_stationarity,
)


def test_a1_end_to_end_tv_laplace():
    """Regularized pipeline on nu ~ exp(-|x|): final-sample TV <= 0.23.

    Uses 16 thinned long chains (burn-in = the instantiated iteration
    budget, thinning interval 50) to collect the 10^4 samples; the
    criterion sanctions this in place of independent replicas.
    """
    t_start = time.perf_counter()
    eps = 0.2
    pot = make_l1(1, 1.0)
    truth_nu = QuadratureDensity.build(pot.value, 1)
    m4 = truth_nu.moment(lambda x: float(x[0]) ** 4)
    assert m4 == pytest.approx(24.0, rel=1e-6)
    mu = select_mu(eps, MomentEstimate(m4=m4, x_min=(0.0,), dist_sq=0.0))
    eta, delta = select_params_semismooth(pot.profile, 1)

    reg = RegularizedTarget(pot, mu, np.zeros(1))
    truth_pi = QuadratureDensity.build(reg.value, 1)
    h0 = kl_divergence(
        lambda x: -0.5 * float(x[0]) ** 2 - 0.5 * math.log(2 * math.pi), truth_pi
    )
    burn = select_num_iters(eps=eps, eta=eta, mu=mu, h0=h0).n_iters

    n_keep_total = 10_000
    n_chains = 16
    thin = 50
    keeps_per_chain = n_keep_total // n_chains
    n_iters = burn + thin * (keeps_per_chain - 1)
    samples = np.empty(n_chains * keeps_per_chain)
    for c in range(n_chains):
        x0 = np.random.default_rng(900 + c).standard_normal(1)
        cfg = ChainConfig(
            eta=eta,
            delta=delta,
            mu=mu,
            center_x0=(0.0,),
            n_iters=n_iters,
            seed=100 + c,
            target_eps=eps,
            regime="semi-smooth",
            rgo_mode="bundle",
        )
        trace = run_chain(pot, cfg, x_init=x0)
        samples[c * keeps_per_chain : (c + 1) * keeps_per_chain] = trace.iterates[
            burn::thin, 0
        ]
    tv = tv_hist(samples, truth_nu, bins=math.ceil(n_keep_total ** (1 / 3)))
    runtime = time.perf_counter() - t_start
    ok = tv <= eps + 0.03 and runtime < 300.0
    record(
        "A1",
        ok,
        f"TV={tv:.4f} (tol {eps + 0.03}), mu={mu:.5f}, eta={eta:.4g}, delta={delta:g}, "
        f"burn-in={burn}, 16 thinned chains x {keeps_per_chain}, runtime {runtime:.1f}s",
    )
    assert tv <= eps + 0.03
    assert runtime < 300.0


def _proposals(case):
    return f"{case['mean_proposals']:.3f}<={case['bound']:.3f}+{case['slack_3sigma']:.3f}"


def test_a2_rejection_bounds_l1():
    """Mean proposals per sample on the l1 family: exact <= 2, bundle <= 2 e^delta."""
    cases = [
        proposal_case("l1", make_l1(d, 1.0), mode, 10_000, seed=200 + i)
        for i, d in enumerate((1, 5, 20))
        for mode in ("exact", "bundle")
    ]
    ok = all(c["passed"] for c in cases)
    record("A2", ok, "; ".join(f"d={c['dim']} {c['mode']}: {_proposals(c)}" for c in cases))
    assert ok


def test_a3_smooth_and_composite_bounds():
    """Gaussian <= e^(1/2+delta); quadratic+l1 <= 2 e^(1/2+delta)."""
    details = []
    ok = True
    for i, d in enumerate((1, 5, 20)):
        gauss = make_gaussian(d, np.ones(d))
        eta, _ = select_params_composite(gauss.profile, d)
        assert eta <= 1.0 / (gauss.profile.l_one * d) + 1e-15
        for mode in ("exact", "bundle"):
            c = proposal_case("gaussian", gauss, mode, 10_000, seed=300 + i)
            ok = ok and c["passed"]
            details.append(f"gauss d={d} {mode}: {_proposals(c)}")

        comp = default_zoo(d)["quad_plus_l1"]
        c = proposal_case("quad_plus_l1", comp, "bundle", 10_000, seed=350 + i)
        _, delta = select_params_composite(comp.profile, d)
        assert c["bound"] == pytest.approx(2.0 * math.exp(0.5 + delta), rel=1e-12)
        ok = ok and c["passed"]
        details.append(f"quad+l1 d={d}: {_proposals(c)}")
    record("A3", ok, "; ".join(details))
    assert ok


def test_a4_bundle_iteration_bounds():
    """Measured J <= the recursion bound everywhere; median J <= 10, also as d grows."""
    zoo = suite_bundle_bounds(n_draws=1000)
    dims = (1, 5, 20, 100)
    l1 = [bundle_case("l1", make_l1(d, 1.0), 1000, seed=450 + i) for i, d in enumerate(dims)]
    details = [
        f"{c['target']}(d=5): median J={c['median_iters']:.0f} max={c['max_iters']}"
        for c in zoo.details["cases"]
    ]
    details += [f"l1(d={d}): median J={c['median_iters']:.0f}" for d, c in zip(dims, l1)]
    ok = zoo.passed and all(c["passed"] for c in l1)
    record("A4", ok, "; ".join(details))
    assert ok


def test_a5_modified_gaussian_bound():
    """Quadrature integral >= half the Gaussian integral on the 50-point grid."""
    t0 = time.perf_counter()
    rep = suite_prop_key()
    runtime = time.perf_counter() - t0
    assert rep.details["n_points"] == 50
    record(
        "A5",
        rep.passed,
        f"50-point grid, worst ratio {rep.details['worst_ratio']:.6f} >= 1-1e-6, "
        f"runtime {runtime:.2f}s",
    )
    assert rep.passed


def test_a6_sandwich_invariants():
    """h_lower <= g <= h_upper at 1e5 probe evaluations across the zoo."""
    rep = suite_sandwich(probes_per_case=1000, n_draws=5)
    det = rep.details
    ok = rep.passed and det["n_probes"] >= 100_000
    record(
        "A6",
        ok,
        f"{det['n_probes']} probes, min lower slack {det['min_lower_slack']:.2e}, "
        f"min upper slack {det['min_upper_slack']:.2e} (tol -1e-9)",
    )
    assert ok


def test_a7_gibbs_exactness_one_step():
    """Stationary start + one sweep stays at the target (KS at 1%, n=1e5)."""
    n = 100_000
    crit = ks_critical(0.01, n)
    rep = suite_stationarity(n=n)
    details = "; ".join(f"{c['target']} KS={c['ks']:.5f}" for c in rep.details["cases"])
    record("A7", rep.passed, f"{details} < critical {crit:.5f} (1%, n=1e5)")
    assert rep.passed


def test_a8_mode_equivalence():
    """Exact-prox and bundle oracles draw from the same law (two-sample KS, 1%)."""
    n = 100_000
    pot = make_l1(1, 1.0)
    eta, delta = select_params_semismooth(pot.profile, 1)
    target = RegularizedTarget(pot, 0.0, np.zeros(1))
    obj = ProxObjective(target, eta, np.array([0.7]))
    rng = np.random.default_rng(23)
    cfg_e = RgoConfig(eta=eta, mode="exact")
    cfg_b = RgoConfig(eta=eta, delta=delta, mode="bundle")
    a = np.empty(n)
    b = np.empty(n)
    for i in range(n):
        a[i] = rgo_sample(obj, cfg_e, rng).x[0]
        b[i] = rgo_sample(obj, cfg_b, rng).x[0]
    stat = ks_2samp(a, b)
    crit = ks_critical(0.01, two_sample_n_eff(n, n))
    ok = stat < crit
    record("A8", ok, f"two-sample KS={stat:.5f} < critical {crit:.5f} (1%, n=1e5 each)")
    assert ok
