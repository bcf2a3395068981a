"""Verification suites: the desk-scale checks of the paper's bounds.

Each suite is a plain function returning a CheckReport; the CLI ``verify``
subcommand dispatches on suite name.  This module is the one
implementation of these checks: the acceptance tests A2-A7 call the same
suites and their per-case functions (``proposal_case``, ``bundle_case``)
with the same seeds, only at their full stated sizes, while the defaults
here run in seconds.
"""

from __future__ import annotations

import math

import numpy as np

from .bundle import (
    ProxObjective,
    gap_start_bound,
    iteration_bound_composite,
    iteration_bound_semismooth,
    prox_bundle,
)
from .chain import ChainConfig, gibbs_step, run_chain, select_params_composite
from .checks import CheckReport, check_prop_key_bound, default_prop_key_grid, sandwich_suite, wendel_check
from .metrics import ks_1samp, ks_critical
from .potentials import Potential, RegularizedTarget, default_zoo, make_gaussian, make_l1
from .rejection import RgoConfig, rejection_bound, rgo_sample


def suite_prop_key() -> CheckReport:
    """Modified-Gaussian bound on the canonical 50-point grid, plus the
    gamma-ratio inequality it rests on."""
    key = check_prop_key_bound(default_prop_key_grid())
    wendel = wendel_check(
        t_grid=np.linspace(0.1, 50.0, 25), s_grid=np.linspace(0.02, 0.98, 25)
    )
    return CheckReport(
        name="prop-key",
        passed=key.passed and wendel.passed,
        details={
            "worst_ratio": key.details["worst_ratio"],
            "n_points": key.details["n_points"],
            "wendel_worst_log_slack": wendel.details["worst_log_slack"],
        },
    )


def suite_sandwich(probes_per_case: int = 400, n_draws: int = 10) -> CheckReport:
    """Envelope sandwich across the zoo at d = 2, exact and bundle lower forms.

    Passes iff every case passes; a NaN slack in any case fails the suite
    and is reported.
    """
    rng = np.random.default_rng(7)
    reports = []
    for name, pot in default_zoo(2).items():
        eta, delta = select_params_composite(pot.profile, pot.dim)
        for mu in (0.0, 0.1):
            target = RegularizedTarget(pot, mu, np.zeros(pot.dim))
            for _ in range(n_draws):
                y = rng.standard_normal(pot.dim) * 2.0
                obj = ProxObjective(target, eta, y)
                reports.append(sandwich_suite(obj, probes_per_case, rng))
                res = prox_bundle(obj, delta)
                reports.append(sandwich_suite(obj, probes_per_case, rng, bundle_result=res))
    return CheckReport(
        name="sandwich",
        passed=all(rep.passed for rep in reports),
        details={
            "min_lower_slack": float(np.min([rep.min_lower_slack for rep in reports])),
            "min_upper_slack": float(np.min([rep.min_upper_slack for rep in reports])),
            "n_probes": sum(rep.n_probes for rep in reports),
        },
    )


def proposal_case(name: str, pot: Potential, mode: str, n_calls: int, seed: int) -> dict:
    """Mean proposals per accepted sample against the regime bound.

    Runs ``rgo_sample`` at the regime step size for n_calls auxiliary points
    y = 2 z; the case passes when the step-size condition holds and the mean
    is within 3 standard errors above the bound.
    """
    dim = pot.dim
    eta, delta = select_params_composite(pot.profile, dim)
    cfg = RgoConfig(eta=eta, delta=delta if mode == "bundle" else 0.0, mode=mode)
    target = RegularizedTarget(pot, 0.0, np.zeros(dim))
    rng = np.random.default_rng(seed)
    counts = np.empty(n_calls)
    for i in range(n_calls):
        obj = ProxObjective(target, eta, 2.0 * rng.standard_normal(dim))
        counts[i] = rgo_sample(obj, cfg, rng).rejections + 1
    bound = rejection_bound(cfg, pot.profile, dim)
    mean = float(counts.mean())
    slack = 3.0 * float(counts.std()) / math.sqrt(n_calls)
    return {
        "target": name,
        "mode": mode,
        "dim": dim,
        "mean_proposals": mean,
        "bound": bound,
        "slack_3sigma": slack,
        "passed": math.isfinite(bound) and mean <= bound + slack,
    }


def suite_acceptance_bounds(n_calls: int = 2000) -> CheckReport:
    """Empirical proposals-per-sample vs the regime bound, 3 sigma slack."""
    cases = [("l1", make_l1(dim, 1.0), mode) for dim in (1, 5) for mode in ("exact", "bundle")]
    cases.append(("gaussian", make_gaussian(5, np.ones(5)), "exact"))
    cases.append(("quad_plus_l1", default_zoo(5)["quad_plus_l1"], "bundle"))
    entries = [
        proposal_case(name, pot, mode, n_calls, seed=100 + i)
        for i, (name, pot, mode) in enumerate(cases)
    ]
    passed = all(e["passed"] for e in entries)
    return CheckReport(name="acceptance-bounds", passed=passed, details={"cases": entries})


def bundle_case(name: str, pot: Potential, n_draws: int, seed: int) -> dict:
    """Bundle iterations J against the recursion bound J0, per target.

    Runs ``prox_bundle`` at the regime parameters for n_draws auxiliary
    points y = 2 z.  A draw violates when J > max(1, J0) or when its first
    gap exceeds ``gap_start_bound``; the case passes with no violation and
    median J <= 10.
    """
    dim = pot.dim
    prof = pot.profile
    eta, delta = select_params_composite(prof, dim)
    target = RegularizedTarget(pot, 0.0, np.zeros(dim))
    rng = np.random.default_rng(seed)
    iters = np.empty(n_draws, dtype=int)
    violations = 0
    for i in range(n_draws):
        obj = ProxObjective(target, eta, 2.0 * rng.standard_normal(dim))
        res = prox_bundle(obj, delta)
        t1 = res.gaps[0]
        if prof.l_one > 0:
            j0 = iteration_bound_composite(
                obj.eta_mu, prof.l_alpha, prof.alpha, prof.l_one, delta, t1
            )
        else:
            j0 = iteration_bound_semismooth(obj.eta_mu, prof.l_alpha, prof.alpha, delta, t1)
        if res.iterations > max(1, j0):
            violations += 1
        if t1 > gap_start_bound(obj) + 1e-10:
            violations += 1
        iters[i] = res.iterations
    med = float(np.median(iters))
    return {
        "target": name,
        "median_iters": med,
        "max_iters": int(iters.max()),
        "violations": violations,
        "passed": violations == 0 and med <= 10.0,
    }


def suite_bundle_bounds(n_draws: int = 200) -> CheckReport:
    """Measured iteration counts vs the worst-case recursion bound, per
    target of the d = 5 zoo."""
    entries = [
        bundle_case(name, pot, n_draws, seed=400 + i)
        for i, (name, pot) in enumerate(default_zoo(5).items())
    ]
    passed = all(e["passed"] for e in entries)
    return CheckReport(name="bundle-bounds", passed=passed, details={"cases": entries})


def suite_stationarity(n: int = 20000) -> CheckReport:
    """Stationary-start one-step KS for Gaussian and Laplace-type targets.

    Each case draws n exact points of the target, runs one exact-mode Gibbs
    sweep from each, and compares the results with the target's CDF.
    """
    from scipy.special import ndtr

    cases = (
        ("gaussian", make_gaussian(1, (1.0,)), 21, ndtr),
        ("laplace", make_l1(1, 1.0), 22, _laplace_cdf),
    )
    crit = ks_critical(0.01, n)
    entries = []
    for name, pot, seed, cdf in cases:
        eta, _ = select_params_composite(pot.profile, 1)
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(1)), eta, np.zeros(1))
        cfg = RgoConfig(eta=eta, mode="exact")
        rng = np.random.default_rng(seed)
        x0 = pot.sample_exact(rng, n)
        out = np.empty(n)
        for i in range(n):
            _, s = gibbs_step(x0[i], obj, cfg, rng)
            out[i] = s.x[0]
        entries.append({"target": name, "ks": ks_1samp(out, cdf), "critical_1pct": crit})
    passed = all(e["ks"] < crit for e in entries)
    return CheckReport(name="stationarity", passed=passed, details={"cases": entries})


def _laplace_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.5 * np.exp(x), 1.0 - 0.5 * np.exp(-x))


def suite_tv_decay(n_chains: int = 2000) -> CheckReport:
    """The law after k sweeps from x = 3 on f(x) = lam x^2/2 (exact mode,
    mu = 0) against its closed form: a sweep draws y ~ N(x, eta), then x ~
    N(a y, a eta), a = 1/(1 + lam eta).  Per checkpoint, a KS and a two-sided
    chi-square test of the standardized draws, 1% overall (Bonferroni).  The
    benchmark harness reads the name, kept from the histogram TV once gated."""
    from scipy.special import chdtrc, ndtr

    k_max, x0, lam = 40, 3.0, 1.0
    checkpoints = [1, 2, 3, 5, 10, k_max]
    pot = make_gaussian(1, (lam,))
    eta, _ = select_params_composite(pot.profile, 1)
    cfg_proto = dict(eta=eta, delta=1.0, mu=0.0, center_x0=(0.0,), regime="composite", rgo_mode="exact")
    snaps = np.empty((n_chains, len(checkpoints)))
    for c in range(n_chains):
        cfg = ChainConfig(n_iters=k_max, seed=5000 + c, **cfg_proto)
        snaps[c] = run_chain(pot, cfg, x_init=np.array([x0])).iterates[checkpoints, 0]

    a = 1.0 / (1.0 + lam * eta)
    level = 0.01 / (2 * len(checkpoints))
    crit = ks_critical(level, n_chains)
    laws = [(x0, 0.0)]  # (m_k, v_k), the mean and variance of x_k
    for _ in range(k_max):
        m, v = laws[-1]
        laws.append((a * m, a * a * (v + eta) + a * eta))
    entries = []
    for k, x in zip(checkpoints, snaps.T):
        m, v = laws[k]
        z = (x - m) / math.sqrt(v)
        upper = float(chdtrc(n_chains, z @ z))
        entries.append({"k": k, "mean": m, "var": v, "ks": ks_1samp(z, ndtr),
                        "ks_critical": crit, "chi2_p": 2.0 * min(upper, 1.0 - upper)})
    passed = all(e["ks"] < crit and e["chi2_p"] > level for e in entries)
    details = {"checkpoints": checkpoints, "level_per_test": level, "cases": entries}
    return CheckReport(name="tv-decay", passed=passed, details=details)


SUITES = {
    "prop-key": suite_prop_key,
    "sandwich": suite_sandwich,
    "acceptance-bounds": suite_acceptance_bounds,
    "bundle-bounds": suite_bundle_bounds,
    "stationarity": suite_stationarity,
    "tv-decay": suite_tv_decay,
}


def run_suites(names) -> list:
    reports = []
    for name in names:
        if name not in SUITES:
            raise ValueError(
                f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}, all"
            )
        reports.append(SUITES[name]())
    return reports
