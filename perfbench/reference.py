"""Reference computations for the benchmark's correctness checks and ESS.

Everything here is computed apart from proxsamp: closed-form laws,
numerical integration with scipy, scipy's KS distributions, and numpy
implementations of ESS: split, rank-normalized bulk ESS (Vehtari, Gelman,
Simpson, Carpenter and Burkner, "Rank-normalization, folding, and
localization: an improved R-hat for assessing convergence of MCMC",
Bayesian Analysis, 2021) whose autocorrelation time comes from an AR(p) fit.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate, linalg, special, stats


# ---------------------------------------------------------------------------
# Effective sample size
# ---------------------------------------------------------------------------


def ess(chains) -> float:
    """Multi-chain ESS with Geyer's initial monotone sequence estimator.

    ``chains`` has shape (m, n).  Autocorrelations combine the within-chain
    autocovariances with the between-chain variance, as in Vehtari et al.
    (2021), eq. (10); the sum of autocorrelations is truncated at the first
    negative pair sum and the pair sums are made non-increasing.
    """
    x = np.asarray(chains, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    m, n = x.shape
    if n < 4:
        raise ValueError("ESS needs at least 4 draws per chain")
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, size, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), size, axis=1)[:, :n] / n
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        raise ValueError("ESS of a constant series is undefined")
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    negative = np.flatnonzero(pairs < 0.0)
    pairs = pairs[: negative[0]] if negative.size else pairs
    pairs = np.minimum.accumulate(pairs)
    tau = max(-1.0 + 2.0 * float(pairs.sum()), 1.0 / math.log10(m * n))
    return m * n / tau


def rank_normalize(chains) -> np.ndarray:
    """Normal scores of the pooled fractional ranks, (r - 3/8) / (S + 1/4)."""
    x = np.asarray(chains, dtype=float)
    ranks = stats.rankdata(x, method="average").reshape(x.shape)
    return special.ndtri((ranks - 0.375) / (x.size + 0.25))


AR_MAX_ORDER = 40  # largest AR order bulk_ess tries


def ar_ess(chains, max_order: int = AR_MAX_ORDER) -> float:
    """Multi-chain ESS from the spectral density at zero of an AR(p) fit.

    ``chains`` has shape (m, n).  Autocovariances about the grand mean are
    averaged over chains (so chains that disagree lower the ESS), AR(p) is
    fitted by Yule-Walker for p = 1..max_order and p chosen by AIC, as in
    coda's ``effectiveSize`` (Plummer, Best, Cowles and Vines, R News
    2006).  ESS = m n gamma_0 (1 - sum phi)^2 / sigma^2.
    """
    x = np.asarray(chains, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    m, n = x.shape
    if n < 10 * max_order:
        raise ValueError(f"AR ESS needs at least {10 * max_order} draws per chain")
    centred = x - x.mean()
    size = 1 << (n + max_order).bit_length()
    spec = np.fft.rfft(centred, size, axis=1)
    acov = (np.fft.irfft(spec * np.conj(spec), size, axis=1)[:, : max_order + 1] / n).mean(axis=0)
    if acov[0] <= 0.0:
        raise ValueError("ESS of a constant series is undefined")
    best = None
    for p in range(1, max_order + 1):
        phi = linalg.solve_toeplitz(acov[:p], acov[1 : p + 1])
        sigma2 = acov[0] - phi @ acov[1 : p + 1]
        aic = m * n * math.log(sigma2) + 2 * p
        if best is None or aic < best[0]:
            best = (aic, phi, sigma2)
    _, phi, sigma2 = best
    return m * n * acov[0] * (1.0 - phi.sum()) ** 2 / sigma2


def bulk_ess(chains) -> float:
    """Bulk ESS of equal-length chains: each split in halves, all draws
    rank-normalized together, then ``ar_ess``."""
    x = np.asarray(chains, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    half = x.shape[1] // 2
    return ar_ess(rank_normalize(np.concatenate([x[:, :half], x[:, half : 2 * half]])))


# ---------------------------------------------------------------------------
# laplace-a1: Laplace(0, 1) and the regularized law exp(-|x| - mu x^2 / 2)
# ---------------------------------------------------------------------------


def laplace_cdf(x):
    """CDF of Laplace(0, 1), density exp(-|x|) / 2."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0.0, 0.5 * np.exp(np.minimum(x, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(x, 0.0)))


LAPLACE_M4 = 24.0  # E x^4 under Laplace(0, 1), which is 4!


def regularization_mu(eps: float) -> float:
    """The regularization rule mu = eps / (sqrt(2) (sqrt(M4) + ||x0 - x_min||^2)), x0 = x_min."""
    return eps / (math.sqrt(2.0) * math.sqrt(LAPLACE_M4))


class RegularizedLaplace:
    """The law proportional to exp(-|x| - mu x^2 / 2).

    The normalising constant comes from numerical integration; the mass on
    [0, t] has the closed form sqrt(pi / (2 mu)) [erfcx(a) - exp(-t - mu
    t^2 / 2) erfcx(a + t sqrt(mu / 2))] with a = 1 / sqrt(2 mu), which
    completes the square without overflow.
    """

    def __init__(self, mu: float):
        if mu <= 0.0:
            raise ValueError("mu must be > 0")
        self.mu = mu
        half, _ = integrate.quad(self.unnormalized, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        self.z = 2.0 * half

    def unnormalized(self, x):
        return np.exp(-np.abs(x) - 0.5 * self.mu * np.square(x))

    def _mass_0_to(self, t):
        s = math.sqrt(0.5 * self.mu)
        a = 1.0 / math.sqrt(2.0 * self.mu)
        return math.sqrt(math.pi / (2.0 * self.mu)) * (
            special.erfcx(a) - np.exp(-t - 0.5 * self.mu * t * t) * special.erfcx(a + t * s)
        )

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        m = self._mass_0_to(np.abs(x)) / self.z
        return np.where(x < 0.0, 0.5 - m, 0.5 + m)


def bin_probs(cdf, edges):
    """Probabilities of (-inf, e_0), [e_0, e_1), ..., [e_last, inf)."""
    c = cdf(np.asarray(edges, dtype=float))
    return np.diff(np.concatenate([[0.0], c, [1.0]]))


def histogram_tv(samples, edges, probs) -> float:
    """0.5 sum |p_hat - p| over the bins of ``bin_probs`` (tails included)."""
    samples = np.asarray(samples, dtype=float).ravel()
    counts = np.bincount(np.searchsorted(edges, samples, side="right"), minlength=len(edges) + 1)
    return 0.5 * float(np.abs(counts / samples.size - probs).sum())


def laplace_tv_gate(samples, eps: float, reps: int = 20, seed: int = 0) -> dict:
    """Histogram TV of ``samples`` to Laplace(0, 1) against eps.

    ceil(n^(1/3)) equal bins on [-8, 8] plus the two tails; the estimator's
    noise floor (mean and sd of the same TV for n exact Laplace draws) is
    simulated and added to eps as mean + 3 sd.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    edges = np.linspace(-8.0, 8.0, max(int(math.ceil(n ** (1.0 / 3.0))), 2) + 1)
    probs = bin_probs(laplace_cdf, edges)
    rng = np.random.default_rng(seed)
    floor = np.array([histogram_tv(rng.laplace(0.0, 1.0, n), edges, probs) for _ in range(reps)])
    tv = histogram_tv(samples, edges, probs)
    limit = eps + float(floor.mean()) + 3.0 * float(floor.std())
    return {"tv": tv, "limit": limit, "noise_floor_mean": float(floor.mean()), "passed": tv <= limit}


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic sup |F_n - F|."""
    s = np.sort(np.asarray(samples, dtype=float).ravel())
    n = s.size
    c = cdf(s)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - c), np.max(c - (i - 1) / n)))


def ks_gate(samples, cdf, n_eff: float, level: float) -> dict:
    """KS statistic against the asymptotic critical value at ``n_eff`` draws."""
    stat = ks_statistic(samples, cdf)
    crit = float(stats.kstwobign.isf(level)) / math.sqrt(n_eff)
    return {"ks": stat, "critical": crit, "n_eff": n_eff, "level": level, "passed": stat < crit}


# ---------------------------------------------------------------------------
# powernorm-d20-cli: f(x) = ||x||^k / k has f(X) ~ Gamma(d / k)
# ---------------------------------------------------------------------------


def batch_means_se(chains, batch: int) -> float:
    """Standard error of the grand mean from non-overlapping batch means."""
    means = []
    for chain in chains:
        chain = np.asarray(chain, dtype=float)
        nb = chain.size // batch
        means.extend(chain[: nb * batch].reshape(nb, batch).mean(axis=1))
    means = np.asarray(means)
    if means.size < 2:
        raise ValueError("need at least two batches")
    return float(means.std(ddof=1) / math.sqrt(means.size))


def gamma_mean_gate(chains, shape: float, batch: int, n_se: float = 5.0) -> dict:
    """Mean of f over all draws within n_se batch-means SE of E f = shape."""
    pooled = np.concatenate([np.asarray(c, dtype=float).ravel() for c in chains])
    mean = float(pooled.mean())
    se = batch_means_se(chains, batch)
    z = (mean - shape) / se
    return {"mean": mean, "expected": shape, "se": se, "z": z, "passed": abs(z) <= n_se}


# ---------------------------------------------------------------------------
# verify-all: the gates re-derived from the report's details
# ---------------------------------------------------------------------------

VERIFY_SUITES = ("prop-key", "sandwich", "acceptance-bounds", "bundle-bounds", "stationarity", "tv-decay")
STATIONARITY_N = 20_000  # draws per stationarity case at the suite's default size


def acceptance_bound(target: str, mode: str, dim: int) -> float:
    """Closed-form expected-proposal bound of one acceptance-bounds case.

    l1 is 0-semi-smooth, so its gap tolerance is delta = 1/d; exact mode
    has no gap.  quad_plus_l1 is composite with the same delta; the
    gaussian case runs in exact mode.
    """
    delta = 1.0 / dim if mode == "bundle" else 0.0
    if target == "l1":
        return 2.0 * math.exp(delta)
    if target == "gaussian":
        return math.exp(0.5 + delta)
    if target == "quad_plus_l1":
        return 2.0 * math.exp(0.5 + delta)
    raise KeyError(f"no closed-form bound for {target!r}")


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_strict_json(text: str):
    """json.loads that refuses NaN and +-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def verify_gates(report: dict) -> dict:
    """Suite name -> the gates that fail when re-derived from the report's details.

    Whether a suite reports ``passed`` is left to the caller.
    """
    suites = {s.get("name"): s for s in report.get("suites", [])}
    out = {}
    for name in VERIFY_SUITES:
        fails = []
        suite = suites.get(name)
        if suite is None:
            out[name] = ["missing from the report"]
            continue
        det = suite.get("details", {})
        if name == "acceptance-bounds":
            cases = det.get("cases", [])
            if len(cases) != 6:
                fails.append(f"{len(cases)} cases, expected 6")
            for c in cases:
                bound = acceptance_bound(c["target"], c["mode"], int(c["dim"]))
                if c["mean_proposals"] > bound + c["slack_3sigma"]:
                    fails.append(f"{c['target']}/{c['mode']}/d={c['dim']}: mean {c['mean_proposals']} > {bound} + slack")
                if not math.isclose(c["bound"], bound, rel_tol=1e-12):
                    fails.append(f"{c['target']}/{c['mode']}: reported bound {c['bound']} != {bound}")
        elif name == "stationarity":
            crit = float(stats.kstwo.isf(0.01, STATIONARITY_N))
            cases = det.get("cases", [])
            if len(cases) != 2:
                fails.append(f"{len(cases)} cases, expected 2")
            for c in cases:
                if not c["ks"] < crit:
                    fails.append(f"{c['target']}: KS {c['ks']} >= {crit}")
        elif name == "sandwich":
            for key in ("min_lower_slack", "min_upper_slack"):
                if not det.get(key, -math.inf) >= -1e-9:
                    fails.append(f"{key} {det.get(key)} < -1e-9")
        elif name == "bundle-bounds":
            for c in det.get("cases", []):
                if c["violations"] != 0:
                    fails.append(f"{c['target']}: {c['violations']} violations")
            if not det.get("cases"):
                fails.append("no cases")
        out[name] = fails
    return out
