"""Empirical distribution distances in 1D: histogram TV and KS statistics."""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .quadrature import QuadratureDensity

Array = np.ndarray


def default_bins(n_samples: int) -> int:
    return max(int(math.ceil(n_samples ** (1.0 / 3.0))), 2)


def tv_hist(samples: Array, truth: QuadratureDensity, bins: Optional[int] = None) -> float:
    """0.5 * sum |p_hat - p| over a histogram aligned with the truth's grid (1D).

    The histogram estimator is biased low for smooth deviations at small
    bin counts; bins defaults to ceil(n^(1/3)).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n, d = samples.shape
    if n == 0:
        raise ValueError("samples must be nonempty")
    if d != 1 or truth.dim != 1:
        raise ValueError(f"tv_hist is 1D only: samples have dim {d}, truth has dim {truth.dim}")
    ax = truth.axes[0]
    edges = np.linspace(ax[0], ax[-1], (bins or default_bins(n)) + 1)
    p = truth.bin_probs(edges)
    counts, _ = np.histogram(samples[:, 0], bins=edges)
    p_hat = counts / n
    outside = 1.0 - counts.sum() / n
    return 0.5 * (float(np.sum(np.abs(p_hat - p))) + outside + (1.0 - p.sum()))


def ks_1samp(samples: Array, cdf: Callable[[Array], Array]) -> float:
    """One-sample KS statistic against a CDF callable (1D).

    ``cdf`` maps sorted sample values to CDF values, e.g. an analytic CDF
    or a quadrature truth's ``cdf_at``.
    """
    s = np.sort(np.asarray(samples, dtype=float).ravel())
    n = s.size
    c = np.asarray(cdf(s), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - c), np.max(c - (i - 1) / n)))


def ks_2samp(a: Array, b: Array) -> float:
    """Two-sample KS statistic (max ECDF gap over the pooled sample)."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    pooled = np.concatenate([a, b])
    ca = np.searchsorted(a, pooled, side="right") / a.size
    cb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(ca - cb)))


def ks_critical(level: float, n_eff: float) -> float:
    """Asymptotic critical value at the given significance level."""
    from scipy.special import kolmogi

    return float(kolmogi(level)) / math.sqrt(n_eff)


def two_sample_n_eff(n1: int, n2: int) -> float:
    return n1 * n2 / (n1 + n2)
