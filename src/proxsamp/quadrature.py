"""Deterministic quadrature ground truth for densities exp(-f), d <= 2.

Composite Simpson on fixed grids with tail-driven truncation gives a
reproducible oracle for normalizers, CDFs, moments and KL terms.  The only
adaptive piece is the radial integral used by the modified-Gaussian bound,
delegated to scipy's quad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

Array = np.ndarray

# f - f_min threshold beyond which mass is treated as negligible: edge
# density e^-25 integrates to ~1e-11 for exp-decay tails, three orders
# below the 1e-8 truncation budget, while keeping lattices fine enough for
# the 1e-7 normalizer self-consistency target
TAIL_THRESHOLD = 25.0


def _simpson_weights(n: int) -> Array:
    if n % 2 == 0:
        raise ValueError("composite Simpson needs an odd point count")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _expand_bounds_1d(f: Callable, center: float, threshold: float):
    """Grow [lo, hi] around the minimum until f clears f_min + threshold."""
    span = 1.0
    f_center = f(np.array([center]))
    lo, hi = center - span, center + span
    for _ in range(200):
        grown = False
        if f(np.array([lo])) - f_center < threshold:
            lo -= span
            span *= 1.5
            grown = True
        if f(np.array([hi])) - f_center < threshold:
            hi += span
            span *= 1.5
            grown = True
        if not grown:
            return lo, hi
    raise RuntimeError("could not bracket the density support (non-integrable f?)")


def _snapped_grid(lo: float, hi: float, anchor: float, n_points: int) -> Array:
    """Uniform grid covering [lo, hi] with ``anchor`` on an even lattice index.

    Zoo potentials kink at their minimizer; placing it on a Simpson panel
    boundary keeps every panel smooth and retains the O(h^4) rate.
    """
    h = (hi - lo) / (n_points - 1)
    m_left = max(1, math.ceil((anchor - lo) / (2.0 * h)))
    m_right = max(1, math.ceil((hi - anchor) / (2.0 * h)))
    n = 2 * (m_left + m_right) + 1
    return anchor + (np.arange(n) - 2 * m_left) * h


@dataclass(eq=False)
class QuadratureDensity:
    """Normalized density exp(-f)/Z tabulated on a uniform lattice.

    1D: stores a CDF for KS tests and inverse-CDF draws.  ``log_z`` is the
    log normalizer of exp(-f); ``truncation_error`` estimates the mass lost
    outside the grid from the convex tail bound exp(-f(edge))/|f'(edge)|.
    """

    dim: int
    axes: tuple
    logpot: Array
    log_z: float
    density: Array
    cdf: Optional[Array] = None
    truncation_error: float = 0.0

    @classmethod
    def build(
        cls,
        f: Callable[[Array], float],
        dim: int,
        center: Optional[Array] = None,
        n_points: Optional[int] = None,
        threshold: float = TAIL_THRESHOLD,
    ) -> "QuadratureDensity":
        if dim not in (1, 2):
            raise ValueError("quadrature ground truth supports d <= 2 only")
        if center is None:
            center = np.zeros(dim)
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if dim == 1:
            return cls._build_1d(f, float(center[0]), n_points or 8193, threshold)
        # wide-span slowly decaying 2D targets may need n_points raised; the
        # default serves the narrow proximal targets and fast-decay zoo
        return cls._build_2d(f, center, n_points or 641, threshold)

    @classmethod
    def _build_1d(cls, f, center, n_points, threshold):
        if n_points % 2 == 0:
            n_points += 1
        lo, hi = _expand_bounds_1d(f, center, threshold)
        x = _snapped_grid(lo, hi, center, n_points)
        fv = np.array([f(np.array([xi])) for xi in x])
        fmin = float(np.min(fv))
        h = x[1] - x[0]
        n_points = x.size
        dens = np.exp(-(fv - fmin))
        z_shift = float(np.sum(_simpson_weights(n_points) * dens)) * h
        log_z = math.log(z_shift) - fmin

        # convex tail bound: mass beyond an edge <= density(edge)/slope(edge)
        slope_r = (fv[-1] - fv[-2]) / h
        slope_l = (fv[0] - fv[1]) / h
        trunc = 0.0
        if slope_r > 0:
            trunc += dens[-1] / slope_r / z_shift
        if slope_l > 0:
            trunc += dens[0] / slope_l / z_shift

        norm = dens / z_shift
        cdf = np.concatenate([[0.0], np.cumsum((norm[1:] + norm[:-1]) * 0.5 * h)])
        cdf /= cdf[-1]
        return cls(
            dim=1,
            axes=(x,),
            logpot=fv,
            log_z=log_z,
            density=norm,
            cdf=cdf,
            truncation_error=trunc,
        )

    @classmethod
    def _build_2d(cls, f, center, n_points, threshold):
        n = n_points
        if n % 2 == 0:
            n += 1
        axes = []
        for k in range(2):

            def f_axis(t, k=k):
                p = center.copy()
                p[k] = t[0]
                return f(p)

            lo, hi = _expand_bounds_1d(f_axis, float(center[k]), threshold)
            axes.append(_snapped_grid(lo, hi, float(center[k]), n))
        fv = np.empty((axes[0].size, axes[1].size))
        for i, xi in enumerate(axes[0]):
            for j, yj in enumerate(axes[1]):
                fv[i, j] = f(np.array([xi, yj]))
        fmin = float(fv.min())
        dens = np.exp(-(fv - fmin))
        hx = axes[0][1] - axes[0][0]
        hy = axes[1][1] - axes[1][0]
        wx = _simpson_weights(axes[0].size)
        wy = _simpson_weights(axes[1].size)
        z_shift = float(wx @ dens @ wy) * hx * hy
        log_z = math.log(z_shift) - fmin
        # crude but conservative: boundary rows/columns carry ~e^-threshold mass
        edge = (
            dens[0, :].sum() + dens[-1, :].sum() + dens[:, 0].sum() + dens[:, -1].sum()
        )
        trunc = edge * hx * hy / z_shift
        return cls(
            dim=2,
            axes=tuple(axes),
            logpot=fv,
            log_z=log_z,
            density=dens / z_shift,
            cdf=None,
            truncation_error=trunc,
        )

    # -- 1D helpers ---------------------------------------------------------

    def cdf_at(self, x) -> Array:
        if self.dim != 1:
            raise ValueError("cdf_at is 1D only")
        return np.interp(np.asarray(x, dtype=float), self.axes[0], self.cdf)

    def quantile(self, u) -> Array:
        if self.dim != 1:
            raise ValueError("quantile is 1D only")
        return np.interp(np.asarray(u, dtype=float), self.cdf, self.axes[0])

    def sample(self, rng: np.random.Generator, n: int) -> Array:
        """Inverse-CDF draws (1D), used to calibrate estimator noise."""
        return self.quantile(rng.random(n))

    def moment(self, fn: Callable[[Array], float]) -> float:
        """E[fn(x)] under the normalized density (Simpson)."""
        if self.dim == 1:
            x = self.axes[0]
            vals = np.array([fn(np.array([xi])) for xi in x])
            w = _simpson_weights(x.size)
            return float(np.sum(w * vals * self.density)) * (x[1] - x[0])
        ax, ay = self.axes
        vals = np.empty_like(self.density)
        for i, xi in enumerate(ax):
            for j, yj in enumerate(ay):
                vals[i, j] = fn(np.array([xi, yj]))
        hx = ax[1] - ax[0]
        hy = ay[1] - ay[0]
        wx = _simpson_weights(ax.size)
        wy = _simpson_weights(ay.size)
        return float(wx @ (vals * self.density) @ wy) * hx * hy

    def bin_probs(self, edges: Array) -> Array:
        """Probability mass per histogram bin (1D, from the CDF)."""
        if self.dim != 1:
            raise ValueError("bin_probs is 1D only")
        c = self.cdf_at(edges)
        return np.diff(c)


def kl_divergence(logpdf0: Callable[[Array], float], truth: QuadratureDensity) -> float:
    """KL(rho0 || pi) where rho0 has known log-pdf and pi is the quadrature truth."""
    log_z = truth.log_z

    def integrand(x):
        lp0 = logpdf0(x)
        return math.exp(lp0) * (lp0 - (-_logpot_at(truth, x) - log_z))

    if truth.dim != 1:
        raise ValueError("kl_divergence implemented for 1D truths")
    x = truth.axes[0]
    w = _simpson_weights(x.size)
    vals = np.array([integrand(np.array([xi])) for xi in x])
    return float(np.sum(w * vals)) * (x[1] - x[0])


def _logpot_at(truth: QuadratureDensity, x: Array) -> float:
    return float(np.interp(float(x[0]), truth.axes[0], truth.logpot))


# ---------------------------------------------------------------------------
# Modified Gaussian integral
# ---------------------------------------------------------------------------


def _log_radial_integral(alpha: float, a_tilde: float, d: int) -> float:
    """log of G = int_0^inf exp(-s^2/2 - a_tilde s^(alpha+1)) s^(d-1) ds."""

    def phi(s):
        if s <= 0.0:
            return -math.inf if d > 1 else -a_tilde * 0.0
        return -0.5 * s * s - a_tilde * s ** (alpha + 1.0) + (d - 1) * math.log(s)

    # normalizer from a coarse scan over the unimodal log-integrand
    s_peak = math.sqrt(max(d - 1, 1e-12))
    scan = np.geomspace(1e-6, 4.0 * s_peak + 4.0, 64)
    m = max(phi(float(s)) for s in scan)
    s_hi = s_peak + 2.0
    while phi(s_hi) - m > -2.0 * TAIL_THRESHOLD:
        s_hi *= 2.0

    val, err = quad(
        lambda s: math.exp(phi(s) - m),
        0.0,
        s_hi,
        epsabs=0.0,
        epsrel=1e-11,
        limit=400,
    )
    if not math.isfinite(val) or val <= 0:
        raise ValueError("radial quadrature failed")
    if err / val > 1e-8:
        raise ValueError(f"radial quadrature above tolerance: rel err {err / val:.2e}")
    return m + math.log(val)


def modified_gaussian_ratio(alpha: float, eta: float, a: float, d: int) -> float:
    """int exp(-||x||^2/(2 eta) - a ||x||^(alpha+1)) dx over R^d, divided by
    half the Gaussian integral (2 pi eta)^(d/2) / 2.

    Reduced to a radial integral against the unit-sphere surface area
    2 pi^(d/2)/Gamma(d/2), evaluated adaptively to 1e-8 relative error and
    combined in log space.  With a = 0 the ratio is 2.
    """
    if eta <= 0 or a < 0 or d < 1:
        raise ValueError("need eta > 0, a >= 0, d >= 1")
    a_tilde = a * eta ** ((alpha + 1.0) / 2.0)
    log_g = _log_radial_integral(alpha, a_tilde, d)
    log_f0 = (0.5 * d - 1.0) * math.log(2.0) + math.lgamma(0.5 * d)
    return math.exp(math.log(2.0) + log_g - log_f0)
