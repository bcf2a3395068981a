"""Deterministic quadrature ground truth for densities exp(-f), d <= 2.

One tensor-product lattice serves d = 1 and d = 2: each axis is bracketed
on the slice through ``center`` until f clears its minimum by the tail
threshold, every lattice point is tabulated once, and one composite Simpson
rule integrates normalizers, moments and KL terms.  The lattice is
tabulated in one call when the function is a row-capable oracle
(``potentials.takes_rows``: every zoo ``value``, ``RegularizedTarget.value``
and ``ProxObjective.value``), else one call per point, with the same
bits.  A lattice whose boundary cells hold more than ``TRUNCATION_BUDGET``
of the mass is refused.
The only adaptive piece is the radial integral used by the modified-Gaussian
bound, delegated to scipy's quad.  scipy is imported inside that integral,
so building and querying a lattice loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .potentials import _finite_real, _integer_at_least, value_rows

Array = np.ndarray

# f - f_min threshold beyond which mass is treated as negligible: edge
# density e^-25 integrates to ~1e-11 for exp-decay tails, three orders
# below TRUNCATION_BUDGET, while keeping lattices fine enough for the 1e-7
# normalizer self-consistency target
TAIL_THRESHOLD = 25.0

# largest share of the mass ``build`` accepts in the lattice's boundary cells
TRUNCATION_BUDGET = 1e-8


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


def _tabulate(fn: Callable[[Array], float], axes: tuple) -> Array:
    """fn at every lattice point, in the lattice's shape.  The points are
    the rows of one (N, d) array: a ``takes_rows`` oracle gets them in one
    call, any other fn one shape-(d,) view at a time."""
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack(grids, axis=-1).reshape(-1, len(axes))
    return value_rows(fn, points).reshape(grids[0].shape)


def _simpson(axes: tuple, *factors: Array) -> float:
    """Composite Simpson integral over the lattice of the product of
    ``factors``: the outer product of the per-axis weights, times the
    cell volume."""
    w = _simpson_weights(axes[0].size)
    for x in axes[1:]:
        w = np.multiply.outer(w, _simpson_weights(x.size))
    for a in factors:
        w = w * a
    return float(np.sum(w)) * math.prod(x[1] - x[0] for x in axes)


@dataclass(eq=False)
class QuadratureDensity:
    """Normalized density exp(-f)/Z tabulated on a uniform lattice, d <= 2.

    ``logpot`` and ``density`` have the lattice's shape, one axis per
    coordinate; ``log_z`` is the log normalizer of exp(-f).
    ``truncation_error`` is the share of the mass in the boundary cells,
    which ``build`` keeps within ``TRUNCATION_BUDGET``.  In 1D ``cdf`` backs
    KS tests and histogram bins.
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
    ) -> "QuadratureDensity":
        """Tabulate exp(-f) on a lattice bracketing the slices through
        ``center``; raise ``ValueError`` when the boundary cells hold more
        than ``TRUNCATION_BUDGET`` of the mass (f decays slowly off the
        axes through ``center``)."""
        if dim not in (1, 2):
            raise ValueError("quadrature ground truth supports d <= 2 only")
        if center is None:
            center = np.zeros(dim)
        center = np.atleast_1d(np.asarray(center, dtype=float))
        # wide-span slowly decaying 2D targets may need n_points raised; the
        # default serves the narrow proximal targets and fast-decay zoo
        n = n_points or (8193 if dim == 1 else 641)
        if n % 2 == 0:
            n += 1
        axes = []
        for k in range(dim):

            def f_axis(t, k=k):
                p = center.copy()
                p[k] = t[0]
                return f(p)

            lo, hi = _expand_bounds_1d(f_axis, float(center[k]), TAIL_THRESHOLD)
            axes.append(_snapped_grid(lo, hi, float(center[k]), n))
        axes = tuple(axes)

        fv = _tabulate(f, axes)
        fmin = float(np.min(fv))
        dens = np.exp(-(fv - fmin))
        z_shift = _simpson(axes, dens)
        log_z = math.log(z_shift) - fmin
        # each lattice point owns one cell of the uniform lattice
        edge = np.ones(dens.shape, dtype=bool)
        edge[(slice(1, -1),) * dim] = False
        trunc = float(np.sum(dens[edge]) / np.sum(dens))
        if trunc > TRUNCATION_BUDGET:
            raise ValueError(
                f"quadrature lattice misses {trunc:.1e} of the mass, above the "
                f"{TRUNCATION_BUDGET:g} budget: exp(-f) reaches past the box "
                "bracketed on the axes through the center"
            )

        norm = dens / z_shift
        cdf = None
        if dim == 1:
            h = axes[0][1] - axes[0][0]
            cdf = np.concatenate([[0.0], np.cumsum((norm[1:] + norm[:-1]) * 0.5 * h)])
            cdf /= cdf[-1]
        return cls(dim=dim, axes=axes, logpot=fv, log_z=log_z, density=norm, cdf=cdf,
                   truncation_error=trunc)

    # -- 1D helpers ---------------------------------------------------------

    def cdf_at(self, x) -> Array:
        if self.dim != 1:
            raise ValueError("cdf_at is 1D only")
        return np.interp(np.asarray(x, dtype=float), self.axes[0], self.cdf)

    def moment(self, fn: Callable[[Array], float]) -> float:
        """E[fn(x)] under the normalized density (Simpson)."""
        return _simpson(self.axes, _tabulate(fn, self.axes), self.density)

    def bin_probs(self, edges: Array) -> Array:
        """Probability mass per histogram bin (1D, from the CDF)."""
        if self.dim != 1:
            raise ValueError("bin_probs is 1D only")
        c = self.cdf_at(edges)
        return np.diff(c)


def kl_divergence(logpdf0: Callable[[Array], float], truth: QuadratureDensity) -> float:
    """KL(rho0 || pi) where rho0 has known log-pdf and pi is the quadrature truth."""
    lp0 = _tabulate(logpdf0, truth.axes)
    return _simpson(truth.axes, np.exp(lp0) * (lp0 - (-truth.logpot - truth.log_z)))


# ---------------------------------------------------------------------------
# Modified Gaussian integral
# ---------------------------------------------------------------------------


def _log_radial_integral(alpha: float, a_tilde: float, d: int) -> float:
    """log of G = int_0^inf exp(-s^2/2 - a_tilde s^(alpha+1)) s^(d-1) ds."""
    from scipy.integrate import quad

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
    _finite_real(eta, "eta")
    _finite_real(a, "a", strict=False)
    _integer_at_least(d, "d", 1)
    a_tilde = a * eta ** ((alpha + 1.0) / 2.0)
    log_g = _log_radial_integral(alpha, a_tilde, d)
    log_f0 = (0.5 * d - 1.0) * math.log(2.0) + math.lgamma(0.5 * d)
    return math.exp(math.log(2.0) + log_g - log_f0)
