"""Convex potentials: value/subgradient oracles plus smoothness metadata.

A potential is the negative log-density f of a target ``exp(-f)``.  Each
potential declares a smoothness profile (Holder exponent and coefficients
for its subgradient) that downstream step-size rules and complexity bounds
consume.  ``validate_profile`` checks a declared profile empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class SmoothnessProfile:
    """Subgradient regularity: ||f'(u)-f'(v)|| <= l_alpha*||u-v||^alpha + l_one*||u-v||.

    alpha=0 is the Lipschitz-function (bounded subgradient variation) case,
    alpha=1 is gradient-Lipschitz smoothness.  ``lambda_strong`` is the
    strong-convexity modulus (0 when merely convex).
    """

    alpha: float
    l_alpha: float
    l_one: float = 0.0
    lambda_strong: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.l_alpha < 0 or self.l_one < 0 or self.lambda_strong < 0:
            raise ValueError("smoothness coefficients must be >= 0")

    def holder_bound(self, dist: float) -> float:
        """Declared upper bound on ||f'(u)-f'(v)|| at ||u-v|| = dist."""
        return self.l_alpha * dist**self.alpha + self.l_one * dist


@dataclass(frozen=True, eq=False)
class Potential:
    """Convex potential on R^d with oracles and optional closed forms.

    ``value`` and ``subgrad`` accept a shape-(dim,) array; ``subgrad`` may
    return any subdifferential element.  ``prox``, when present, maps
    (eta, y) to argmin f + ||.-y||^2/(2 eta).  ``sample_exact`` draws n iid
    points from exp(-f) (the l1 and Gaussian families provide it).
    ``fourth_moment`` is the analytic value of E||x - x_min||^4 under
    exp(-f) when known; every ``default_zoo`` target has one.
    """

    dim: int
    value: Callable[[Array], float]
    subgrad: Callable[[Array], Array]
    profile: SmoothnessProfile
    prox: Optional[Callable[[float, Array], Array]] = None
    x_min: Optional[Array] = None
    sample_exact: Optional[Callable[[np.random.Generator, int], Array]] = None
    fourth_moment: Optional[float] = None
    name: str = "custom"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")


@dataclass(frozen=True, eq=False)
class RegularizedTarget:
    """g = f + (mu/2) ||. - center||^2; mu > 0 makes g mu-strongly convex."""

    base: Potential
    mu: float
    center: Array

    def __post_init__(self):
        if not 0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.shape != (self.base.dim,):
            raise ValueError(
                f"center has shape {center.shape}, expected ({self.base.dim},)"
            )
        if not np.all(np.isfinite(center)):
            raise ValueError(f"center must be finite, got {center.tolist()}")
        object.__setattr__(self, "center", center)

    def value(self, x: Array) -> float:
        return self._value(_check_point(x, self.base.dim))

    def _value(self, x: Array, f_x=None) -> float:
        """``value`` at a shape-(dim,) float array, without the shape check.

        ``f_x`` is f(x) when the caller has already queried it.
        """
        if f_x is None:
            f_x = self.base.value(x)
        dx = x - self.center
        return float(f_x) + 0.5 * self.mu * float(dx @ dx)

    def subgrad(self, x: Array) -> Array:
        x = _check_point(x, self.base.dim)
        return np.asarray(self.base.subgrad(x), dtype=float) + self.mu * (
            x - self.center
        )


def _check_point(x, dim: int) -> Array:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({dim},)")
    return x


@dataclass(frozen=True)
class ProfileReport:
    """Empirical check of a declared profile over sampled pairs."""

    max_smoothness_violation: float
    max_convexity_violation: float
    worst_pair_dist: float
    n_pairs: int
    tol: float
    passed: bool


def sample_in_ball(rng: np.random.Generator, dim: int, radius: float) -> Array:
    """Uniform draw from the centered Euclidean ball."""
    z = rng.standard_normal(dim)
    z /= np.linalg.norm(z) + 1e-300
    r = radius * rng.random() ** (1.0 / dim)
    return r * z


# largest violation ``validate_profile`` forgives as rounding
PROFILE_TOL = 1e-8


def validate_profile(
    p: Potential,
    n_pairs: int,
    radius: float,
    rng: np.random.Generator,
) -> ProfileReport:
    """Sample point pairs in a ball and test the declared subgradient bound.

    Also checks the convexity inequality f(v) >= f(u) + <f'(u), v-u> on the
    same pairs.  Passes iff both max violations are <= ``PROFILE_TOL``.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    worst_smooth = 0.0
    worst_convex = 0.0
    worst_dist = 0.0
    for _ in range(n_pairs):
        u = sample_in_ball(rng, p.dim, radius)
        v = sample_in_ball(rng, p.dim, radius)
        gu = np.asarray(p.subgrad(u), dtype=float)
        gv = np.asarray(p.subgrad(v), dtype=float)
        dist = float(np.linalg.norm(u - v))
        viol = float(np.linalg.norm(gu - gv)) - p.profile.holder_bound(dist)
        if viol > worst_smooth:
            worst_smooth = viol
            worst_dist = dist
        fu = float(p.value(u))
        fv = float(p.value(v))
        cviol = fu + float(gu @ (v - u)) - fv
        worst_convex = max(worst_convex, cviol)
    return ProfileReport(
        max_smoothness_violation=worst_smooth,
        max_convexity_violation=worst_convex,
        worst_pair_dist=worst_dist,
        n_pairs=n_pairs,
        tol=PROFILE_TOL,
        passed=(worst_smooth <= PROFILE_TOL and worst_convex <= PROFILE_TOL),
    )


# ---------------------------------------------------------------------------
# Test-potential zoo.  Subgradients at kinks use the zero-including element
# (np.sign convention), which keeps cutting-plane models deterministic.
# ---------------------------------------------------------------------------


def make_l1(dim: int, scale: float = 1.0) -> Potential:
    """f(x) = scale * ||x||_1.

    Declared alpha=0 coefficient is the subgradient-set diameter
    2*scale*sqrt(dim), the tightest constant for which the profile
    inequality holds verbatim.  Prox is the soft-threshold.
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")
    s = float(scale)

    def value(x):
        return s * float(np.abs(x).sum())

    def subgrad(x):
        return s * np.sign(x)

    def prox(eta, y):
        y = np.asarray(y, dtype=float)
        return np.sign(y) * np.maximum(np.abs(y) - eta * s, 0.0)

    def sample(rng, n):
        # coordinates iid Laplace with rate `s`
        return rng.laplace(scale=1.0 / s, size=(n, dim))

    # E||x||^4 for iid Laplace(1/s) coordinates
    m4 = (24.0 * dim + 4.0 * dim * (dim - 1)) / s**4
    return Potential(
        dim=dim,
        value=value,
        subgrad=subgrad,
        profile=SmoothnessProfile(alpha=0.0, l_alpha=2.0 * s * math.sqrt(dim)),
        prox=prox,
        x_min=np.zeros(dim),
        sample_exact=sample,
        fourth_moment=m4,
        name="l1",
    )


def make_power_norm(dim: int, alpha: float, c: float = 1.0) -> Potential:
    """f(x) = c/(alpha+1) * ||x||^(alpha+1), the canonical alpha-semi-smooth potential.

    The gradient x -> c ||x||^(alpha-1) x is alpha-Holder with constant
    c * 2^(1-alpha), which is what the profile declares.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if c <= 0:
        raise ValueError("c must be > 0")
    a = float(alpha)
    cc = float(c)

    # math.sqrt(x @ x) is np.linalg.norm(x) to the bit, at less call overhead
    def value(x):
        x = np.asarray(x, dtype=float)
        return cc / (a + 1.0) * math.sqrt(x @ x) ** (a + 1.0)

    def subgrad(x):
        x = np.asarray(x, dtype=float)
        r = math.sqrt(x @ x)
        if r == 0.0:
            return np.zeros(dim)
        return cc * r ** (a - 1.0) * x

    if a == 1.0:

        def prox(eta, y):
            return np.asarray(y, dtype=float) / (1.0 + eta * cc)

    elif a == 0.0:

        def prox(eta, y):
            y = np.asarray(y, dtype=float)
            r = float(np.linalg.norm(y))
            if r == 0.0:
                return np.zeros(dim)
            return y * max(1.0 - eta * cc / r, 0.0)

    else:
        # radial reduction: the prox lies on the ray of y at radius t solving
        # t + eta*c*t^alpha = ||y||, a strictly increasing equation in t
        def prox(eta, y):
            from scipy.optimize import brentq

            y = np.asarray(y, dtype=float)
            r = float(np.linalg.norm(y))
            if r == 0.0:
                return np.zeros(dim)
            t = brentq(
                lambda t: t + eta * cc * t**a - r, 0.0, r, xtol=1e-15, rtol=1e-15
            )
            return (t / r) * y

    # E||x||^4: with k = alpha + 1, c ||x||^k / k is Gamma(d/k)-distributed
    k = a + 1.0
    m4 = (k / cc) ** (4.0 / k) * math.exp(
        math.lgamma((dim + 4.0) / k) - math.lgamma(dim / k)
    )
    return Potential(
        dim=dim,
        value=value,
        subgrad=subgrad,
        profile=SmoothnessProfile(alpha=a, l_alpha=cc * 2.0 ** (1.0 - a)),
        prox=prox,
        x_min=np.zeros(dim),
        fourth_moment=m4,
        name="power_norm",
    )


def make_quad_plus_l1(
    dim: int, q_diagonal: Sequence[float], scale: float = 1.0
) -> Potential:
    """f(x) = 0.5 x' diag(q) x + scale * ||x||_1 (composite smooth + nonsmooth)."""
    q = np.atleast_1d(np.asarray(q_diagonal, dtype=float))
    if q.shape != (dim,) or np.any(q < 0):
        raise ValueError("q_diagonal must be dim nonnegative entries")
    if scale <= 0:
        raise ValueError("scale must be > 0")
    s = float(scale)

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(q @ (x * x)) + s * float(np.abs(x).sum())

    def subgrad(x):
        x = np.asarray(x, dtype=float)
        return q * x + s * np.sign(x)

    def prox(eta, y):
        # coordinate-wise: soft-threshold then shrink by the quadratic
        y = np.asarray(y, dtype=float)
        return np.sign(y) * np.maximum(np.abs(y) - eta * s, 0.0) / (1.0 + eta * q)

    # independent coordinates, each with density prop. to exp(-q_i x^2/2 - s|x|)
    moments = {qi: _quad_l1_moments(qi, s) for qi in set(q.tolist())}
    m2, m4 = np.array([moments[qi] for qi in q.tolist()]).T
    return Potential(
        dim=dim,
        value=value,
        subgrad=subgrad,
        profile=SmoothnessProfile(
            alpha=0.0,
            l_alpha=2.0 * s * math.sqrt(dim),
            l_one=float(np.max(q)),
            lambda_strong=float(np.min(q)),
        ),
        prox=prox,
        x_min=np.zeros(dim),
        fourth_moment=_independent_fourth_moment(m2, m4),
        name="quad_plus_l1",
    )


def _independent_fourth_moment(m2: Array, m4: Array) -> float:
    """E||x||^4 of independent coordinates with E x_i^2 = m2_i, E x_i^4 = m4_i."""
    return float(m4.sum() + m2.sum() ** 2 - (m2 * m2).sum())


def _quad_l1_moments(q: float, s: float) -> tuple:
    """(E x^2, E x^4) under the 1-D density prop. to exp(-q x^2/2 - s|x|)."""
    from scipy.integrate import quad

    def integral(k):
        return quad(lambda x: x**k * math.exp(-0.5 * q * x * x - s * x), 0.0, math.inf)[0]

    z = integral(0)
    return integral(2) / z, integral(4) / z


def make_hinge_sum(dim: int, planes: Sequence[tuple]) -> Potential:
    """f(x) = sum_i max(0, <a_i, x> + b_i) for given (a_i, b_i) pairs."""
    if len(planes) == 0:
        raise ValueError("need at least one plane")
    A = np.stack([np.atleast_1d(np.asarray(a, dtype=float)) for a, _ in planes])
    b = np.asarray([float(bi) for _, bi in planes])
    if A.shape[1] != dim:
        raise ValueError(f"plane normals have dim {A.shape[1]}, expected {dim}")

    def value(x):
        return float(np.maximum(A @ np.asarray(x, dtype=float) + b, 0.0).sum())

    def subgrad(x):
        active = (A @ np.asarray(x, dtype=float) + b) > 0.0
        return A.T @ active.astype(float)

    x_min = np.zeros(dim) if np.all(b <= 0) else None
    return Potential(
        dim=dim,
        value=value,
        subgrad=subgrad,
        profile=SmoothnessProfile(
            alpha=0.0, l_alpha=float(np.sum(np.linalg.norm(A, axis=1)))
        ),
        x_min=x_min,
        name="hinge_sum",
    )


def make_gaussian(dim: int, diag_precision: Sequence[float]) -> Potential:
    """f(x) = 0.5 x' diag(p) x, with exact sampler and closed-form prox."""
    p = np.atleast_1d(np.asarray(diag_precision, dtype=float))
    if p.shape != (dim,) or np.any(p <= 0):
        raise ValueError("diag_precision must be dim positive entries")

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(p @ (x * x))

    def subgrad(x):
        return p * np.asarray(x, dtype=float)

    def prox(eta, y):
        return np.asarray(y, dtype=float) / (1.0 + eta * p)

    def sample(rng, n):
        return rng.standard_normal((n, dim)) / np.sqrt(p)

    var = 1.0 / p
    m4 = float(2.0 * np.sum(var**2) + np.sum(var) ** 2)
    return Potential(
        dim=dim,
        value=value,
        subgrad=subgrad,
        profile=SmoothnessProfile(
            alpha=1.0,
            l_alpha=0.0,
            l_one=float(np.max(p)),
            lambda_strong=float(np.min(p)),
        ),
        prox=prox,
        x_min=np.zeros(dim),
        sample_exact=sample,
        fourth_moment=m4,
        name="gaussian",
    )


ZOO_NAMES = ("l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian")


def make_by_name(name: str, dim: int, params: dict) -> Potential:
    """Construct a zoo potential from a config-style (name, params) pair."""
    if name == "l1":
        return make_l1(dim, params.get("scale", 1.0))
    if name == "power_norm":
        return make_power_norm(dim, params["alpha"], params.get("c", 1.0))
    if name == "quad_plus_l1":
        return make_quad_plus_l1(
            dim, params.get("q_diagonal", [1.0] * dim), params.get("scale", 1.0)
        )
    if name == "hinge_sum":
        planes = [tuple(pl) for pl in params["planes"]]
        pot = make_hinge_sum(dim, planes)
        if not positively_spans(np.array([a for a, _ in planes], dtype=float).reshape(-1, dim)):
            raise ValueError(
                "hinge_sum normals must positively span R^d: otherwise f is 0 or "
                "bounded on a ray and exp(-f) is not a probability density"
            )
        return pot
    if name == "gaussian":
        return make_gaussian(dim, params.get("diag_precision", [1.0] * dim))
    raise ValueError(f"unknown potential {name!r}; available: {', '.join(ZOO_NAMES)}")


def positively_spans(normals: Array) -> bool:
    """True when nonnegative combinations of the rows of ``normals`` cover R^d.

    A hinge sum sum_i max(0, <a_i, x> + b_i) grows linearly along every ray,
    so that exp(-f) has finite mass, exactly when its normals a_i do.  That
    holds iff rank(A) = d and some lambda >= 1 has A' lambda = 0, which
    ``scipy.optimize.linprog`` decides as a feasibility problem.
    """
    from scipy.optimize import linprog

    n, d = normals.shape
    if np.linalg.matrix_rank(normals) < d:
        return False
    res = linprog(np.zeros(n), A_eq=normals.T, b_eq=np.zeros(d), bounds=(1.0, None))
    return res.status == 0


def _zoo_hinge_planes(dim: int) -> list:
    """(+-q_i, -1/2) for the rows q_i of a fixed orthogonal matrix: f = sum_i
    max(0, |<q_i, x>| - 1/2), whose coordinates along the q_i are iid with
    density exp(-max(0, |t| - 1/2))/3."""
    # QR with the signs of R's diagonal fixed, so Q is a function of the draw
    q, r = np.linalg.qr(np.random.default_rng(1234).standard_normal((dim, dim)))
    q *= np.sign(np.diag(r))
    return [(sign * qi, -0.5) for qi in q for sign in (1.0, -1.0)]


def default_zoo(dim: int) -> dict:
    """Canonical instances of every zoo family, used by verification suites."""
    # per coordinate E t^2 = 79/36 and E t^4 = 6331/240
    hinge_m4 = _independent_fourth_moment(np.full(dim, 79 / 36), np.full(dim, 6331 / 240))
    # subgradients sum_i s_i q_i, s_i in {-1, 0, 1}: diameter 2 sqrt(d), not 2d
    hinge_profile = SmoothnessProfile(alpha=0.0, l_alpha=2.0 * math.sqrt(dim))
    hinge = make_hinge_sum(dim, _zoo_hinge_planes(dim))
    return {
        "l1": make_l1(dim, 1.0),
        "power_norm": make_power_norm(dim, 0.5, 1.0),
        "quad_plus_l1": make_quad_plus_l1(dim, np.ones(dim), 1.0),
        "hinge_sum": replace(hinge, profile=hinge_profile, fourth_moment=hinge_m4),
        "gaussian": make_gaussian(dim, np.ones(dim)),
    }
