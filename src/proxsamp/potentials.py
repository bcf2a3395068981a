"""Convex potentials: value/subgradient oracles plus smoothness metadata.

A potential is the negative log-density f of a target ``exp(-f)``.  Each
potential declares a smoothness profile (Holder exponent and coefficients
for its subgradient) that downstream step-size rules and complexity bounds
consume.  ``validate_profile`` checks a declared profile empirically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray


def takes_rows(fn: Callable) -> Callable:
    """Mark ``fn`` as a row-capable value oracle: given a shape-(d,) point
    it returns a float, and given an (n, d) stack the n values, each equal
    to the point value bit for bit.  A bound method reads its function's
    mark."""
    fn.takes_rows = True
    return fn


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
        if isinstance(self.alpha, bool) or not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        _finite_real(self.l_alpha, "l_alpha", strict=False)
        _finite_real(self.l_one, "l_one", strict=False)
        _finite_real(self.lambda_strong, "lambda_strong", strict=False)

    def holder_bound(self, dist: float) -> float:
        """Declared upper bound on ||f'(u)-f'(v)|| at ||u-v|| = dist."""
        return self.l_alpha * dist**self.alpha + self.l_one * dist


@dataclass(frozen=True, eq=False)
class Potential:
    """Convex potential on R^d with oracles and optional closed forms.

    ``value`` and ``subgrad`` accept a shape-(dim,) array; ``subgrad`` may
    return any subdifferential element.  A ``value`` marked by
    ``takes_rows`` (every zoo family's is) also takes an (n, dim) float
    array and returns its n row values, each equal to ``value`` on that row
    bit for bit; ``value_rows`` loops over an unmarked ``value``.  The mark
    lives on the function, so ``dataclasses.replace(pot, value=fn)`` keeps
    the row form exactly when ``fn`` carries it.
    ``prox``, when present, maps
    (eta, y) to argmin f + ||.-y||^2/(2 eta).  ``sample_exact`` draws n iid
    points from exp(-f) (the l1 and Gaussian families provide it).
    ``fourth_moment`` is the analytic value of E||x - x_min||^4 under
    exp(-f) when known (nan, 0 or inf where it leaves float range, which
    the mu rule refuses); every ``default_zoo`` target has one.
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
        _integer_at_least(self.dim, "dim", 1)


@dataclass(frozen=True, eq=False)
class RegularizedTarget:
    """g = f + (mu/2) ||. - center||^2; mu > 0 makes g mu-strongly convex."""

    base: Potential
    mu: float
    center: Array

    def __post_init__(self):
        _finite_real(self.mu, "mu", strict=False)
        center = _finite_point(self.center, self.base.dim, "center")
        object.__setattr__(self, "center", center)

    @takes_rows
    def value(self, x: Array) -> float:
        """g(x), or g at each row of an (n, dim) array.  Where mu/2 is 0
        (mu = 0, or mu the smallest subnormal) the regularizer is skipped,
        not multiplied by 0, so a finite f(x) stays finite where
        ||x - center||^2 overflows."""
        x = _point_or_rows(x, self.base.dim)
        rows = x.ndim == 2
        f_x = value_rows(self.base.value, x) if rows else float(self.base.value(x))
        half_mu = 0.5 * self.mu
        if half_mu == 0.0:
            return f_x + 0.0
        dx = x - self.center
        return f_x + half_mu * (_row_dots(dx, dx) if rows else float(dx @ dx))

    def subgrad(self, x: Array) -> Array:
        """f'(x) + mu (x - center); the regularizer is skipped where mu/2
        is 0, as in ``value``, so x - center may overflow there."""
        x = _check_point(x, self.base.dim)
        g = np.asarray(self.base.subgrad(x), dtype=float)
        if 0.5 * self.mu == 0.0:
            return g + 0.0
        return g + self.mu * (x - self.center)


def value_rows(fn: Callable[[Array], float], xs: Array) -> Array:
    """fn at each row of an (n, d) float array: one call when ``fn`` is
    marked by ``takes_rows``, else one call per row."""
    if getattr(fn, "takes_rows", False):
        return fn(xs)
    return np.array([float(fn(x)) for x in xs])


def _row_dots(u: Array, v: Array) -> Array:
    """<u_i, v_i> for each row u_i of u, with v one vector or a stack of rows.

    Each entry equals ``float(u_i @ v_i)`` bit for bit: a stack of
    vector-vector ``matmul``s runs the same dot kernel as one ``@``, where
    ``einsum`` and ``(u * v).sum(1)`` sum in another order.
    """
    return np.matmul(u[:, None, :], v[..., None])[:, 0, 0]


def _pow_rows(r: Array, k: float) -> Array:
    """r_i ** k with Python's pow on each entry: ``np.power`` rounds some
    results differently, and the scalar oracles use Python's pow."""
    return np.array([ri**k for ri in r.tolist()], dtype=float)


def _point_or_rows(x, dim: int) -> Array:
    """x as a float array of shape (dim,) or (n, dim), else ``ValueError``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim > 2 or x.shape[-1] != dim:
        raise ValueError(f"point has shape {x.shape}, expected ({dim},) or (n, {dim})")
    return x


def _check_point(x, dim: int, name: str = "point") -> Array:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({dim},)")
    return x


def _finite_point(x, dim: int, name: str) -> Array:
    """``_check_point`` plus finiteness; errors name the input ``name``.

    Entries must be real numbers: ``np.asarray(x, dtype=float)`` would read
    True as 1 and "2" as 2.  An ndarray is checked by its dtype alone.
    """
    if isinstance(x, np.ndarray):
        real = x.dtype.kind in "fiu"
    else:
        entries = np.asarray(x, dtype=object).flat
        real = all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in entries)
    if not real:
        raise ValueError(f"{name} must hold real numbers, got {x!r}")
    x = _check_point(x, dim, name)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite, got {x.tolist()}")
    return x


def _finite_real(x, name: str, strict: bool = True):
    """x when it is a real number other than bool, finite and > 0 (>= 0 when
    not ``strict``), else ``ValueError`` naming the input ``name``.  The one
    rule for every real input: ``0 < x < inf`` is False for NaN, where
    ``x <= 0`` is not.  A plain float skips the ABC check, which costs about
    1 us: prox_bundle applies this rule on every sweep."""
    if type(x) is not float and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    if not (0 < x < math.inf if strict else 0 <= x < math.inf):
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} 0, got {x}")
    return x


def _integer_at_least(x, name: str, floor: int):
    """x when it is an integer (a ``numbers.Integral`` other than bool) and
    >= ``floor``, else ``ValueError`` naming the input ``name``.  The one
    rule for every integer input: 2.5 and True are refused."""
    # a plain int skips the ABC check, which costs about 1 us: prox_bundle
    # applies this rule on every sweep
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if x < floor:
        raise ValueError(f"{name} must be >= {floor}, got {x}")
    return x


def _float_or_nan(formula: Callable[[], float]) -> float:
    """``formula()``, or nan where extreme finite inputs make Python's float
    ``**`` raise ``OverflowError`` or a division by an underflowed 0 raise
    ``ZeroDivisionError``."""
    try:
        return formula()
    except (OverflowError, ZeroDivisionError):
        return math.nan


def _in_float_range(formula: Callable[[], float], rule: str, strict: bool = True, **params) -> float:
    """``_float_or_nan(formula)`` when it is finite and > 0 (>= 0 when not
    ``strict``), else a ``ValueError`` naming the ``rule`` and its ``params``:
    a result that raised or rounded to 0 or inf gets this one error."""
    value = _float_or_nan(formula)
    if not (0.0 < value if strict else 0.0 <= value) or not value < math.inf:
        where = ", ".join(f"{k} = {v!r}" for k, v in params.items())
        raise ValueError(f"{rule} leaves float range at {where}")
    return value


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
    _integer_at_least(n_pairs, "n_pairs", 1)
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
    s = float(_finite_real(scale, "scale"))

    @takes_rows
    def value(x):
        ax = np.abs(x)
        if ax.ndim == 2:
            return s * ax.sum(axis=1)
        return s * float(ax.sum())

    def subgrad(x):
        return s * np.sign(x)

    def prox(eta, y):
        y = np.asarray(y, dtype=float)
        return np.sign(y) * np.maximum(np.abs(y) - eta * s, 0.0)

    def sample(rng, n):
        # coordinates iid Laplace with rate `s`
        return rng.laplace(scale=1.0 / s, size=(n, dim))

    # E||x||^4 for iid Laplace(1/s) coordinates (nan where out of float range)
    m4 = _float_or_nan(lambda: (24.0 * dim + 4.0 * dim * (dim - 1)) / s**4)
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
    if isinstance(alpha, bool) or not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    a = float(alpha)
    cc = float(_finite_real(c, "c"))

    # math.sqrt(x @ x) is np.linalg.norm(x) to the bit, at less call overhead
    @takes_rows
    def value(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return cc / (a + 1.0) * _pow_rows(np.sqrt(_row_dots(x, x)), a + 1.0)
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
    m4 = _float_or_nan(
        lambda: (k / cc) ** (4.0 / k) * math.exp(math.lgamma((dim + 4.0) / k) - math.lgamma(dim / k))
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
    q = _finite_point(q_diagonal, dim, "q_diagonal")
    _finite_real(float(q.min()), "q_diagonal", strict=False)
    s = float(_finite_real(scale, "scale"))

    @takes_rows
    def value(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return 0.5 * _row_dots(x * x, q) + s * np.abs(x).sum(axis=1)
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
    """(E x^2, E x^4) under the 1-D density prop. to exp(-q x^2/2 - s|x|).

    Integrated in u = r x with r = max(s, sqrt(q)), where the density is
    exp(-(q/r^2) u^2/2 - (s/r) u) with one coefficient 1, so its mass z
    cannot underflow; at r = 1 the integrals are those in x, bit for bit.
    """
    from scipy.integrate import quad

    r = max(s, math.sqrt(q))
    qr, sr = q / r / r, s / r

    def integral(k):
        return quad(lambda u: u**k * math.exp(-0.5 * qr * u * u - sr * u), 0.0, math.inf)[0]

    z = integral(0)
    return integral(2) / z / r / r, integral(4) / z / r / r / r / r


def make_hinge_sum(dim: int, planes: Sequence[tuple]) -> Potential:
    """f(x) = sum_i max(0, <a_i, x> + b_i) for given (a_i, b_i) pairs."""
    if len(planes) == 0:
        raise ValueError("need at least one plane")
    A = np.stack([np.atleast_1d(np.asarray(a, dtype=float)) for a, _ in planes])
    b = np.asarray([float(bi) for _, bi in planes])
    if A.shape[1] != dim:
        raise ValueError(f"plane normals have dim {A.shape[1]}, expected {dim}")

    @takes_rows
    def value(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.maximum(np.matmul(A, x[:, :, None])[:, :, 0] + b, 0.0).sum(axis=1)
        return float(np.maximum(A @ x + b, 0.0).sum())

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
    p = _finite_point(diag_precision, dim, "diag_precision")
    _finite_real(float(p.min()), "diag_precision")

    @takes_rows
    def value(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return 0.5 * _row_dots(x * x, p)
        return 0.5 * float(p @ (x * x))

    def subgrad(x):
        return p * np.asarray(x, dtype=float)

    def prox(eta, y):
        return np.asarray(y, dtype=float) / (1.0 + eta * p)

    def sample(rng, n):
        return rng.standard_normal((n, dim)) / np.sqrt(p)

    # inf where the variances leave float range, which the mu rule refuses
    with np.errstate(over="ignore"):
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


# the params each zoo family reads in ``make_by_name``
_FAMILY_PARAMS = {
    "l1": ("scale",), "power_norm": ("alpha", "c"), "quad_plus_l1": ("q_diagonal", "scale"),
    "hinge_sum": ("planes",), "gaussian": ("diag_precision",),
}
ZOO_NAMES = tuple(_FAMILY_PARAMS)


def make_by_name(name: str, dim: int, params: dict) -> Potential:
    """Construct a zoo potential from a config-style (name, params) pair;
    a params that is not a dict, or a param the family does not read, is a
    ``ValueError``."""
    if name not in _FAMILY_PARAMS:
        raise ValueError(f"unknown potential {name!r}; available: {', '.join(ZOO_NAMES)}")
    if not isinstance(params, dict):
        raise ValueError(f"params must be a dict (a JSON object), got {params!r}")
    reads = _FAMILY_PARAMS[name]
    unknown = sorted(set(params) - set(reads))
    if unknown:
        raise ValueError(f"unknown params {unknown} for {name!r}; it reads {', '.join(reads)}")
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
    return make_gaussian(dim, params.get("diag_precision", [1.0] * dim))


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
