"""Cutting-plane subroutine for the proximal subproblem.

Minimizes g_y^eta(x) = f(x) + (mu/2)||x - x0||^2 + ||x - y||^2/(2 eta) to a
prescribed gap ``delta`` by building a max-of-linearizations model of f and
solving each model subproblem exactly through its simplex-constrained dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .potentials import Array, RegularizedTarget, _finite_point, _point_or_rows, _row_dots
from .potentials import _finite_real, _integer_at_least, takes_rows, value_rows

# pivots one model QP solve may take before ``DualSolverError``
DUAL_MAX_ITER = 10_000


class SamplerError(RuntimeError):
    """A solver or sampler cap was reached, or a sampler invariant broke.

    ``context`` says where: ``run_chain`` adds the step, the seed and the
    auxiliary point y, and ``proxsamp sample`` the chain index.  Arguments
    after the message have defaults, so ``BaseException``'s own pickling
    (args, then ``__dict__``) lets worker processes return the errors.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.context = {}

    def __str__(self) -> str:
        keys = ("chain", "step", "seed", "y")
        where = ", ".join(f"{k} {self.context[k]}" for k in keys if k in self.context)
        return f"{super().__str__()} ({where})" if where else super().__str__()


class NonFiniteObjectiveError(SamplerError, ValueError):
    """g_y^eta is not finite at y (bundle mode) or at the prox point (exact
    mode): y is not finite, or f overflows there.  Also a ``ValueError``."""


class DualSolverError(SamplerError):
    """Model QP reached its pivot cap above the gap tolerance.

    Carries the primal point ``x`` of the last dual iterate, its ``gap``,
    the pivot cap ``max_pivots`` and the number of planes ``n_planes``.
    """

    def __init__(self, message: str, x=None, gap=math.nan, max_pivots=0, n_planes=0):
        super().__init__(message)
        self.x = x
        self.gap = gap
        self.max_pivots = max_pivots
        self.n_planes = n_planes


class BundleLimitError(SamplerError):
    """Iteration cap hit before the gap dropped below delta.

    Usually signals a mis-specified (eta, delta) pair; carries the last
    BundleResult, whose ``gaps`` hold the whole gap history, for diagnosis.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


def eta_mu_of(eta: float, mu: float, l_one: float = 0.0) -> float:
    """eta/(1 + eta mu + eta l_one): with l_one = 0 the curvature step of
    g_y^eta, otherwise that step with the smooth coefficient folded in."""
    return eta / (1.0 + eta * mu + eta * l_one)


class ProxObjective:
    """The proximal target g_y^eta for a prox center y.

    ``eta_mu`` = eta/(1 + eta*mu) is the curvature stepsize of g_y^eta
    (the objective is 1/eta_mu-strongly convex); ``eta_mu_l1`` additionally
    folds in the smooth coefficient of the potential.  ``quad_center`` =
    eta_mu * (mu*x0 + y/eta) is the minimizer of the non-plane part
    (mu/2)||x - x0||^2 + ||x - y||^2/(2 eta), computed on each read.

    The constructor checks eta and y (finite, shape (dim,)) and computes
    every constant that does not depend on y once.  A chain builds one
    objective and sets its ``y`` to each auxiliary point it draws (a
    shape-(dim,) float array, unchecked).  Nothing else depends on y, so
    after that the objective reads as one built at the new y.  The
    constants hold for the eta and target given to the constructor, so
    build a new objective for a new eta or target.
    """

    __slots__ = (
        "target", "dim", "f_value", "f_subgrad", "eta", "eta_mu", "two_eta", "half_mu",
        "center", "mu_center", "inv_two_eta_mu", "sqrt_eta", "sqrt_eta_mu", "y",
    )

    def __init__(self, target: RegularizedTarget, eta: float, y: Array):
        _finite_real(eta, "eta")
        base = target.base
        self.target = target
        self.dim = base.dim
        self.f_value = base.value
        self.f_subgrad = base.subgrad
        self.eta = eta
        self.eta_mu = eta_mu_of(eta, target.mu)
        self.two_eta = 2.0 * eta
        self.half_mu = 0.5 * target.mu
        self.center = target.center
        self.mu_center = target.mu * target.center
        self.inv_two_eta_mu = 1.0 / (2.0 * self.eta_mu)
        self.sqrt_eta = math.sqrt(eta)
        self.sqrt_eta_mu = math.sqrt(self.eta_mu)
        self.y = _finite_point(y, self.dim, "y")

    @property
    def quad_center(self) -> Array:
        return self.eta_mu * (self.mu_center + self.y / self.eta)

    @property
    def eta_mu_l1(self) -> float:
        return eta_mu_of(self.eta, self.target.mu, self.target.base.profile.l_one)

    @takes_rows
    def value(self, x: Array) -> float:
        """g_y^eta(x), or g_y^eta at each row of an (n, dim) array."""
        x = _point_or_rows(x, self.dim)
        if x.ndim == 2:
            return self._values(x, value_rows(self.f_value, x))
        return self._value(x)

    def _value(self, x: Array) -> float:
        """``value`` at a shape-(dim,) float array, without the shape check.

        Where mu/2 is 0 the regularizer is skipped, as in
        ``RegularizedTarget.value``.  A non-finite g(x) is returned as it
        is: g_y^eta is then non-finite too, and x - y could be inf - inf.
        """
        g = float(self.f_value(x))
        if self.half_mu != 0.0:
            dx = x - self.center
            g += self.half_mu * float(dx @ dx)
        if not math.isfinite(g):
            return g
        dy = x - self.y
        return g + float(dy @ dy) / self.two_eta

    def _values(self, xs: Array, f_xs: Array) -> Array:
        """``_value`` at each row of an (n, dim) float array, bit for bit,
        given f on the rows (``potentials.value_rows``)."""
        g = f_xs
        if self.half_mu != 0.0:
            dx = xs - self.center
            g = g + self.half_mu * _row_dots(dx, dx)
        dy = xs - self.y
        return g + _row_dots(dy, dy) / self.two_eta


@dataclass(eq=False, slots=True)
class CuttingPlane:
    """Linearization of f at ``anchor``: u -> f_val + <slope, u - anchor>.

    Like ``BundleResult``, a plain slotted record, built several times per
    sweep and not changed after.  ``slope`` is converted to a float array
    once, when the plane is built, so the model solvers use it as it is.
    """

    anchor: Array
    f_val: float
    slope: Array

    def __post_init__(self):
        self.slope = np.asarray(self.slope, dtype=float)

    @property
    def offset(self) -> float:
        return self.f_val - float(self.slope @ self.anchor)

    def __call__(self, u: Array) -> float:
        return self.f_val + float(self.slope @ (u - self.anchor))


def model_value(planes: Sequence[CuttingPlane], u: Array) -> float:
    """Max-of-linearizations model of f at u."""
    return max(p(u) for p in planes)


@dataclass(eq=False, slots=True)
class BundleResult:
    """Output of the cutting-plane run.

    ``x_model`` minimizes the final model subproblem, ``x_best`` is the best
    objective iterate, and the last gap ``gaps[-1]`` = g_y^eta(x_best) -
    model value at x_model is the termination certificate: x_best is a
    gap-accurate minimizer of g_y^eta.  ``qp_gap`` is the dual certificate
    gap of the final model subproblem (0 for the one-plane closed form, 0
    up to rounding for the two-plane one, at most the solver's tolerance
    for three or more planes): the model objective is at least
    ``model_value - qp_gap`` + ||x - x_model||^2/(2 eta_mu), which is the
    offset of the sampler's lower envelope (``envelope_offset``).

    ``gaps`` holds t_1..t_J and ``planes`` the J cuts in insertion order:
    plane 0 is cut at y and plane j at the model point x_j; ``x_model`` is
    x_J, where no plane is cut.  Each cut is one subgradient query, so
    ``iterations`` J is also the query count.
    """

    x_model: Array
    x_best: Array
    iterations: int
    best_value: float
    model_value: float
    delta: float
    qp_gap: float
    gaps: tuple = ()
    planes: tuple = ()


def solve_model_subproblem(
    planes: Sequence[CuttingPlane],
    c: Array,
    curv: float,
    gap_tol: float = 1e-10,
):
    """Exact minimizer of model + ||. - c||^2/(2 curv) over the planes.

    For g_y^eta, c = ``quad_center`` and curv = ``eta_mu``: the non-plane
    part (mu/2)||.-x0||^2 + ||.-y||^2/(2 eta) is ||. - c||^2/(2 curv) plus
    a constant.  Solved through the dual: for simplex weights w over the
    planes the primal point is u(w) = c - curv * sum_i w_i slope_i, and the
    concave dual <w, b + S c> - (curv/2)||S'w||^2 (b the plane offsets, S
    the slopes) is maximized over the simplex.  Its certificate gap
    max(v) - <w, v>, with v the plane values at u(w), is the primal-dual
    gap of the model subproblem.

    One and two planes, the usual cases at regime step sizes, have closed
    forms.  One plane: u = c - curv * slope, gap 0.  Two planes: the dual
    is concave in w = w_2 on [0, 1] and its maximizer is
    w* = clip(((b2 - b1) + <s2 - s1, c - curv s1>) / (curv ||s2 - s1||^2),
    0, 1); identical slopes take the plane with the larger offset.  Its gap
    is the certificate at (1 - w*, w*), which is 0 up to rounding.  Three
    or more planes go to the finite active-set method ``_active_set_dual``,
    which stops once gap <= gap_tol or no plane outside the support can
    raise the dual beyond rounding; ``DUAL_MAX_ITER`` caps its pivots, and
    reaching the cap raises ``DualSolverError``.

    Returns (x, top, gap) where top is the plane model max_i plane_i(x) of
    f at x and gap the certificate gap at the solver's weights; the model
    objective at x less gap is the dual value that minorizes it.
    """
    n = len(planes)
    if n == 0:
        raise ValueError("need at least one cutting plane")
    if n == 1:
        plane = planes[0]
        x = c - curv * plane.slope
        return x, plane(x), 0.0
    if n == 2:
        return _two_plane_dual(planes[0], planes[1], c, curv)
    S = np.stack([p.slope for p in planes])
    b = np.array([p.offset for p in planes])
    x, gap, _ = _active_set_dual(S, b, c, curv, gap_tol, DUAL_MAX_ITER)
    return x, model_value(planes, x), gap


def _two_plane_dual(p1: CuttingPlane, p2: CuttingPlane, c: Array, curv: float):
    """Closed-form maximizer of the model dual over two planes.

    With weights (1 - w, w) the dual <(1-w, w), b + S c> - (curv/2)
    ||s1 + w (s2 - s1)||^2 is a concave quadratic in w, maximized over
    [0, 1] by clipping its stationary point.  Returns (u, max(v), gap) for
    u = c - curv (s1 + w (s2 - s1)) and the plane values v at u; the gap
    max(v) - <(1-w, w), v> is written as a product of nonnegative factors,
    so rounding cannot make it negative.
    """
    s1, s2 = p1.slope, p2.slope
    b1, b2 = p1.offset, p2.offset
    ds = s2 - s1
    a = c - curv * s1
    den = curv * float(ds @ ds)
    if den > 0.0:
        w = min(max(((b2 - b1) + float(ds @ a)) / den, 0.0), 1.0)
    else:
        # identical slopes: the plane with the larger offset is the model
        w = 1.0 if b2 > b1 else 0.0
    u = a - (curv * w) * ds
    v1 = b1 + float(s1 @ u)
    v2 = b2 + float(s2 @ u)
    gap = (1.0 - w) * (v2 - v1) if v2 > v1 else w * (v1 - v2)
    return u, max(v1, v2), gap


# relative residual below which a slope counts as lying in the affine hull
# of the support slopes (exact dependencies leave rounding-level residuals)
_DEPENDENT_TOL = 1e-10
# rounding floor of the gap relative to the scale of the plane values
_ROUND_FLOOR = 64.0 * float(np.finfo(float).eps)


def _active_set_dual(S, b, c, curv, gap_tol, max_pivots):
    """Finite active-set ascent for the simplex-constrained model dual.

    Maximizes <w, b + S c> - (curv/2)||S' w||^2 over the simplex, i.e. the
    dual of min_u max_i (b_i + <S_i, u>) + ||u - c||^2/(2 curv), whose primal
    point is u(w) = c - curv S' w.  The gradient of the dual at w is the
    vector of plane values at u(w), so gap = max(grad) - <w, grad> >= 0.

    Primal active-set method in the style of Wolfe's minimum-norm-point
    algorithm.  The support P always has affinely independent slopes, so the
    dual restricted to the affine hull of P is strictly concave and its
    maximizer solves a small triangular system.  Each pivot either drops
    the support index that blocks the step towards that maximizer, or adds
    the plane with the largest value at u(w).  The system is built from
    slope differences, not from G, so near-parallel slopes keep it solvable.
    A plane whose slope lies in the affine hull of the support slopes up to
    a relative residual ``_DEPENDENT_TOL`` (a repeated slope, or more than
    d + 1 planes active), where G is singular, enters by a ray step along
    which u(w) is fixed and the dual grows linearly; the step ends when a
    support weight reaches zero and that index leaves.  One plane or
    all-zero slopes need no pivot, and a one-index support needs no
    factorization.

    Returns (u, gap, pivots); raises DualSolverError when another pivot
    would exceed ``max_pivots``.
    """
    n = S.shape[0]
    gamma0 = b + S @ c
    sq_norms = np.einsum("ij,ij->i", S, S)
    support = [int(np.argmax(gamma0 - 0.5 * curv * sq_norms))]
    w = np.zeros(n)
    w[support[0]] = 1.0
    slope_tol = _DEPENDENT_TOL * math.sqrt(float(sq_norms.max()))
    pivots = 0

    def certificate():
        # the gap max(vals) - <w, vals> as a sum of nonnegative terms, so
        # rounding cannot make it negative
        u = c - curv * (S.T @ w)
        vals = b + S @ u
        return u, vals, float(w @ vals), float(w @ (vals.max() - vals))

    def count_pivot():
        nonlocal pivots
        if pivots >= max_pivots:
            u, _, _, gap = certificate()
            raise DualSolverError(
                f"model QP hit the cap of {max_pivots} pivots with {n} "
                f"planes at gap {gap:.3e} > {gap_tol:.3e}",
                u,
                gap,
                max_pivots,
                n,
            )
        pivots += 1

    def ratio_step(direction):
        """Move w[support] along direction until the first weight reaches
        zero; that index leaves the support."""
        cur = w[support]
        neg = direction < 0.0
        ratios = cur[neg] / -direction[neg]
        k = int(np.flatnonzero(neg)[np.argmin(ratios)])
        w[support] = np.maximum(cur + float(ratios.min()) * direction, 0.0)
        w[support[k]] = 0.0
        del support[k]

    while True:
        p0, rest = support[0], support[1:]
        if rest:
            q, r = np.linalg.qr((S[rest] - S[p0]).T)
            # maximizer of the dual on the affine hull of the support
            h = gamma0[rest] - gamma0[p0]
            z = np.linalg.solve(r, np.linalg.solve(r.T, h) / curv - q.T @ S[p0])
            v = np.concatenate(([1.0 - z.sum()], z))
            if not np.all(v > 0.0):
                count_pivot()
                ratio_step(v - w[support])
                continue
            w[support] = v
        else:
            w[p0] = 1.0
        u, vals, lam, gap = certificate()
        if gap <= gap_tol or len(support) == n:
            return u, gap, pivots
        outside = np.ones(n, dtype=bool)
        outside[support] = False
        j = int(np.flatnonzero(outside)[np.argmax(vals[outside])])
        scale = float(
            np.abs(b).max() + np.abs(S).max() * (np.abs(u).sum() + np.abs(c).sum())
        )
        if vals[j] - lam <= _ROUND_FLOOR * scale:
            # no plane outside the support beats it beyond rounding
            return u, gap, pivots
        count_pivot()
        step = S[j] - S[p0]
        if rest:
            coef = np.linalg.solve(r, q.T @ step)
            resid = step - q @ (q.T @ step)
        else:
            coef, resid = np.zeros(0), step
        support.append(j)
        if float(np.linalg.norm(resid)) > slope_tol:
            continue
        # S[j] lies in the affine hull of the support: ray step along d with
        # S'd = 0, sum(d) = 0 and d_j = 1, on which the dual grows linearly
        d = np.concatenate(([coef.sum() - 1.0], -coef, [1.0]))
        # rounding noise of an exact dependency must not pick the leaver
        d[np.abs(d) <= 1e-12 * np.abs(d).max()] = 0.0
        ratio_step(d)


def iteration_bound_semismooth(
    eta_mu: float, l_alpha: float, alpha: float, delta: float, t1: float
) -> int:
    """Worst-case iteration count for the semi-smooth gap recursion.

    j0 = 1 + ceil([1 + 2 eta_mu (l_alpha/(alpha+1))^(2/(alpha+1))
    (1/delta)^((1-alpha)/(alpha+1))] log(t1/delta)); for t1 <= delta a
    single iteration suffices.
    """
    if t1 <= delta:
        return 1
    c = (
        2.0
        * eta_mu
        * (l_alpha / (alpha + 1.0)) ** (2.0 / (alpha + 1.0))
        * (1.0 / delta) ** ((1.0 - alpha) / (alpha + 1.0))
    )
    return 1 + math.ceil((1.0 + c) * math.log(t1 / delta))


def iteration_bound_composite(
    eta_mu: float,
    l_alpha: float,
    alpha: float,
    l_one: float,
    delta: float,
    t1: float,
) -> int:
    """Worst-case iteration count for the composite gap recursion.

    The gap contracts as t_{j+1} - (1-alpha) delta/2 <= tau (t_j - ...)
    from t_1 on, which yields
    j0 = 1 + ceil([1 + eta_mu (l_one + l_alpha^(2/(alpha+1)) /
    ((alpha+1) delta)^((1-alpha)/(alpha+1)))] log(2 t1/delta));
    the leading 1 accounts for the recursion starting after the first
    iteration.  For 2 t1 <= delta a single iteration suffices.
    """
    if 2.0 * t1 <= delta:
        return 1
    semi = 0.0
    if l_alpha > 0:
        semi = l_alpha ** (2.0 / (alpha + 1.0)) / (
            ((alpha + 1.0) * delta) ** ((1.0 - alpha) / (alpha + 1.0))
        )
    c = eta_mu * (l_one + semi)
    return 1 + math.ceil((1.0 + c) * math.log(2.0 * t1 / delta))


def gap_start_bound(obj: ProxObjective) -> float:
    """Upper bound on the first gap t_1 from the step taken at the start point.

    t1 <= l_alpha eta_mu^(alpha+1)/(alpha+1) ||g'(y)||^(alpha+1)
        + l_one eta_mu^2 / 2 ||g'(y)||^2,
    where g'(y) = f'(y) + mu (y - x0) is the queried subgradient of the
    regularized potential at the start.
    """
    prof = obj.target.base.profile
    gnorm = float(np.linalg.norm(obj.target.subgrad(obj.y)))
    a = prof.alpha
    em = obj.eta_mu
    out = prof.l_alpha * em ** (a + 1.0) / (a + 1.0) * gnorm ** (a + 1.0)
    out += 0.5 * prof.l_one * em**2 * gnorm**2
    return out


def prox_bundle(
    obj: ProxObjective,
    delta: float,
    max_iter: int = 1000,
) -> BundleResult:
    """Run the cutting-plane loop until the gap certificate drops below delta.

    Start from the prox center y with the single plane cut there; each
    iteration minimizes the current model subproblem, updates the best
    iterate (ties keep the older one, for determinism), and cuts a new plane
    at the model minimizer.  On return, g_y^eta(x_best) - min g_y^eta <=
    gaps[-1] <= delta.  Termination comparisons are absolute, no rescaling.
    Reaching ``max_iter`` above delta raises ``BundleLimitError`` with the
    result, one oracle call per iteration.  A non-finite g_y^eta at y
    raises ``NonFiniteObjectiveError``.
    """
    _finite_real(delta, "delta")
    _integer_at_least(max_iter, "max_iter", 1)
    f_value, f_subgrad = obj.f_value, obj.f_subgrad
    half_mu, two_eta, x0 = obj.half_mu, obj.two_eta, obj.center
    gap_tol = min(delta / 100.0, 1e-10)

    # each point gets one value query, shared by its plane and its objective
    y = obj.y
    f_y = f_value(y)
    planes = [CuttingPlane(y, f_y, f_subgrad(y))]
    x_best = y
    # g_y^eta(y) = (f(y) + (mu/2)||y - x0||^2) + 0.0: no y - y, which is
    # inf - inf at an infinite y; ||. - x0||^2 is skipped where mu/2 is 0
    s_x = 0.0
    if half_mu != 0.0:
        dx = y - x0
        s_x = float(dx @ dx)
    best_value = (float(f_y) + half_mu * s_x) + 0.0
    if not math.isfinite(best_value):
        raise NonFiniteObjectiveError(f"g_y^eta is {best_value} at y = {y.tolist()}")
    c, curv = obj.quad_center, obj.eta_mu

    gaps = []
    for j in range(1, max_iter + 1):
        x_j, top, qp_gap = solve_model_subproblem(planes, c, curv, gap_tol)
        f_j = f_value(x_j)
        # the squared distances of x_j to x0 and y give both its model value
        # and g_y^eta(x_j), the latter with the bits of ``obj._value``
        s_x = 0.0
        if half_mu != 0.0:
            dx = x_j - x0
            s_x = float(dx @ dx)
        dy = x_j - y
        q_x, q_y = half_mu * s_x, float(dy @ dy) / two_eta
        m_j = top + (q_x + q_y)
        val_j = float(f_j) + q_x
        if math.isfinite(val_j):
            val_j += q_y
        if val_j < best_value:
            x_best = x_j
            best_value = val_j
        t_j = best_value - m_j
        gaps.append(t_j)
        if t_j <= delta or j == max_iter:
            break
        planes.append(CuttingPlane(x_j, f_j, f_subgrad(x_j)))

    res = BundleResult(
        x_model=x_j,
        x_best=x_best,
        iterations=j,
        best_value=best_value,
        model_value=m_j,
        delta=delta,
        qp_gap=qp_gap,
        gaps=tuple(gaps),
        planes=tuple(planes),
    )
    if t_j <= delta:
        return res
    raise BundleLimitError(
        f"gap {t_j:.3e} > delta {delta:.3e} after {max_iter} iterations "
        "(eta/delta likely mis-specified for this potential)",
        res,
    )
