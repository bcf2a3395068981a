"""Outer Gibbs chain over the augmented density and its parameter rules.

One step draws the auxiliary point y ~ N(x_k, eta I) and then x_{k+1} from
exp(-g - ||.-y||^2/(2 eta)) through the rejection oracle.  Parameter
selection follows the regime rules: the semi-smooth step size
eta = (alpha+1)^(2/(alpha+1)) / ((2 l_alpha)^(2/(alpha+1)) d) with gap
tolerance delta^((1-alpha)/(alpha+1)) = 1/d, the composite rule taking the
minimum with 1/(l_one d), and the regularization weight
mu = eps / (sqrt(2) (sqrt(M4) + ||x0 - x_min||^2)), with M4 analytic or, in
d <= 2, from quadrature: no parameter rule runs a chain.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bundle import ProxObjective, SamplerError
from .potentials import Array, Potential, RegularizedTarget, SmoothnessProfile, takes_rows
from .potentials import _check_point, _finite_point, _finite_real, _in_float_range, _integer_at_least
from .potentials import _pow_rows
from .quadrature import QuadratureDensity
from .rejection import (
    RgoConfig,
    StepSizeWarning,
    rejection_bound,
    rgo_sample,
    semismooth_step,
    step_guard,
)

REGIMES = ("semi-smooth", "composite", "strongly-convex")

CSV_COLUMNS_VERSION = "k,x...,rejections,bundle_iters,subgrad_calls;v1"


@dataclass(frozen=True)
class ChainConfig:
    """Everything needed to reproduce a chain bit-for-bit; checked on construction."""

    eta: float
    delta: float
    mu: float
    center_x0: tuple
    n_iters: int
    seed: int
    target_eps: Optional[float] = None
    regime: str = "semi-smooth"
    rgo_mode: str = "bundle"

    def __post_init__(self):
        _integer_at_least(self.n_iters, "n_iters", 0)
        # numpy refuses a negative seed only when the chain starts
        _integer_at_least(self.seed, "seed", 0)
        _finite_real(self.mu, "mu", strict=False)
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")
        object.__setattr__(self, "center_x0", tuple(float(v) for v in self.center_x0))
        self.rgo()  # checks eta, delta and rgo_mode

    def rgo(self) -> RgoConfig:
        return RgoConfig(eta=self.eta, delta=self.delta, mode=self.rgo_mode)


@dataclass(frozen=True, eq=False)
class ChainTrace:
    """Iterates x_0..x_K and the per-step counts of proposals rejected and
    bundle iterations (0 in exact mode)."""

    iterates: Array
    rejections: Array
    bundle_iters: Array
    config: ChainConfig

    def __post_init__(self):
        if self.iterates.shape[0] != self.config.n_iters + 1:
            raise ValueError("trace length inconsistent with config")

    def to_csv(self, path) -> None:
        """One row per iterate.  The ``subgrad_calls`` column repeats
        ``bundle_iters``: each bundle iteration makes one subgradient query."""
        d = self.iterates.shape[1]
        header = (
            "k," + ",".join(f"x{i}" for i in range(d)) + ",rejections,bundle_iters,subgrad_calls"
        )
        # repr of a Python float is its shortest round-trip form
        xs = self.iterates.tolist()
        counts = zip(self.rejections.tolist(), self.bundle_iters.tolist())
        with open(path, "w") as fh:
            fh.write(header + "\n")
            fh.write(",".join(map(repr, [0, *xs[0], 0, 0, 0])) + "\n")
            fh.writelines(
                ",".join(map(repr, [k, *x, r, j, j])) + "\n"
                for k, (x, (r, j)) in enumerate(zip(xs[1:], counts), start=1)
            )


@dataclass(frozen=True)
class MomentEstimate:
    """Inputs of the regularization rule: M4 = E||x - x_min||^4 under the target."""

    m4: float
    x_min: tuple
    dist_sq: float
    source: str = "analytic"

    def __post_init__(self):
        _finite_real(self.m4, "m4", strict=False)


def moment_estimate(potential: Potential) -> MomentEstimate:
    """M4 and x_min from analytic metadata, else quadrature (d <= 2), else a
    ``ValueError`` asking for mu to be set explicitly.  Runs no chain.  The
    start x0 is the default center: x_min if declared, else the origin."""
    x_min = potential.x_min
    x0 = np.asarray(x_min if x_min is not None else np.zeros(potential.dim), dtype=float)

    if potential.fourth_moment is not None and x_min is not None:
        m4 = potential.fourth_moment
        if not 0.0 < m4 < math.inf:
            raise ValueError(
                f"the mu rule needs the fourth moment of {potential.name}, which leaves "
                f"float range ({m4}) at its parameters: set mu explicitly"
            )
        source = "analytic"
    elif potential.dim <= 2:
        try:
            truth = QuadratureDensity.build(potential.value, potential.dim, center=x_min)
        except ValueError as e:
            raise ValueError(f"{e}: set mu explicitly") from e
        if x_min is None:
            idx = np.unravel_index(np.argmin(truth.logpot), truth.logpot.shape)
            x_min = np.array([ax[i] for ax, i in zip(truth.axes, idx)])
        xm = x_min

        # rows are squared with Python's pow, as the point form is
        @takes_rows
        def dist4(x):
            sq = np.sum((x - xm) ** 2, axis=-1)
            return _pow_rows(sq, 2) if x.ndim == 2 else float(sq) ** 2

        m4 = truth.moment(dist4)
        source = "quadrature"
    else:
        raise ValueError(
            f"no analytic fourth moment for {potential.name!r} at d={potential.dim}, "
            "and quadrature covers d <= 2 only: set mu explicitly"
        )
    dist_sq = float(np.sum((x0 - x_min) ** 2))
    return MomentEstimate(
        m4=float(m4), x_min=tuple(float(v) for v in x_min), dist_sq=dist_sq, source=source
    )


# ---------------------------------------------------------------------------
# Parameter rules
# ---------------------------------------------------------------------------


def select_params_semismooth(profile: SmoothnessProfile, d: int) -> tuple:
    """(eta, delta) for an alpha-semi-smooth potential in dimension d.

    delta solves delta^((1-alpha)/(alpha+1)) = 1/d; at alpha = 1 the
    exponent vanishes and delta = 1 is used (the bundle cost term it feeds
    is 1 regardless, and the 2 exp(delta) proposal bound stays O(1)).
    """
    return _step_size("semi-smooth", profile, d), _gap_tolerance(profile.alpha, d)


def select_params_composite(profile: SmoothnessProfile, d: int) -> tuple:
    """(eta, delta) with the step size capped by both regime guards."""
    return _step_size("composite", profile, d), _gap_tolerance(profile.alpha, d)


def _step_size(kind: str, profile: SmoothnessProfile, d: int) -> float:
    """eta of the semi-smooth rule, else of the composite rule (which the
    strongly-convex regime shares)."""
    _integer_at_least(d, "d", 1)
    if kind == "semi-smooth":
        if profile.l_alpha <= 0:
            raise ValueError("semi-smooth rule needs l_alpha > 0")
        return semismooth_step(profile.alpha, profile.l_alpha, d)
    eta = step_guard(profile, d)
    if math.isinf(eta):
        raise ValueError("composite rule needs l_alpha > 0 or l_one > 0")
    return eta


def _gap_tolerance(alpha: float, d: int) -> float:
    """delta with delta^((1-alpha)/(alpha+1)) = 1/d (1 at alpha = 1); a
    ``ValueError`` naming the rule where it underflows to 0."""
    if alpha >= 1.0:
        return 1.0
    return _in_float_range(
        lambda: float(d) ** (-(alpha + 1.0) / (1.0 - alpha)),
        "the gap rule delta = d^(-(alpha+1)/(1-alpha))", alpha=alpha, d=d,
    )


def select_mu(eps: float, moments: MomentEstimate) -> float:
    """Regularization weight keeping the regularized target within eps/2 TV."""
    _finite_real(eps, "eps")
    return eps / (math.sqrt(2.0) * (math.sqrt(moments.m4) + moments.dist_sq))


@dataclass(frozen=True)
class IterationBudget:
    """Theorem-derived iteration count with every constant explicit."""

    n_iters: int
    rate_per_iter: float
    initial_divergence: float
    target: float
    rule: str


def select_num_iters(
    eps: float,
    eta: float,
    mu: float,
    h0: Optional[float] = None,
    d: int = 1,
    w2sq: Optional[float] = None,
) -> IterationBudget:
    """Iterations to reach eps total variation (mu > 0) or eps KL (mu = 0).

    Strongly convex route: KL contracts by (1 + mu eta)^2 per step and
    Pinsker converts TV <= eps/2 into KL <= eps^2/2, so
    K = ceil(log(2 h0 / eps^2) / (2 log(1 + mu eta))).  Convex route:
    KL after k steps is at most W2^2(rho_0, target)/(k eta).  Unknown
    initial divergences default to d, and the constants are conservative;
    both are echoed so callers can override.
    """
    _finite_real(eps, "eps")
    _finite_real(eta, "eta")
    _finite_real(mu, "mu", strict=False)
    _integer_at_least(d, "d", 1)
    if mu > 0:
        h0 = float(d) if h0 is None else float(_finite_real(h0, "h0", strict=False))
        rate = 2.0 * math.log1p(mu * eta)
        target = eps * eps / 2.0
        steps = _in_float_range(
            lambda: math.log(max(h0 / target, 1.0 + 1e-12)) / rate,
            "the KL-contraction budget log(h0/(eps^2/2)) / (2 log(1 + mu eta))", eps=eps, mu=mu, eta=eta,
        )
        k = max(1, math.ceil(steps))
        return IterationBudget(
            n_iters=k,
            rate_per_iter=rate,
            initial_divergence=h0,
            target=target,
            rule="kl-contraction",
        )
    w2sq = float(d) if w2sq is None else float(_finite_real(w2sq, "w2sq", strict=False))
    steps = _in_float_range(
        lambda: w2sq / (eps * eta), "the convex budget w2sq/(eps eta)", strict=False, w2sq=w2sq, eps=eps, eta=eta
    )
    k = max(1, math.ceil(steps))
    return IterationBudget(
        n_iters=k,
        rate_per_iter=0.0,
        initial_divergence=w2sq,
        target=eps,
        rule="w2-over-k-eta",
    )


# ---------------------------------------------------------------------------
# Running chains
# ---------------------------------------------------------------------------


def gibbs_step(
    x_k: Array,
    obj: ProxObjective,
    rgo_cfg: RgoConfig,
    rng: np.random.Generator,
):
    """One sweep: y_k = x_k + sqrt(eta) z, then x_{k+1} from the inner oracle.

    ``obj`` is the chain's objective g_y^eta, its ``y`` set to the drawn y_k;
    x_k must have shape (dim,) (``ValueError`` otherwise), and a
    non-finite x_k makes the inner oracle raise ``NonFiniteObjectiveError``.
    A ``SamplerError`` of the inner oracle is re-raised with y added to its
    ``context``.  No step-size check: ``run_chain`` makes it once per chain.
    """
    # the chain's own iterate passes without the cost of ``_check_point``
    if type(x_k) is not np.ndarray or x_k.dtype != float or x_k.shape != (obj.dim,):
        x_k = _check_point(x_k, obj.dim)
    y = x_k + obj.sqrt_eta * rng.standard_normal(obj.dim)
    obj.y = y
    try:
        sample = rgo_sample(obj, rgo_cfg, rng)
    except SamplerError as err:
        err.context["y"] = y.tolist()
        raise
    return y, sample


def _check_exact_mode(mode: str, potential: Potential) -> None:
    """Exact mode centres proposals at the closed-form prox, so a potential
    without one is refused before any sweep."""
    if mode == "exact" and potential.prox is None:
        raise ValueError(f"potential {potential.name!r} has no closed-form prox for exact mode")


def run_chain(
    potential: Potential,
    config: ChainConfig,
    x_init: Optional[Array] = None,
) -> ChainTrace:
    """Run K sweeps from x_init (default: the regularization center).

    The center, x_init and exact mode's prox are checked first (``ValueError``).
    One ``StepSizeWarning`` before the first sweep when the chain's
    ``rejection_bound`` is inf (eta_mu fails the profile's step-size
    guard).  A ``SamplerError`` (a bundle, model QP or rejection cap
    reached, or an envelope violation) is re-raised with the step and the
    seed added to its ``context``, next to the auxiliary point y that
    ``gibbs_step`` adds.  The chain's one ``ProxObjective`` is built
    before the first sweep, so its constants are computed once.
    """
    d = potential.dim
    target = RegularizedTarget(potential, config.mu, config.center_x0)
    x = _finite_point(target.center if x_init is None else x_init, d, "x_init")
    _check_exact_mode(config.rgo_mode, potential)

    k = config.n_iters
    rgo_cfg = config.rgo()
    if k > 0 and math.isinf(rejection_bound(rgo_cfg, potential.profile, d, config.mu)):
        warnings.warn(
            "step size exceeds the guard for this profile; sampling is still "
            "exact but the expected-proposal bound is void",
            StepSizeWarning,
            stacklevel=2,
        )

    obj = ProxObjective(target, rgo_cfg.eta, x)
    rng = np.random.default_rng(config.seed)

    iterates = np.empty((k + 1, d))
    rejections = np.zeros(k, dtype=np.int64)
    bundle_iters = np.zeros(k, dtype=np.int64)
    iterates[0] = x
    for i in range(k):
        try:
            _, sample = gibbs_step(x, obj, rgo_cfg, rng)
        except SamplerError as err:
            err.context.update(step=i, seed=config.seed)
            raise
        x = sample.x
        iterates[i + 1] = x
        rejections[i] = sample.rejections
        bundle_iters[i] = sample.bundle_iters
    return ChainTrace(iterates=iterates, rejections=rejections, bundle_iters=bundle_iters, config=config)
