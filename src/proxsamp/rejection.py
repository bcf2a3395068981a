"""Rejection-sampling oracle for the proximal target exp(-g_y^eta).

This realizes the restricted Gaussian oracle of the outer Gibbs chain: a
Gaussian proposal centered at the (exact or bundle-computed) minimizer of
g_y^eta, accepted against a quadratic lower envelope.  Rejection sampling
is exact, so the returned point follows exp(-g_y^eta) regardless of step
size; the step-size conditions only control the expected proposal count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundle import BundleResult, ProxObjective, SamplerError, eta_mu_of, prox_bundle
from .potentials import Array, SmoothnessProfile, _check_point, _finite_real, _in_float_range, _pow_rows, _row_dots

# the bundle-mode lower envelope, recorded in manifest.json: a change to it
# changes bundle-mode chains for the same seed
ENVELOPE_VERSION = "dual-certificate;v2"

# relative rounding margin of the dual-certificate offset
_OFFSET_MARGIN = 64.0 * float(np.finfo(float).eps)

# proposals per ``rgo_sample`` call: a guard against a wrong profile, not a bound
MAX_REJECTIONS = 10**6


class StepSizeWarning(UserWarning):
    """Step size violates the regime's guard (checked once per chain by
    ``run_chain``): sampling stays exact but the proposal bound is void."""


class EnvelopeViolationError(SamplerError):
    """The lower envelope exceeded the target potential (broken invariant:
    a wrong prox or profile)."""


class RejectionLimitError(SamplerError):
    """Proposal cap hit; carries diagnostics for the offending call."""

    def __init__(self, message: str, rejections: int = 0, center=None):
        super().__init__(message)
        self.rejections = rejections
        self.center = center


@dataclass(frozen=True)
class RgoConfig:
    """How to draw from exp(-g_y^eta): exact prox center or bundle center.

    ``delta`` is the bundle gap tolerance (unused in exact mode).
    """

    eta: float
    delta: float = 0.0
    mode: str = "exact"

    def __post_init__(self):
        _finite_real(self.eta, "eta")
        if self.mode not in ("exact", "bundle"):
            raise ValueError(f"mode must be 'exact' or 'bundle', got {self.mode!r}")
        if self.mode == "bundle":
            _finite_real(self.delta, "delta")


@dataclass(eq=False, slots=True)
class RgoSample:
    """Accepted point plus the diagnostics the complexity bounds constrain.

    A plain slotted record: one is built per sweep and not changed after.
    """

    x: Array
    rejections: int
    bundle_iters: int
    center: Array
    envelope_offset: float
    log_accept_ratio: float
    subgrad_calls: int


def lower_envelope(x: Array, center: Array, offset: float, inv_two_eta_mu: float):
    """Quadratic minorant h1(x) = ||x - center||^2/(2 eta_mu) + offset of g_y^eta.

    Exact mode: center is the prox point and offset its objective value.
    Bundle mode: center is the model minimizer and offset is
    ``envelope_offset`` of the bundle result.  ``rgo_sample`` tests its
    proposals against this function, one point at a time, and the A6
    sandwich probes it on an (n, dim) stack of rows, both with the
    objective's ``inv_two_eta_mu``.  A point gives a float, rows an array
    whose entries equal the point values bit for bit.
    """
    d = x - center
    sq = float(d @ d) if d.ndim == 1 else _row_dots(d, d)
    return sq * inv_two_eta_mu + offset


def envelope_offset(best_value: float, model_value: float, qp_gap: float, delta: float) -> float:
    """Offset of the bundle-mode lower envelope centred at the model minimizer.

    The model objective M (cutting-plane model plus the quadratic part of
    g_y^eta) lies below g_y^eta and is 1/eta_mu-strongly convex.  So at the
    model QP solver's own simplex weights, g_y^eta(x) >= M(x) >= dual +
    ||x - x_model||^2/(2 eta_mu), where dual = model_value - qp_gap.  That
    value, less a rounding margin of 64 eps (|model_value| + |best_value|),
    is the offset, floored by the paper's best_value - delta (valid because
    the final bundle gap best_value - model_value is at most delta).  The
    offset is never below the paper's, so no proposal-count bound weakens.
    """
    margin = _OFFSET_MARGIN * (abs(model_value) + abs(best_value))
    paper, dual = best_value - delta, model_value - qp_gap - margin
    # the larger of the two; a NaN on either side propagates
    return float(paper if paper > dual or paper != paper else dual)


def upper_envelope(x: Array, xstar: Array, value_at_xstar: float, obj: ProxObjective):
    """Quadratic-plus-power majorant h2 of g_y^eta around the true prox point.

    h2(x) = l_alpha/(alpha+1) ||x-x*||^(alpha+1) + ||x-x*||^2/(2 eta_mu_l1)
    + g_y^eta(x*), with the profile of the objective's potential;
    analysis-side only (needs the exact x*).  With l_one = 0 the curvature
    term reduces to 1/(2 eta_mu).  Like ``lower_envelope``, it takes a
    point (giving a float) or an (n, dim) stack of rows (giving an array
    equal to the point values bit for bit).
    """
    profile = obj.target.base.profile
    coef = profile.l_alpha / (profile.alpha + 1.0)
    curv = 1.0 / (2.0 * obj.eta_mu_l1)
    d = np.asarray(x, dtype=float) - xstar
    if d.ndim == 1:
        r = float(np.linalg.norm(d))
        power = r ** (profile.alpha + 1.0)
    else:
        r = np.sqrt(_row_dots(d, d))
        power = _pow_rows(r, profile.alpha + 1.0)
    return coef * power + curv * r * r + value_at_xstar


def prox_of_target(obj: ProxObjective) -> Array:
    """Closed-form prox of g at y, reduced to the base potential's prox.

    For mu > 0 the two quadratics merge, shifting the prox center:
    Prox_{eta g}(y) = Prox_{eta_mu f}(eta_mu (mu x0 + y/eta)).  The
    potential's prox is user code, so its output shape is checked here.
    """
    base = obj.target.base
    if base.prox is None:
        raise ValueError(f"potential {base.name!r} has no closed-form prox")
    dim = base.dim
    if obj.target.mu == 0.0:
        return _check_point(base.prox(obj.eta, obj.y), dim)
    return _check_point(base.prox(obj.eta_mu, obj.quad_center), dim)


def semismooth_step(alpha: float, l_alpha: float, dim: int) -> float:
    """The semi-smooth step-size guard (a+1)^(2/(a+1)) / ((2 l_alpha)^(2/(a+1)) d)."""
    a = alpha
    return _in_float_range(
        lambda: (a + 1.0) ** (2.0 / (a + 1.0)) / ((2.0 * l_alpha) ** (2.0 / (a + 1.0)) * dim),
        "the semi-smooth step rule", alpha=alpha, l_alpha=l_alpha, d=dim,
    )


def step_guard(profile: SmoothnessProfile, dim: int) -> float:
    """The largest step size the regime guards allow: the semi-smooth guard
    if l_alpha > 0, capped by 1/(l_one d) if l_one > 0; inf if neither applies."""
    guard = math.inf
    if profile.l_alpha > 0:
        guard = semismooth_step(profile.alpha, profile.l_alpha, dim)
    if profile.l_one > 0:
        l_one = profile.l_one
        guard = min(guard, _in_float_range(lambda: 1.0 / (l_one * dim), "the smooth step rule", l_one=l_one, d=dim))
    return guard


def rejection_bound(
    cfg: RgoConfig, profile: SmoothnessProfile, dim: int, mu: float = 0.0
) -> float:
    """Expected proposals per accepted sample for the applicable regime.

    Exact semi-smooth: 2.  Bundle semi-smooth: 2 exp(delta).  Smooth:
    exp(1/2 + delta).  Composite: 2 exp(1/2 + delta).  +inf when eta_mu =
    eta/(1 + eta mu) fails the profile's ``step_guard``: sampling stays
    exact, but no bound applies.
    """
    if not eta_mu_of(cfg.eta, mu) <= step_guard(profile, dim) * (1.0 + 1e-12):
        return math.inf
    delta_eff = cfg.delta if cfg.mode == "bundle" else 0.0
    if profile.l_one > 0 and profile.l_alpha > 0:
        return 2.0 * math.exp(0.5 + delta_eff)
    if profile.l_one > 0:
        return math.exp(0.5 + delta_eff)
    return 2.0 * math.exp(delta_eff)


def rgo_sample(
    obj: ProxObjective,
    cfg: RgoConfig,
    rng: np.random.Generator,
) -> RgoSample:
    """Draw one point distributed exactly as exp(-g_y^eta).

    The proposal is N(center, eta_mu I); acceptance is tested in log space
    (log U <= h1(X) - g_y^eta(X)) to avoid underflow, with h1 the
    ``lower_envelope``.  In bundle mode the cutting-plane run happens once
    per call; its model minimizer is the center and ``envelope_offset`` the
    offset for all proposals.  A non-finite g_y^eta at the start (y not
    finite) raises ``ValueError``.  The points this builds itself (center
    and proposals) are evaluated without shape checks.  ``MAX_REJECTIONS``
    caps the proposals; the step-size guard is checked by ``run_chain``.
    An envelope above g_y^eta by more than 1e-9 max(1, |offset|), the
    rounding of values of the offset's size, raises ``EnvelopeViolationError``.
    """
    if cfg.eta != obj.eta and not math.isclose(cfg.eta, obj.eta, rel_tol=1e-12):
        raise ValueError(f"config eta {cfg.eta} differs from objective eta {obj.eta}")
    value = obj._value

    bundle_iters = 0
    subgrad_calls = 0
    if cfg.mode == "exact":
        center = prox_of_target(obj)
        offset = value(center)
        if not math.isfinite(offset):
            raise ValueError(f"g_y^eta is {offset} at the prox point of y = {obj.y.tolist()}")
    else:
        res: BundleResult = prox_bundle(obj, cfg.delta)
        center = res.x_model
        offset = envelope_offset(res.best_value, res.model_value, res.qp_gap, res.delta)
        bundle_iters = res.iterations
        subgrad_calls = res.oracle_calls

    inv_two_eta_mu = obj.inv_two_eta_mu
    scale = obj.sqrt_eta_mu
    dim = obj.dim
    tol = 1e-9 * max(1.0, abs(offset))
    for k in range(MAX_REJECTIONS):
        x = center + scale * rng.standard_normal(dim)
        log_ratio = lower_envelope(x, center, offset, inv_two_eta_mu) - value(x)
        if log_ratio > tol:
            raise EnvelopeViolationError(
                f"lower envelope exceeds target by {log_ratio:.3e} at a proposal; "
                "prox/bundle output is inconsistent with the potential"
            )
        if math.log(rng.random() + 5e-324) <= log_ratio:
            return RgoSample(
                x=x,
                rejections=k,
                bundle_iters=bundle_iters,
                center=center,
                envelope_offset=offset,
                log_accept_ratio=log_ratio,
                subgrad_calls=subgrad_calls,
            )
    raise RejectionLimitError(
        f"no acceptance within {MAX_REJECTIONS} proposals "
        "(step-size condition likely violated or profile wrong)",
        MAX_REJECTIONS,
        center,
    )
