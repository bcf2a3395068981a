"""Numeric verification of the analytic bounds the sampler relies on.

Every check returns a small report with a ``passed`` flag and serializes to
JSON; the CLI ``verify`` subcommand aggregates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bundle import BundleResult, ProxObjective, prox_bundle
from .potentials import Array, _finite_real, value_rows
from .quadrature import QuadratureDensity, modified_gaussian_ratio
from .rejection import (
    EnvelopeViolationError,
    envelope_offset,
    lower_envelope,
    prox_of_target,
    semismooth_step,
    upper_envelope,
)


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


# relative tolerance of ``wendel_check``, applied in log space
WENDEL_TOL = 1e-10
# relative tolerance of ``check_prop_key_bound``
PROP_KEY_TOL = 1e-6
# slack ``sandwich_suite`` allows each envelope for rounding
SANDWICH_TOL = 1e-9


def wendel_check(t_grid: Sequence[float], s_grid: Sequence[float]) -> CheckReport:
    """Gamma-ratio double inequality t^(1-s) <= G(t+1)/G(t+s) <= (t+s)^(1-s).

    Evaluated through log-gamma, up to ``WENDEL_TOL`` in log space.
    """
    worst = -math.inf
    for t in t_grid:
        _finite_real(t, "t")
        for s in s_grid:
            if not 0.0 < s < 1.0:
                raise ValueError(f"s must be in (0, 1), got {s}")
            log_ratio = math.lgamma(t + 1.0) - math.lgamma(t + s)
            lo = (1.0 - s) * math.log(t)
            hi = (1.0 - s) * math.log(t + s)
            worst = max(worst, lo - log_ratio, log_ratio - hi)
    return CheckReport(
        name="wendel",
        passed=worst <= WENDEL_TOL,
        details={"worst_log_slack": worst},
    )


def check_prop_key_bound(grid: Sequence[tuple]) -> CheckReport:
    """Modified-Gaussian lower bound over a parameter grid.

    Each grid point (alpha, eta, a, d) must satisfy the admissibility
    condition 2 a (eta d)^((alpha+1)/2) <= 1; the check asserts
    integral >= (2 pi eta)^(d/2) / 2 up to ``PROP_KEY_TOL``.
    """
    worst = math.inf
    for alpha, eta, a, d in grid:
        cond = 2.0 * a * (eta * d) ** ((alpha + 1.0) / 2.0)
        if cond > 1.0 + 1e-12:
            raise ValueError(
                f"grid point (alpha={alpha}, eta={eta}, a={a}, d={d}) violates "
                f"the admissibility condition: {cond:.6f} > 1"
            )
        worst = min(worst, modified_gaussian_ratio(alpha, eta, a, d))
    return CheckReport(
        name="prop-key",
        passed=worst >= 1.0 - PROP_KEY_TOL,
        details={"worst_ratio": worst, "n_points": len(grid)},
    )


def default_prop_key_grid() -> list:
    """50 admissible points: boundary and interior a at the canonical step size."""
    grid = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        for d in (1, 2, 5, 10, 20):
            eta = semismooth_step(alpha, 1.0, d)
            a_boundary = 0.5 / (eta * d) ** ((alpha + 1.0) / 2.0)
            grid.append((alpha, eta, a_boundary, d))
            grid.append((alpha, eta, 0.5 * a_boundary, d))
    return grid


def acceptance_probability_oracle(
    obj: ProxObjective, center: Array, offset: float
) -> float:
    """Quadrature acceptance probability of the rejection scheme in d <= 2.

    Numerator: integral of exp(-g_y^eta) on a tail-truncated grid.
    Denominator: the Gaussian-envelope integral, known in closed form as
    exp(-offset) (2 pi eta_mu)^(d/2).  The ratio must land in (0, 1].
    """
    d = obj.dim
    if d > 2:
        raise ValueError("oracle supports d <= 2")
    truth = QuadratureDensity.build(obj.value, d, center=np.asarray(center))
    log_num = truth.log_z
    log_den = -offset + 0.5 * d * math.log(2.0 * math.pi * obj.eta_mu)
    ratio = math.exp(log_num - log_den)
    if ratio > 1.0 + 1e-8:
        raise EnvelopeViolationError(
            f"quadrature acceptance probability {ratio:.10f} exceeds 1"
        )
    return ratio


@dataclass(frozen=True)
class SandwichReport:
    min_lower_slack: float
    min_upper_slack: float
    n_probes: int
    passed: bool


def sandwich_suite(
    obj: ProxObjective,
    probes: int,
    rng: np.random.Generator,
    bundle_result: Optional[BundleResult] = None,
) -> SandwichReport:
    """Check lower <= g_y^eta <= upper at Gaussian probes around the center,
    up to ``SANDWICH_TOL``; a NaN slack fails.

    The lower envelope is the sampler's own ``lower_envelope``: with a
    bundle result at the model center and ``envelope_offset``, as
    ``rgo_sample`` uses it in bundle mode; otherwise the exact form at the
    prox point.  The upper envelope always needs the true prox point, taken
    from the closed form when available, else from a high-accuracy bundle
    run.  All probes come from one ``rng.standard_normal((probes, dim))``
    draw and are evaluated as one block of rows: f through
    ``potentials.value_rows`` (one call when the potential's ``value`` takes
    rows, else a row loop), then g_y^eta and both envelopes on the rows.
    For a row-capable ``value``, its row branch must give the point
    branch's bits at the first probe, else ``ValueError``.
    """
    if obj.target.base.prox is not None:
        xstar = prox_of_target(obj)
    else:
        xstar = prox_bundle(obj, 1e-10, max_iter=10_000).x_best
    vstar = obj.value(xstar)

    if bundle_result is None:
        center, offset = xstar, vstar
    else:
        res = bundle_result
        center = res.x_model
        offset = envelope_offset(res.best_value, res.model_value, res.qp_gap, res.delta)

    scale = 5.0 * math.sqrt(obj.eta)
    xs = center + scale * rng.standard_normal((probes, obj.dim))
    base = obj.target.base
    f = value_rows(base.value, xs)
    if getattr(base.value, "takes_rows", False) and probes:
        first = float(base.value(xs[0]))
        if float(f[0]).hex() != first.hex():
            raise ValueError(
                f"potential {base.name!r}: value gives {float(f[0])!r} on rows where it "
                f"gives {first!r} at the point {xs[0].tolist()}"
            )
    g = obj._values(xs, f)
    lower = g - lower_envelope(xs, center, offset, obj.inv_two_eta_mu)
    upper = upper_envelope(xs, xstar, vstar, obj) - g
    # np.min propagates NaN, where Python's min(inf, nan) is inf
    min_lower = float(np.min(lower, initial=math.inf))
    min_upper = float(np.min(upper, initial=math.inf))
    return SandwichReport(
        min_lower_slack=min_lower,
        min_upper_slack=min_upper,
        n_probes=probes,
        passed=(min_lower >= -SANDWICH_TOL and min_upper >= -SANDWICH_TOL),
    )
