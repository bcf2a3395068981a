"""Batch front-end: parameter tables, chain runs, verification suites.

Exit codes: 0 success, 1 check failure, 2 usage error (checked before any
chain runs, naming the config key), 3 sampler failure (a bundle, model QP
or rejection cap reached, an envelope violation, or g_y^eta not finite
where a sweep starts; the message names the chain, the step, the seed
and y).  Configuration is a single JSON file
with flat sections (target, regime, chain, output); every default is
printable via ``proxsamp config --defaults``.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .bundle import SamplerError, eta_mu_of
from .chain import (
    CSV_COLUMNS_VERSION,
    ChainConfig,
    _check_exact_mode,
    _gap_tolerance,
    _step_size,
    moment_estimate,
    run_chain,
    select_mu,
    select_num_iters,
)
from .potentials import _finite_point, _finite_real, _integer_at_least, make_by_name
from .rejection import ENVELOPE_VERSION, RgoConfig, rejection_bound
from .verify import SUITES, run_suites

DEFAULT_CONFIG = {
    "target": {"name": "l1", "dim": 1, "params": {}},
    "regime": {
        "kind": "semi-smooth",
        "eps": 0.2,
        "eta": None,
        "delta": None,
        "mu": None,
        "rgo_mode": "bundle",
    },
    "chain": {
        "n_iters": 100,
        "n_chains": 4,
        "seed": 0,
        "workers": 1,
        "x_init": None,
    },
    "output": {"dir": None},
}

OUTPUT_DIR_ENV = "PROXSAMP_OUT"


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _config_keys(keys: str):
    """Report a bad config value, rejected inside the block, as a
    ``UsageError`` naming the config ``keys`` it came from; a ``MemoryError``
    is a dimension whose arrays numpy cannot allocate."""
    try:
        yield
    except (ValueError, TypeError, KeyError, OverflowError, MemoryError) as e:
        what = f"missing {e}" if isinstance(e, KeyError) else e
        raise UsageError(f"{what} ({keys} in the config)") from e


def _config_int(cfg: dict, keys: str, floor: int) -> int:
    """The int at ``keys`` ("section.key"): an integral float such as 5.0
    reads as 5; anything the integer rule refuses is a ``UsageError``
    naming the key."""
    section, key = keys.split(".")
    val = cfg[section][key]
    if isinstance(val, float) and val.is_integer():
        val = int(val)
    with _config_keys(keys):
        return _integer_at_least(val, key, floor)


def load_config(path=None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read config {path}: {e}")
        if not isinstance(user, dict):
            raise UsageError(f"config {path} must be a JSON object, got {type(user).__name__}")
        for section, values in user.items():
            if section not in cfg:
                raise UsageError(f"unknown config section {section!r}")
            if not isinstance(values, dict):
                raise UsageError(f"config section {section!r} must be an object")
            for key, val in values.items():
                if key not in cfg[section]:
                    raise UsageError(f"unknown config key {section}.{key}")
                cfg[section][key] = val
    return cfg


def resolve_parameters(cfg: dict) -> dict:
    """Fill eta/delta/mu from the regime rules where not overridden.  The
    budget contracts at mu, plus ``lambda_strong`` under strongly-convex."""
    tsec = cfg["target"]
    rsec = cfg["regime"]
    dim = _config_int(cfg, "target.dim", 1)
    params = tsec.get("params")
    with _config_keys("target"):
        # null reads as {}; any other non-object, even [], is refused
        pot = make_by_name(tsec["name"], dim, {} if params is None else params)
    kind = rsec["kind"]
    profile = pot.profile

    if kind not in ("semi-smooth", "composite", "strongly-convex"):
        raise UsageError(f"unknown regime kind {kind!r} (regime.kind in the config)")
    with _config_keys("target, regime.kind"):
        eta = _step_size(kind, profile, dim)
        if kind == "strongly-convex" and profile.lambda_strong <= 0:
            raise ValueError(f"{pot.name} declares no strong convexity (lambda_strong = 0)")
    for key in ("eta", "delta", "eps", "mu"):  # JSON numbers only: not true, not "0.1"
        if rsec.get(key) is not None and type(rsec[key]) not in (int, float):
            raise UsageError(f"{key} must be a number, got {rsec[key]!r} (regime.{key} in the config)")
    if rsec.get("delta") is None:
        with _config_keys("target, regime.delta"):
            delta = _gap_tolerance(profile.alpha, dim)
    with _config_keys("regime.eta, regime.delta, regime.rgo_mode"):
        if rsec.get("eta") is not None:
            eta = float(rsec["eta"])
        if rsec.get("delta") is not None:
            delta = float(rsec["delta"])
        rgo = RgoConfig(eta=eta, delta=delta, mode=rsec["rgo_mode"])
    with _config_keys("regime.rgo_mode"):
        _check_exact_mode(rgo.mode, pot)

    eps, mu = rsec.get("eps"), rsec.get("mu")
    with _config_keys("regime.eps"):
        if eps is not None:
            _finite_real(float(eps), "eps")
    with _config_keys("regime.mu"):
        if mu is not None:
            _finite_real(float(mu), "mu", strict=False)
    moments = None
    with _config_keys("regime.mu, regime.eps"):
        if mu is None:
            if kind == "semi-smooth" and eps is not None:
                moments = moment_estimate(pot)
                mu = select_mu(float(eps), moments)
            else:
                mu = 0.0  # convex / strongly-convex regimes run unregularized
        mu = float(mu)
        modulus = mu + profile.lambda_strong if kind == "strongly-convex" else mu
        budget = select_num_iters(
            eps=float(eps) if eps is not None else 0.2, eta=eta, mu=modulus, d=dim
        )
    with _config_keys("regime.delta"):
        bound = rejection_bound(rgo, profile, dim, mu=mu)
    return {
        "potential": pot,
        "eta": eta,
        "delta": delta,
        "mu": mu,
        "moments": moments,
        "budget": budget,
        "kind": kind,
        "bound": bound,
    }


def cmd_params(args) -> int:
    cfg = load_config(args.config)
    p = resolve_parameters(cfg)
    pot = p["potential"]
    profile = pot.profile
    eta, delta, mu, bound = p["eta"], p["delta"], p["mu"], p["bound"]
    rows = [
        ("target", f"{pot.name} (d={pot.dim})"),
        ("regime", p["kind"]),
        ("alpha / l_alpha / l_one / lambda",
         f"{profile.alpha:g} / {profile.l_alpha:g} / {profile.l_one:g} / {profile.lambda_strong:g}"),
        ("eta", f"{eta:.10g}"),
        ("delta", f"{delta:.10g}"),
        ("mu", f"{mu:.10g}"),
        ("eta_mu", f"{eta_mu_of(eta, mu):.10g}"),
        ("eta_mu_l1", f"{eta_mu_of(eta, mu, profile.l_one):.10g}"),
        ("rejection_bound", f"{bound:.6g} (condition_ok={math.isfinite(bound)})"),
        ("n_iters (theorem)",
         f"{p['budget'].n_iters} [{p['budget'].rule}: init={p['budget'].initial_divergence:.6g},"
         f" target={p['budget'].target:.6g}, rate={p['budget'].rate_per_iter:.6g}]"),
    ]
    if p["moments"] is not None:
        rows.insert(
            6,
            ("m4 / dist_sq",
             f"{p['moments'].m4:.10g} / {p['moments'].dist_sq:.10g} ({p['moments'].source})"),
        )
    width = max(len(r[0]) for r in rows)
    for key, val in rows:
        print(f"{key:<{width}}  {val}")
    return 0


def _run_one_chain(payload):
    index, name, dim, params, chain_cfg, x_init = payload
    pot = make_by_name(name, dim, params)
    try:
        return run_chain(pot, chain_cfg, x_init=x_init)
    except SamplerError as err:
        err.context["chain"] = index
        raise


def cmd_sample(args) -> int:
    cfg = load_config(args.config)
    cfg_dir = cfg["output"]["dir"]
    if cfg_dir is not None and not isinstance(cfg_dir, str):
        raise UsageError(f"dir must be a string, got {cfg_dir!r} (output.dir in the config)")
    out_dir = args.out_dir or cfg_dir or os.environ.get(OUTPUT_DIR_ENV, "runs")
    p = resolve_parameters(cfg)
    pot = p["potential"]
    csec = cfg["chain"]
    center = pot.x_min if pot.x_min is not None else np.zeros(pot.dim)

    # every chain's config and start are checked before any chain runs
    n_chains = _config_int(cfg, "chain.n_chains", 1)
    workers = _config_int(cfg, "chain.workers", 1)
    n_iters = _config_int(cfg, "chain.n_iters", 1)
    seed = _config_int(cfg, "chain.seed", 0)
    with _config_keys("chain, regime.mu"):
        chain_cfgs = [
            ChainConfig(
                eta=p["eta"],
                delta=p["delta"],
                mu=p["mu"],
                center_x0=tuple(float(v) for v in center),
                n_iters=n_iters,
                seed=seed + i,
                target_eps=cfg["regime"].get("eps"),
                regime=p["kind"],
                rgo_mode=cfg["regime"]["rgo_mode"],
            )
            for i in range(n_chains)
        ]
    x_init = csec.get("x_init")
    if x_init is not None:
        with _config_keys("chain.x_init"):
            x_init = _finite_point(x_init, pot.dim, "x_init")
    payloads = [
        (i, cfg["target"]["name"], pot.dim, cfg["target"].get("params") or {}, chain_cfg, x_init)
        for i, chain_cfg in enumerate(chain_cfgs)
    ]

    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_run_one_chain, payloads))
    else:
        traces = [_run_one_chain(pl) for pl in payloads]
    csv_paths = []
    for i, trace in enumerate(traces):
        path = os.path.join(out_dir, f"chain_{i:03d}.csv")
        trace.to_csv(path)
        csv_paths.append(path)
    wall = time.perf_counter() - t0  # chains and their CSV files

    counts = {
        key: np.concatenate([getattr(t, key) for t in traces])
        for key in ("rejections", "bundle_iters")
    }
    totals = {key: int(c.sum()) for key, c in counts.items()}
    # prox_bundle cuts one plane, so makes one subgradient query, per iteration
    totals["subgrad_calls"] = totals["bundle_iters"]
    proposals = counts["rejections"] + 1
    manifest = {
        "version": __version__,
        "csv_columns": CSV_COLUMNS_VERSION,
        "envelope": ENVELOPE_VERSION,
        "config": cfg,
        "resolved": {
            "eta": p["eta"],
            "delta": p["delta"],
            "mu": p["mu"],
            "regime": p["kind"],
        },
        "seeds": [seed + i for i in range(n_chains)],
        "files": [os.path.basename(q) for q in csv_paths],
        "wall_clock_s": wall,
        "totals": totals,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)

    steps = n_chains * n_iters
    bound = p["bound"]
    # integer sums are exact, so each chain's mean is the same bits in any order
    chain_means = proposals.reshape(n_chains, n_iters).mean(axis=1).tolist()
    summary = {
        "n_chains": n_chains,
        "n_iters": n_iters,
        "mean_proposals_per_step": (totals["rejections"] + steps) / steps,
        **_distribution("proposals", proposals),
        **_distribution("bundle_iters", counts["bundle_iters"]),
        **_distribution("subgrad_calls", counts["bundle_iters"]),
        "rejection_bound": bound,
        "rejection_bound_condition_ok": math.isfinite(bound),
        "chain_mean_proposals_per_step": chain_means,
        "chain_mean_under_bound": [m <= bound for m in chain_means],
        "mean_bundle_iters_per_step": totals["bundle_iters"] / steps,
        "mean_subgrad_calls_per_step": totals["subgrad_calls"] / steps,
        "wall_clock_s": wall,
        "seconds_per_step": wall / steps,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(_strict_json(summary), fh, indent=2, sort_keys=True, allow_nan=False)
    print(f"wrote {len(csv_paths)} chains + manifest + summary to {out_dir}")
    return 0


def _distribution(name: str, per_step) -> dict:
    """p50, p99 and max over all steps (at least one) of a per-step counter."""
    p50, p99 = np.percentile(per_step, [50, 99])
    return {
        f"p50_{name}_per_step": float(p50),
        f"p99_{name}_per_step": float(p99),
        f"max_{name}_per_step": float(per_step.max()),
    }


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names)
    payload = {"passed": all(r.passed for r in reports), "suites": [asdict(r) for r in reports]}
    text = json.dumps(_strict_json(payload), indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if payload["passed"] else 1


def _strict_json(obj):
    """Plain JSON values: numpy scalars and arrays become Python ones and
    non-finite floats the strings "inf", "-inf" and "nan"."""
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _strict_json(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def cmd_config(args) -> int:
    if args.defaults:
        print(json.dumps(DEFAULT_CONFIG, indent=2, sort_keys=True))
        return 0
    cfg = load_config(args.config)
    print(json.dumps(cfg, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxsamp",
        description="sampling from log-concave densities with nonsmooth potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print the derived parameter table")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("sample", help="run chains and write trace artifacts")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out-dir", help=f"output directory (default ${OUTPUT_DIR_ENV} or ./runs)")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "suite",
        choices=sorted(SUITES) + ["all"],
        help="which suite to run",
    )
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("config", help="print configuration")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--defaults", action="store_true", help="print built-in defaults")
    p.set_defaults(fn=cmd_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SamplerError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
