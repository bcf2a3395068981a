"""One benchmark workload in one fresh process (started by run.py).

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--setup-only]

Set-up is timed from before ``import proxsamp`` to the first sweep (or the
first suite), so it covers the import, config load, parameter resolution
and the quadrature truths.  The benchmark's own input generation is kept
out of every timed region: inputs needed before set-up are drawn with the
standard library's ``random``, so that numpy is first imported by
proxsamp.  Rounds of the same operations then run until ``--seconds`` have
passed.  With ``--trace 1`` round 0 runs untraced, round 1 (with its own
set-up) runs under the span tracer, and later rounds run untraced again.

Writes ``DIR/child.json`` (times, counts, per-layer metrics) and the
outputs run.py checks: chain traces (``laplace.npz``), the CLI run
directories, and the verify reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import sys
import time
import traceback

WORKLOADS = ("laplace-a1", "powernorm-d20-cli", "verify-all")


class LaplaceA1:
    """The A1 pipeline through the library API: l1, d=1, eps=0.2, bundle mode."""

    EPS = 0.2
    N_CHAINS = 4  # per round
    KEEP = 100  # kept samples per chain
    THIN = 50

    def __init__(self, seed: int, out: str):
        self.seed = seed
        self.out = out
        self.post = []  # post-burn-in x of every chain that ran

    def setup(self, tracer=None) -> dict:
        import numpy as np

        import proxsamp as ps

        pot = ps.make_l1(1, 1.0)
        if tracer is not None:
            pot = tracer.wrap_potential(pot)
        truth_nu = ps.QuadratureDensity.build(pot.value, 1)
        m4 = truth_nu.moment(lambda x: float(x[0]) ** 4)
        mu = ps.select_mu(self.EPS, ps.MomentEstimate(m4=m4, x_min=(0.0,), dist_sq=0.0))
        eta, delta = ps.select_params_semismooth(pot.profile, 1)
        reg = ps.RegularizedTarget(pot, mu, np.zeros(1))
        truth_pi = ps.QuadratureDensity.build(reg.value, 1)
        h0 = ps.kl_divergence(lambda x: -0.5 * float(x[0]) ** 2 - 0.5 * math.log(2 * math.pi), truth_pi)
        burn = ps.select_num_iters(eps=self.EPS, eta=eta, mu=mu, h0=h0).n_iters
        return {"pot": pot, "eta": eta, "delta": delta, "mu": mu, "burn": burn}

    def round(self, r: int, state: dict) -> dict:
        import numpy as np

        import proxsamp.chain as chain

        x0 = np.random.default_rng([self.seed, r]).standard_normal(self.N_CHAINS)
        n_iters = state["burn"] + self.THIN * (self.KEEP - 1)
        elapsed, sweeps, failed, error = 0.0, 0, 0, None
        for c in range(self.N_CHAINS):
            cfg = chain.ChainConfig(
                eta=state["eta"],
                delta=state["delta"],
                mu=state["mu"],
                center_x0=(0.0,),
                n_iters=n_iters,
                seed=self.seed * 10_000 + r * self.N_CHAINS + c,
                target_eps=self.EPS,
                regime="semi-smooth",
                rgo_mode="bundle",
            )
            t0 = time.perf_counter()
            try:
                trace = chain.run_chain(state["pot"], cfg, x_init=x0[c : c + 1])
            except Exception:  # a failed chain is counted, not fatal
                elapsed += time.perf_counter() - t0
                failed += 1
                error = error or traceback.format_exc()
                continue
            elapsed += time.perf_counter() - t0
            sweeps += n_iters
            self.post.append(trace.iterates[state["burn"] :, 0].copy())
        return {"elapsed": elapsed, "sweeps": sweeps, "attempted": self.N_CHAINS, "failed": failed, "error": error}

    def finish(self, state: dict) -> dict:
        import numpy as np

        path = os.path.join(self.out, "laplace.npz")
        post = np.array(self.post) if self.post else np.empty((0, 0))
        np.savez(path, post=post, mu=state["mu"], burn=state["burn"], thin=self.THIN, eps=self.EPS)
        return {"laplace": path}


class PowerNormCli:
    """``proxsamp sample`` through cli.main: power_norm, alpha=0.5, d=20, mu=0."""

    D = 20
    ALPHA = 0.5
    N_CHAINS = 2  # per round
    N_ITERS = 5000

    def __init__(self, seed: int, out: str):
        self.seed = seed
        self.out = out
        self.runs = []
        self.config_path = self.write_config(0)

    def write_config(self, r: int) -> str:
        """Round r's config; x_init is an exact draw from exp(-||x||^k / k)."""
        rng = random.Random(self.seed * 100_003 + r)
        k = self.ALPHA + 1.0
        radius = (k * rng.gammavariate(self.D / k, 1.0)) ** (1.0 / k)
        u = [rng.gauss(0.0, 1.0) for _ in range(self.D)]
        norm = math.sqrt(sum(v * v for v in u))
        cfg = {
            "target": {"name": "power_norm", "dim": self.D, "params": {"alpha": self.ALPHA}},
            "regime": {"kind": "semi-smooth", "eps": 0.2, "mu": 0, "rgo_mode": "bundle"},
            "chain": {
                "n_iters": self.N_ITERS,
                "n_chains": self.N_CHAINS,
                "seed": self.seed * 10_000 + r * self.N_CHAINS,
                "workers": 1,
                "x_init": [radius * v / norm for v in u],
            },
        }
        path = os.path.join(self.out, f"config-{r:04d}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    def setup(self, tracer=None) -> dict:
        import proxsamp  # noqa: F401
        import proxsamp.cli as cli

        cli.resolve_parameters(cli.load_config(self.config_path))
        return {}

    def round(self, r: int, state: dict) -> dict:
        import proxsamp.cli as cli

        path = self.config_path if r == 0 else self.write_config(r)
        run_dir = os.path.join(self.out, f"run-{r:04d}")
        t0 = time.perf_counter()
        error = None
        try:
            code = cli.main(["sample", "--config", path, "--out-dir", run_dir])
        except Exception:  # a failed run fails all of its chains
            code, error = -1, traceback.format_exc()
        elapsed = time.perf_counter() - t0
        ok = code == 0
        self.runs.append({"dir": run_dir, "config": path, "exit_code": code})
        csv_bytes = 0
        if ok:
            csv_bytes = sum(
                os.path.getsize(os.path.join(run_dir, f)) for f in os.listdir(run_dir) if f.endswith(".csv")
            )
        return {
            "elapsed": elapsed,
            "sweeps": self.N_CHAINS * self.N_ITERS if ok else 0,
            "attempted": self.N_CHAINS,
            "failed": 0 if ok else self.N_CHAINS,
            "error": error,
            "csv_bytes": csv_bytes,
        }

    def finish(self, state: dict) -> dict:
        return {"runs": self.runs, "dim": self.D, "alpha": self.ALPHA, "n_iters": self.N_ITERS}


class VerifyAll:
    """``proxsamp verify all --out FILE`` through cli.main."""

    def __init__(self, seed: int, out: str):
        self.seed = seed  # verify all has fixed inputs; the seed is only recorded
        self.out = out
        self.reports = []
        self.counts = None

    def setup(self, tracer=None) -> dict:
        import proxsamp  # noqa: F401
        import proxsamp.cli  # noqa: F401

        return {}

    def _count_calls(self) -> None:
        """Count the sweeps and independent draws of the stationarity and
        tv-decay suites: one cheap counter at each place verify calls the
        chain layer (verify.gibbs_step, verify.run_chain)."""
        import proxsamp.verify as verify

        counts = self.counts = {"gibbs_step": 0, "run_chain": 0, "run_chain_sweeps": 0}
        step, run = verify.gibbs_step, verify.run_chain

        def gibbs_step(*args, **kwargs):
            counts["gibbs_step"] += 1
            return step(*args, **kwargs)

        def run_chain(*args, **kwargs):
            trace = run(*args, **kwargs)
            counts["run_chain"] += 1
            counts["run_chain_sweeps"] += trace.config.n_iters
            return trace

        verify.gibbs_step, verify.run_chain = gibbs_step, run_chain

    def round(self, r: int, state: dict) -> dict:
        import proxsamp.cli as cli

        if self.counts is None:
            self._count_calls()
        before = dict(self.counts)
        path = os.path.join(self.out, f"verify-{r:04d}.json")
        t0 = time.perf_counter()
        error = None
        try:
            code = cli.main(["verify", "all", "--out", path])
        except Exception:  # reported as failed suites
            code, error = -1, traceback.format_exc()
        elapsed = time.perf_counter() - t0
        self.reports.append({"path": path, "exit_code": code})
        c = {k: v - before[k] for k, v in self.counts.items()}
        return {
            "elapsed": elapsed,
            "sweeps": c["gibbs_step"] + c["run_chain_sweeps"],
            # stationarity draws start from an exact draw, tv-decay chains are independent
            "draws": c["gibbs_step"] + c["run_chain"],
            "attempted": 6,
            "failed": 0,  # decided by run.py from the report
            "error": error,
        }

    def finish(self, state: dict) -> dict:
        return {"reports": self.reports}


CLASSES = {"laplace-a1": LaplaceA1, "powernorm-d20-cli": PowerNormCli, "verify-all": VerifyAll}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    work = CLASSES[args.workload](args.seed, args.out)
    t0 = time.perf_counter()
    state = work.setup()
    setup_s = time.perf_counter() - t0
    record = {"setup_s": setup_s}

    import proxsamp

    src = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    if not os.path.realpath(proxsamp.__file__).startswith(src + os.sep):
        raise SystemExit(f"proxsamp imported from {proxsamp.__file__}, not from {src}")

    if not args.setup_only:
        rounds = []
        start = time.perf_counter()
        min_rounds = 2 if args.trace else 1
        r = 0
        while r < min_rounds or time.perf_counter() - start < args.seconds:
            if args.trace and r == 1:
                rounds.append(traced_round(work, r, args.out, record))
            else:
                rounds.append(dict(work.round(r, state), traced=False))
            r += 1
        record["rounds"] = rounds
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["outputs"] = work.finish(state)

    with open(os.path.join(args.out, "child.json"), "w") as fh:
        json.dump(record, fh)
    return 0


def traced_round(work, r: int, out: str, record: dict) -> dict:
    """Set-up plus one round under the tracer; fills record['layers']."""
    from tracing import SpanTable, Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        state = work.setup(tracer)
        res = work.round(r, state)
    finally:
        tracer.restore()
    table = SpanTable(tracer)
    layers = layer_metrics(table)
    layers["cli.csv_bytes"] = (float(res.get("csv_bytes", 0)), "bytes")
    record["layers"] = layers
    record["patched"] = tracer.patched
    tracer.dump(os.path.join(out, "spans.npz"))
    return dict(res, traced=True)


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
