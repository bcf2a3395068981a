"""In-memory span tracer and the per-layer metrics computed from its spans.

The tracer wraps proxsamp's public functions at each layer boundary from
outside the package: every wrapper is installed on the module attribute
the caller looks the name up in (``proxsamp.chain.rgo_sample``, not
``proxsamp.rejection.rgo_sample``, for the call in ``gibbs_step``).  A span
records its name, start, end, parent span and one number taken from the
call (proposals, bundle iterations, planes, CSV rows).  Spans are kept in
flat arrays and written out once, when the run ends.

A layer's self time is its span minus the time of its child spans.
"""

from __future__ import annotations

import dataclasses
import os
import time
from array import array

import numpy as np

from reference import VERIFY_SUITES

GIBBS = "chain.gibbs_step"
METRICS_FUNCTIONS = ("tv_hist", "tv_noise_floor", "ks_1samp", "ks_1samp_cdf", "ks_2samp", "w2_quantile")


class Tracer:
    """Spans in flat arrays: name id, parent index, start, end, attribute."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attr = array("d")
        self._stack: list = []
        self._restore: list = []
        self.patched: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, attr=None):
        """Wrap ``fn`` in a span; ``attr(args, kwargs, result)`` gives its number."""
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.attr.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if attr is not None:
                self.attr[i] = attr(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, name: str, value) -> None:
        """Set ``owner.name`` (``owner[name]`` for a dict) until ``restore``."""
        if isinstance(owner, dict):
            self._restore.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._restore.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)
        self.patched.append(f"{getattr(owner, '__name__', 'dict')}.{name}")

    def patch(self, owner, name: str, span: str, attr=None) -> bool:
        """Trace the module or class attribute ``owner.name``, if it exists."""
        if name not in vars(owner):
            return False
        wrapped = self.wrap(span, getattr(owner, name), attr)
        # a classmethod is wrapped bound to its class and must not bind again
        self._set(owner, name, staticmethod(wrapped) if isinstance(vars(owner)[name], classmethod) else wrapped)
        return True

    def restore(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def wrap_potential(self, pot):
        """Copy of ``pot`` whose value and subgrad oracles are traced."""
        return dataclasses.replace(
            pot,
            value=self.wrap("potentials.value", pot.value),
            subgrad=self.wrap("potentials.subgrad", pot.subgrad),
        )

    def install(self) -> None:
        """Wrap every layer boundary of proxsamp where its callers look it up."""
        import proxsamp.bundle as bundle
        import proxsamp.chain as chain
        import proxsamp.checks as checks
        import proxsamp.cli as cli
        import proxsamp.metrics as metrics
        import proxsamp.quadrature as quadrature
        import proxsamp.rejection as rejection
        import proxsamp.verify as verify

        def proposals(args, kwargs, res):
            return res.rejections + 1

        def iterations(args, kwargs, res):
            return res.iterations

        def planes(args, kwargs, res):
            return len(args[0] if args else kwargs["planes"])

        def csv_rows(args, kwargs, res):
            return args[0].iterates.shape[0]

        required = {
            GIBBS: [(chain, "gibbs_step"), (verify, "gibbs_step")],
            "chain.run_chain": [(chain, "run_chain"), (cli, "run_chain"), (verify, "run_chain")],
            "rejection.rgo_sample": [(chain, "rgo_sample"), (verify, "rgo_sample")],
            "rejection.prox_of_target": [(rejection, "prox_of_target"), (checks, "prox_of_target")],
            "bundle.prox_bundle": [(rejection, "prox_bundle"), (verify, "prox_bundle"), (checks, "prox_bundle")],
            "bundle.solve_model_subproblem": [(bundle, "solve_model_subproblem")],
            "cli.resolve_parameters": [(cli, "resolve_parameters")],
            "cli.to_csv": [(chain.ChainTrace, "to_csv")],
            "quadrature.build": [(quadrature.QuadratureDensity, "build")],
            "checks.sandwich_suite": [(verify, "sandwich_suite")],
            "checks.check_prop_key_bound": [(verify, "check_prop_key_bound")],
        }
        attrs = {
            "rejection.rgo_sample": proposals,
            "bundle.prox_bundle": iterations,
            "bundle.solve_model_subproblem": planes,
            "cli.to_csv": csv_rows,
        }
        for span, sites in required.items():
            hits = [self.patch(owner, name, span, attrs.get(span)) for owner, name in sites]
            if not any(hits):
                raise RuntimeError(f"no call site found for layer boundary {span}")
        for module in (metrics, verify):
            for name in METRICS_FUNCTIONS:
                self.patch(module, name, "metrics." + name)
        for name in list(verify.SUITES):
            self._set(verify.SUITES, name, self.wrap("verify.suite." + name, verify.SUITES[name]))

        # potentials built by the program get traced oracles before first use
        def traced_factory(factory):
            def make(*args, **kwargs):
                made = factory(*args, **kwargs)
                if isinstance(made, dict):
                    return {k: self.wrap_potential(p) for k, p in made.items()}
                return self.wrap_potential(made)

            return make

        for owner, name in ((cli, "make_by_name"), (verify, "make_l1"), (verify, "make_gaussian"), (verify, "default_zoo")):
            if name in vars(owner):
                self._set(owner, name, traced_factory(getattr(owner, name)))

    def dump(self, path: str) -> None:
        """Write the spans out (one .npz) once the run has ended."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            attr=np.frombuffer(self.attr, dtype=np.float64),
        )


class SpanTable:
    """Arrays over all spans with durations, self times and step ancestry."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        start = np.frombuffer(tracer.start, dtype=np.float64)
        self.dur = np.frombuffer(tracer.end, dtype=np.float64) - start
        self.attr = np.frombuffer(tracer.attr, dtype=np.float64).copy()
        n = self.dur.size
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child[:n]
        # a parent is always recorded before its children
        gibbs = self._id(GIBBS)
        parent = self.parent.tolist()
        name_id = self.name_id.tolist()
        flags = [False] * n
        for i in range(n):
            p = parent[i]
            flags[i] = name_id[i] == gibbs or (p >= 0 and flags[p])
        self.in_step = np.array(flags, dtype=bool)
        metric_ids = [i for i, nm in enumerate(self.names) if nm.startswith("metrics.")]
        self.is_metric = np.isin(self.name_id, metric_ids)
        self.metric_parent = has_parent & self.is_metric[np.where(has_parent, self.parent, 0)]

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def mask(self, name: str) -> np.ndarray:
        return self.name_id == self._id(name)

    def count(self, name: str, in_step: bool = False) -> int:
        m = self.mask(name)
        return int(np.count_nonzero(m & self.in_step if in_step else m))


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0


def _max(values: np.ndarray) -> float:
    return float(values.max()) if values.size else 0.0


def layer_metrics(table: SpanTable) -> dict:
    """The per-layer metrics of one traced round (0 where a layer did not run)."""
    us, ms = 1e6, 1e3
    steps = table.count(GIBBS)
    out = {}

    def per_step(name):
        return table.count(name, in_step=True) / steps if steps else 0.0

    def timing(prefix, name, kind, scale, unit):
        m = table.mask(name)
        vals = (table.self_time if kind == "self" else table.dur)[m] * scale
        out[f"{prefix}.p50"] = (_pct(vals, 50), unit)
        out[f"{prefix}.p99"] = (_pct(vals, 99), unit)

    def total(name, scale):
        return float(table.dur[table.mask(name)].sum()) * scale

    out["chain.gibbs_step.calls"] = (float(steps), "count")
    timing("chain.gibbs_step.self_us", GIBBS, "self", us, "us")
    out["chain.run_chain.self_ms_per_chain"] = (_mean(table.self_time[table.mask("chain.run_chain")]) * ms, "ms")

    timing("rejection.rgo_sample.self_us", "rejection.rgo_sample", "self", us, "us")
    props = table.attr[table.mask("rejection.rgo_sample")]
    out["rejection.proposals_per_sample.mean"] = (_mean(props), "count")
    out["rejection.proposals_per_sample.max"] = (_max(props), "count")
    out["rejection.accept_rate"] = (props.size / props.sum() if props.size else 0.0, "1")
    out["rejection.prox_of_target.us.p50"] = (_pct(table.dur[table.mask("rejection.prox_of_target")] * us, 50), "us")

    timing("bundle.prox_bundle.self_us", "bundle.prox_bundle", "self", us, "us")
    iters = table.attr[table.mask("bundle.prox_bundle")]
    out["bundle.iterations_per_call.mean"] = (_mean(iters), "count")
    out["bundle.iterations_per_call.max"] = (_max(iters), "count")
    solve = "bundle.solve_model_subproblem"
    out[f"{solve}.calls_per_step"] = (per_step(solve), "count")
    timing(f"{solve}.us", solve, "dur", us, "us")
    planes = table.attr[table.mask(solve)]
    out["bundle.planes_per_solve.mean"] = (_mean(planes), "count")
    out["bundle.planes_per_solve.max"] = (_max(planes), "count")

    for oracle in ("value", "subgrad"):
        name = f"potentials.{oracle}"
        out[f"{name}.calls_per_step"] = (per_step(name), "count")
        out[f"{name}.us.p50"] = (_pct(table.dur[table.mask(name)] * us, 50), "us")

    out["cli.resolve_parameters.ms"] = (_mean(table.dur[table.mask("cli.resolve_parameters")]) * ms, "ms")
    m = table.mask("cli.to_csv")
    rows = float(table.attr[m].sum())
    out["cli.to_csv.us_per_row"] = (float(table.dur[m].sum()) * us / rows if rows else 0.0, "us")

    out["quadrature.build.calls"] = (float(table.count("quadrature.build")), "count")
    out["quadrature.build.ms"] = (total("quadrature.build", ms), "ms")
    top = table.is_metric & ~table.metric_parent
    out["metrics.ms"] = (float(table.dur[top].sum()) * ms, "ms")
    out["checks.sandwich_suite.ms"] = (total("checks.sandwich_suite", ms), "ms")
    out["checks.check_prop_key_bound.ms"] = (total("checks.check_prop_key_bound", ms), "ms")
    for suite in VERIFY_SUITES:
        out[f"verify.suite.{suite}.s"] = (total(f"verify.suite.{suite}", 1.0), "s")
    return out
