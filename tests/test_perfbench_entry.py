"""The benchmark's entry points still find what they look up in proxsamp.

``perfbench/`` drives proxsamp from outside the package: its tracer wraps
named call sites, and its workloads pass ``ChainConfig`` keywords and config
keys such as ``chain.workers``.  A change that removes one of those names
fails here, and not only in a benchmark run.
"""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    import workloads

    return tracing, workloads


@pytest.mark.parametrize("name", ["LaplaceA1", "PowerNormCli", "VerifyAll"])
def test_workload_runs_under_tracer(perfbench, tmp_path, name):
    tracing, workloads = perfbench
    work = getattr(workloads, name)(0, str(tmp_path))
    # a sampling round shrinks to a few sweeps; verify-all runs its set-up only
    if name == "LaplaceA1":
        work.KEEP = 1
    elif name == "PowerNormCli":
        work.N_ITERS = 3
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = work.setup(tracer)
        if name == "LaplaceA1":
            state["burn"] = 3
        res = None if name == "VerifyAll" else work.round(1, state)
    finally:
        tracer.restore()
    if res is not None:
        assert (res["failed"], res["error"]) == (0, None)
        assert res["sweeps"] > 0
        assert tracing.GIBBS in tracer.names


def test_laplace_sweeps_keep_every_layer_span(perfbench, tmp_path):
    # each sweep must still pass through the traced layer boundaries, or the
    # per-layer figures of a benchmark run silently lose a layer
    tracing, workloads = perfbench
    work = workloads.LaplaceA1(0, str(tmp_path))
    work.KEEP = 1
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = work.setup(tracer)
        state["burn"] = 3
        res = work.round(1, state)
    finally:
        tracer.restore()
    assert (res["failed"], res["error"]) == (0, None)
    names = [tracer.names[i] for i in tracer.name_id]
    children = {}
    for i, p in enumerate(tracer.parent):
        children.setdefault(p, []).append(i)

    def spans_under(i, name):
        return [j for j in children.get(i, []) if names[j] == name]

    steps = [i for i, n in enumerate(names) if n == tracing.GIBBS]
    assert len(steps) == res["sweeps"] == 3 * work.N_CHAINS
    for step in steps:
        (rgo,) = spans_under(step, "rejection.rgo_sample")
        (bundle,) = spans_under(rgo, "bundle.prox_bundle")
        assert len(spans_under(bundle, "bundle.solve_model_subproblem")) >= 1


def test_verify_all_counts_one_sweep_per_stationarity_draw(perfbench, tmp_path, monkeypatch):
    # verify-all's steps/s counts the sweeps where verify calls gibbs_step;
    # the stationarity suite must make one call per draw for that to hold
    import proxsamp.verify as verify

    _, workloads = perfbench
    monkeypatch.setattr(verify, "gibbs_step", verify.gibbs_step)
    monkeypatch.setattr(verify, "run_chain", verify.run_chain)
    work = workloads.VerifyAll(0, str(tmp_path))
    work._count_calls()
    verify.suite_stationarity(n=50)
    assert work.counts == {"gibbs_step": 100, "run_chain": 0, "run_chain_sweeps": 0}


def test_powernorm_sweeps_keep_the_two_plane_layer_spans(perfbench, tmp_path):
    # power_norm at d = 20 takes two bundle iterations per sweep, the second
    # a two-plane model QP: each iteration must still be its own span
    tracing, workloads = perfbench
    work = workloads.PowerNormCli(0, str(tmp_path))
    work.N_ITERS = 3
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = work.setup(tracer)
        res = work.round(1, state)
    finally:
        tracer.restore()
    assert (res["failed"], res["error"]) == (0, None)
    names = [tracer.names[i] for i in tracer.name_id]
    children = {}
    for i, p in enumerate(tracer.parent):
        children.setdefault(p, []).append(i)

    def spans_under(i, name):
        return [j for j in children.get(i, []) if names[j] == name]

    steps = [i for i, n in enumerate(names) if n == tracing.GIBBS]
    assert len(steps) == res["sweeps"] == work.N_ITERS * work.N_CHAINS
    for step in steps:
        (rgo,) = spans_under(step, "rejection.rgo_sample")
        (bundle,) = spans_under(rgo, "bundle.prox_bundle")
        iterations = tracer.attr[bundle]
        assert iterations == 2
        assert len(spans_under(bundle, "bundle.solve_model_subproblem")) == iterations
    assert names.count("cli.to_csv") == work.N_CHAINS
