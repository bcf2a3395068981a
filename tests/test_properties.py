"""Every config ends in exit 0, 2 or 3, never in a traceback.

``proxsamp params`` and ``proxsamp sample`` run no checks, so exit 1 is not
theirs to give: a config is fine (0), a usage error naming its key (2), or
a sampler failure naming the chain, the step, the seed and y (3).  The
properties run ``cli.main`` in-process on generated configs, with
hypothesis derandomized so every run draws the same examples.  Warnings are
ignored inside them: what the CLI prints to stderr is not an exit code, and
configs at float-range extremes overflow on purpose.  The proposal cap is
lowered to 10^4, so a step size far above its guard reaches the same exit 3
in milliseconds rather than the ten seconds of 10^6 proposals.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxsamp import rejection
from proxsamp.cli import main
from proxsamp.potentials import ZOO_NAMES

# JSON scalars a config key may hold, with the extremes of float range
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, 2, 0.5, 1e-320, 1e-300, 1e-73, 1e-9, 709.0, 710.0, 1000.0, 1e154, 1e300]),
    st.text(max_size=4),
)
values = st.one_of(scalars, st.lists(scalars, max_size=3), st.dictionaries(st.text(max_size=3), scalars, max_size=2))

# target.dim: small, invalid and beyond-memory values.  None lies between
# about 1e6 and 1e15, where a target's d-vectors would be allocated and
# filled (gigabytes) before any rule looks at them.
dims = st.one_of(
    st.integers(min_value=-2, max_value=30),
    st.sampled_from([2.5, 5.0, 1e16, 10**18, 1e300, 10**400, float("inf"), float("nan")]),
    st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.lists(scalars, max_size=2)),
)

KEYS = {
    "target": ["name", "dim", "params"],
    "regime": ["kind", "eps", "eta", "delta", "mu", "rgo_mode"],
    "chain": ["n_iters", "n_chains", "seed", "workers", "x_init"],
}


def run(argv):
    """cli.main's exit code; an exception it lets through fails the property."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings(), mock.patch.object(rejection, "MAX_REJECTIONS", 10**4):
            warnings.simplefilter("ignore")
            return main(argv)


def exit_code(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        extra = ["--out-dir", os.path.join(tmp, "out")] if command == "sample" else []
        return run([command, "--config", path, *extra])


def family_params(name, dim):
    """Plausible and extreme params of the zoo family ``name`` at ``dim``."""
    real = st.one_of(st.sampled_from([1e-300, 1e-73, 1e-9, 0.5, 1.0, 3.0, 1e9, 1e300]), st.floats(1e-3, 1e3))
    vec = st.lists(real, min_size=dim, max_size=dim)
    normal = st.lists(st.sampled_from([-1e300, -1.0, -1e-9, -1e-73, 0.0, 1e-73, 1e-9, 1.0, 1e300]), min_size=dim, max_size=dim)
    offset = st.sampled_from([-0.5, 0.0, 1.0])
    return {
        "l1": st.fixed_dictionaries({}, optional={"scale": real}),
        "power_norm": st.fixed_dictionaries(
            {"alpha": st.sampled_from([0.0, 0.3, 0.5, 0.999, 1.0])}, optional={"c": real}
        ),
        "quad_plus_l1": st.fixed_dictionaries({}, optional={"q_diagonal": vec, "scale": real}),
        "hinge_sum": st.fixed_dictionaries(
            {"planes": st.lists(st.tuples(normal, offset).map(list), min_size=1, max_size=4)}
        ),
        "gaussian": st.fixed_dictionaries({}, optional={"diag_precision": vec}),
    }[name]


@st.composite
def sample_configs(draw):
    """A zoo target and regime, with overrides, run for at most 3 sweeps."""
    name = draw(st.sampled_from(ZOO_NAMES))
    dim = draw(st.integers(1, 3))
    regime = {
        "kind": draw(st.sampled_from(["semi-smooth", "composite", "strongly-convex"])),
        "rgo_mode": draw(st.sampled_from(["bundle", "exact"])),
    }
    overrides = {
        "eta": [1e-300, 1e-6, 0.01, 0.3],
        "delta": [1e-6, 0.1, 1.0, 700.0, 1000.0],
        "mu": [0, 1e-300, 0.05, 1.0, 1e300],
        "eps": [1e-320, 0.01, 0.2, 1e300],
    }
    for key, choices in overrides.items():
        value = draw(st.one_of(st.none(), st.sampled_from(choices)))
        if value is not None:
            regime[key] = value
    x_init = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.one_of(st.floats(-1e300, 1e300), st.sampled_from([-1e300, -1e200, 1e154, 1e200, 1e300])),
                min_size=dim,
                max_size=dim,
            ),
        )
    )
    chain = {"n_iters": draw(st.integers(1, 3)), "n_chains": draw(st.integers(1, 2)), "seed": draw(st.integers(0, 5))}
    if x_init is not None:
        chain["x_init"] = x_init
    target = {"name": name, "dim": dim, "params": draw(family_params(name, dim))}
    return {"target": target, "regime": regime, "chain": chain}


@st.composite
def params_configs(draw):
    """Any JSON values at any of the config keys, the rest at defaults."""
    config = {}
    for section, keys in KEYS.items():
        picked = draw(st.lists(st.sampled_from(keys), unique=True, max_size=3))
        if picked:
            config[section] = {key: draw(dims if key == "dim" else values) for key in picked}
    return config


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(params_configs())
@example({"target": {"name": "l1", "dim": 1}, "regime": {"delta": 1000}})
@example({"target": {"dim": 10**16}})
@example({"target": {"name": "hinge_sum", "dim": 1, "params": {"planes": [[[1e-9], 0.0]]}}})
@example({"target": {"name": "hinge_sum", "dim": 1, "params": {"planes": [[[1e-73], 0.0], [[-1e-73], 0.0]]}}})
def test_params_exits_0_2_or_3(config):
    assert exit_code("params", config) in (0, 2, 3)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(sample_configs())
@example({"target": {"name": "gaussian", "dim": 1}, "regime": {"kind": "composite"},
          "chain": {"n_iters": 3, "x_init": [1e200]}})
@example({"target": {"name": "gaussian", "dim": 1}, "regime": {"kind": "composite", "rgo_mode": "exact"},
          "chain": {"n_iters": 3, "x_init": [1e200]}})
@example({"target": {"name": "power_norm", "dim": 1, "params": {"alpha": 0.5}}, "regime": {"rgo_mode": "exact"},
          "chain": {"n_iters": 3, "x_init": [1e300]}})
def test_sample_exits_0_2_or_3(config):
    assert exit_code("sample", config) in (0, 2, 3)
