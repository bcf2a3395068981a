"""scipy and the process pool load only in the functions that call them.

``import proxsamp.cli`` and the ``params`` and ``sample`` runs below need
numpy alone, so they must leave no ``scipy`` module and no process pool in
``sys.modules``.  This test process has imported scipy long ago, so each
check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
import textwrap

import proxsamp

SRC = os.path.dirname(os.path.dirname(os.path.abspath(proxsamp.__file__)))

POWER_NORM = {
    "target": {"name": "power_norm", "dim": 20, "params": {"alpha": 0.5}},
    "regime": {"kind": "semi-smooth", "eps": 0.2, "mu": 0, "rgo_mode": "bundle"},
    "chain": {"n_iters": 3, "n_chains": 2, "seed": 0, "workers": 1, "x_init": [0.1 * (i % 7) for i in range(20)]},
}
L1 = {
    "target": {"name": "l1", "dim": 1, "params": {"scale": 1.0}},
    "regime": {"kind": "semi-smooth", "eps": 0.2, "rgo_mode": "bundle"},
    "chain": {"n_iters": 3, "n_chains": 2, "seed": 0, "workers": 1},
}
GAUSSIAN = {
    "target": {"name": "gaussian", "dim": 3},
    "regime": {"kind": "composite", "eps": 0.2, "rgo_mode": "bundle"},
    "chain": {"n_iters": 3, "n_chains": 1, "seed": 0, "workers": 1},
}


def run_fresh(code: str, cwd) -> dict:
    """Run ``code`` in a new interpreter on this package; parse its last stdout line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_params_and_sample_load_neither_scipy_nor_process_pool(tmp_path):
    for name, cfg in (("power_norm", POWER_NORM), ("l1", L1), ("gaussian", GAUSSIAN)):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    got = run_fresh(
        """
        import json, sys
        import proxsamp.cli as cli

        codes = []
        for name in ("power_norm", "l1", "gaussian"):
            codes.append(cli.main(["params", "--config", name + ".json"]))
            codes.append(cli.main(["sample", "--config", name + ".json", "--out-dir", "run-" + name]))
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        print(json.dumps({"codes": codes, "scipy": loaded,
                          "pool": "concurrent.futures.process" in sys.modules}))
        """,
        tmp_path,
    )
    assert got["codes"] == [0] * 6
    assert got["scipy"] == []
    assert got["pool"] is False


def test_scipy_backed_functions_keep_their_values(tmp_path):
    # values recorded before scipy moved into the functions; exact equality
    got = run_fresh(
        """
        import json, sys
        from proxsamp.metrics import ks_critical
        from proxsamp.quadrature import modified_gaussian_ratio

        before = "scipy" in sys.modules
        vals = [ks_critical(0.01, 20000), ks_critical(1e-4, 1e5),
                modified_gaussian_ratio(0.0, 0.25, 1.0, 1), modified_gaussian_ratio(0.5, 0.05, 2.0, 20)]
        print(json.dumps({"before": before, "vals": [repr(v) for v in vals]}))
        """,
        tmp_path,
    )
    assert got["before"] is False
    assert got["vals"] == ["0.011509036929243887", "0.007036862778446088", "1.3984753388815918", "0.3060202906314135"]
