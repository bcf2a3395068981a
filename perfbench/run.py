#!/usr/bin/env python3
"""proxsamp benchmark: sweeps/s, ESS/s, wall time, set-up time and memory.

    python3 perfbench/run.py --workload laplace-a1 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # the three workloads

Run from the repository root.  Each workload runs in fresh processes of its
own (``workloads.py``) against ``src/`` of this checkout: one that times
set-up and runs rounds for ``--seconds``, then four that only time set-up.
This process then checks the outputs against references computed apart
from proxsamp (``reference.py``), prints every metric by name and unit, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced round and the tracing
overhead.  The full record of each run (seed, git SHA, machine facts,
checks) is written to ``perfbench/out/results/``.  See README.md.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes whose set-up times give the median setup_s
KS_LEVEL = 1e-4  # level of the laplace-a1 KS gate
MEAN_GATE_SE = 5.0  # powernorm: |mean f - d/k| within this many batch-means SE
MEAN_GATE_BATCH = 1000  # sweeps per batch, several autocorrelation times of f

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "ess_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, crashed child)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, out: Path, setup_only: bool) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = 60 if setup_only else seconds + 100
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=str(ROOT), stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child process exceeded {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child process exited with {proc.returncode}")
    with open(out / "child.json") as fh:
        return json.load(fh)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        path = git / ref_name
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
    }


# ---------------------------------------------------------------------------
# Output checks and chain-quality figures, per workload
# ---------------------------------------------------------------------------


def evaluate_laplace(rec: dict) -> tuple:
    """(ESS, failed ops, checks) for laplace-a1."""
    z = np.load(rec["outputs"]["laplace"])
    post, thin, eps = z["post"], int(z["thin"]), float(z["eps"])
    mu_ref = ref.regularization_mu(eps)
    checks = {"mu": {"program": float(z["mu"]), "reference": mu_ref,
                     "passed": math.isclose(float(z["mu"]), mu_ref, rel_tol=1e-6)}}
    if post.size == 0:
        return 0.0, 0, dict(checks, chains={"passed": False})
    total_ess = ref.bulk_ess(post)
    kept = post[:, ::thin]
    checks["tv"] = ref.laplace_tv_gate(kept, eps)
    n_eff = min(float(kept.size), ref.ess(ref.rank_normalize(kept)))
    law = ref.RegularizedLaplace(mu_ref)
    checks["ks_regularized"] = ref.ks_gate(kept, law.cdf, n_eff, KS_LEVEL)
    return total_ess, 0, checks


def evaluate_powernorm(rec: dict) -> tuple:
    """(ESS, failed ops, checks) for powernorm-d20-cli, read from the CLI's files."""
    out = rec["outputs"]
    d, k, n_iters = out["dim"], out["alpha"] + 1.0, out["n_iters"]
    fails, f_chains = [], []
    for run in out["runs"]:
        if run["exit_code"] != 0:
            continue
        with open(run["config"]) as fh:
            cfg = json.load(fh)["chain"]
        run_dir = Path(run["dir"])
        with open(run_dir / "manifest.json") as fh:
            manifest = json.load(fh)
        if not (run_dir / "summary.json").exists():
            fails.append(f"{run_dir.name}: no summary.json")
        seeds = [cfg["seed"] + i for i in range(cfg["n_chains"])]
        if manifest["seeds"] != seeds:
            fails.append(f"{run_dir.name}: manifest seeds {manifest['seeds']} != {seeds}")
        if len(manifest["files"]) != cfg["n_chains"]:
            fails.append(f"{run_dir.name}: {len(manifest['files'])} CSV files")
        for name in manifest["files"]:
            path = run_dir / name
            with open(path) as fh:
                header = fh.readline().strip().split(",")
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            where = f"{run_dir.name}/{name}"
            if len(header) != d + 4 or rows.shape != (n_iters + 1, d + 4):
                fails.append(f"{where}: shape {rows.shape}, header {len(header)}, expected ({n_iters + 1}, {d + 4})")
                continue
            steps = rows[1:]
            if not (np.array_equal(steps[:, -1], steps[:, -2]) and steps[:, -2].min() >= 1):
                fails.append(f"{where}: subgrad_calls != bundle_iters or bundle_iters < 1")
            if not np.array_equal(rows[:, 0], np.arange(n_iters + 1)):
                fails.append(f"{where}: k column is not 0..n_iters")
            if not np.array_equal(rows[0, 1 : 1 + d], np.asarray(cfg["x_init"])):
                fails.append(f"{where}: first row is not x_init")
            f_chains.append(np.linalg.norm(rows[:, 1 : 1 + d], axis=1) ** k / k)
    checks = {"files": {"problems": fails[:10], "passed": not fails}}
    if not f_chains:
        return 0.0, 0, dict(checks, chains={"passed": False})
    checks["mean_f"] = ref.gamma_mean_gate(f_chains, d / k, MEAN_GATE_BATCH, MEAN_GATE_SE)
    return ref.bulk_ess(np.stack(f_chains)), 0, checks


def evaluate_verify(rec: dict) -> tuple:
    """(independent draws, failed suites, checks) for verify-all."""
    failed, problems = 0, []
    for rep in rec["outputs"]["reports"]:
        name = Path(rep["path"]).name
        try:
            text = Path(rep["path"]).read_text()
            report = json.loads(text)
        except (OSError, ValueError):
            failed += len(ref.VERIFY_SUITES)
            continue
        try:
            ref.parse_strict_json(text)
        except ValueError as e:
            problems.append(f"{name}: {e}")
        passed = {s.get("name"): s.get("passed") is True for s in report.get("suites", [])}
        failed += sum(not passed.get(s, False) for s in ref.VERIFY_SUITES)
        if (rep["exit_code"] == 0) != all(passed.get(s, False) for s in ref.VERIFY_SUITES):
            problems.append(f"{name}: exit code {rep['exit_code']} disagrees with the suites")
        for suite, fails in ref.verify_gates(report).items():
            if passed.get(suite, False):
                problems.extend(f"{name} {suite}: {f}" for f in fails)
    checks = {"report": {"problems": problems[:10], "passed": not problems}}
    draws = sum(r.get("draws", 0) for r in rec["rounds"])
    return float(draws), failed, checks


EVALUATE = {
    "laplace-a1": evaluate_laplace,
    "powernorm-d20-cli": evaluate_powernorm,
    "verify-all": evaluate_verify,
}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    run_dir = HERE / "out" / "runs" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        rec = run_child(workload, seed, seconds, trace, run_dir / "main", setup_only=False)
        setups = [rec["setup_s"]]
        for i in range(SETUP_SAMPLES - 1):
            setups.append(run_child(workload, seed, seconds, 0, run_dir / f"setup{i}", True)["setup_s"])
        effective, op_failed, checks = EVALUATE[workload](rec)
        if trace:
            spans = run_dir / "main" / "spans.npz"
            (HERE / "out" / "traces").mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans), str(HERE / "out" / "traces" / f"{workload}-seed{seed}.npz"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rounds = rec["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    wall = statistics.median(r["elapsed"] for r in plain)
    measured = sum(r["elapsed"] for r in plain)
    sweeps = sum(r["sweeps"] for r in plain)
    if trace:
        traced = next(r for r in rounds if r["traced"])
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in rec["layers"].items()}
        metrics["trace.overhead.steps_per_s_pct"] = {
            "value": 100.0 * (1.0 - traced["sweeps"] / traced["elapsed"] / (sweeps / measured)), "unit": "%"}
        metrics["trace.overhead.wall_s_pct"] = {"value": 100.0 * (traced["elapsed"] / wall - 1.0), "unit": "%"}
    else:
        # with --trace 0 every round is untraced
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "steps_per_s": sweeps / measured,
            "ess_per_s": effective / measured,
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds) + op_failed
    correct = all(c.get("passed", False) for c in checks.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(
        result,
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        git_sha=git_sha(),
        machine=machine(),
        setup_samples_s=setups,
        rounds=rounds,
        errors=sorted({r["error"] for r in rounds if r.get("error")}),
        checks=checks,
        patched=rec.get("patched", []),
    )
    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    print_summary(record)
    return result


def print_summary(record: dict) -> None:
    ops = "suites" if record["workload"] == "verify-all" else "chains"
    print(
        f"[{record['workload']}] seed {record['seed']}, {record['seconds']:g} s, trace {record['trace']}: "
        f"{len(record['rounds'])} rounds, {ops} attempted {record['attempted']}, failed {record['failed']}, "
        f"correct {str(record['correct']).lower()}"
    )
    for name, m in record["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for name, check in record["checks"].items():
        shown = {k: v for k, v in check.items() if k != "passed"}
        print(f"  check {name}: {'pass' if check.get('passed') else 'FAIL'} {json.dumps(shown, default=float)}")
    for err in record["errors"]:
        print(f"  error: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "proxsamp" / "__init__.py").is_file():
        print(f"error: no proxsamp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
