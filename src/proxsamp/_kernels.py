"""Numeric kernels: simplex projection and a projected-gradient dual ascent.

The bundle model QP no longer uses them: ``bundle._active_set_dual`` solves
it exactly.

Both kernels are written as plain numpy functions and JIT-compiled with
numba when available.  Set ``PROXSAMP_DISABLE_NUMBA=1`` to force the pure
numpy path (same semantics, slower).  ``benchmarks/bench_kernels.py``
compares the two paths.
"""

import os

import numpy as np


def _numba_disabled() -> bool:
    return os.environ.get("PROXSAMP_DISABLE_NUMBA", "").strip().lower() in (
        "1",
        "true",
        "yes",
    )


def _simplex_project_py(v):
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = 0
    for i in range(u.shape[0]):
        if u[i] - css[i] / (i + 1.0) > 0.0:
            rho = i
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _dual_ascent_py(gram, lin, curv, step, gap_tol, max_iter, w0):
    """Projected-gradient ascent for the simplex-constrained dual QP.

    Maximizes phi(w) = <w, lin> - (curv/2) w' gram w over the simplex with a
    fixed step.  Returns (w, gap, iters) where gap = max(grad) - <w, grad>
    is the primal-dual gap of the model subproblem at w; gap >= 0 for any
    feasible w.
    """
    n = w0.shape[0]
    # inline simplex projection of the warm start
    u = np.sort(w0)[::-1]
    css = np.cumsum(u) - 1.0
    rho = 0
    for i in range(n):
        if u[i] - css[i] / (i + 1.0) > 0.0:
            rho = i
    theta = css[rho] / (rho + 1.0)
    w = np.maximum(w0 - theta, 0.0)

    grad = lin - curv * (gram @ w)
    gap = np.max(grad) - np.dot(w, grad)
    it = 0
    while gap > gap_tol and it < max_iter:
        v = w + step * grad
        u = np.sort(v)[::-1]
        css = np.cumsum(u) - 1.0
        rho = 0
        for i in range(n):
            if u[i] - css[i] / (i + 1.0) > 0.0:
                rho = i
        theta = css[rho] / (rho + 1.0)
        w = np.maximum(v - theta, 0.0)
        grad = lin - curv * (gram @ w)
        gap = np.max(grad) - np.dot(w, grad)
        it += 1
    return w, gap, it


NUMBA_ENABLED = False
simplex_project = _simplex_project_py
dual_ascent = _dual_ascent_py

if not _numba_disabled():
    try:
        from numba import njit

        simplex_project = njit(cache=True)(_simplex_project_py)
        dual_ascent = njit(cache=True)(_dual_ascent_py)
        NUMBA_ENABLED = True
    except ImportError:  # numba is an optional extra
        pass
