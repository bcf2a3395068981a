import dataclasses

import numpy as np
import pytest

from proxsamp import (
    BundleLimitError,
    CuttingPlane,
    DualSolverError,
    ProxObjective,
    RegularizedTarget,
    default_zoo,
    gap_start_bound,
    iteration_bound_composite,
    iteration_bound_semismooth,
    make_gaussian,
    make_l1,
    prox_bundle,
    select_params_semismooth,
    solve_model_subproblem,
)
from proxsamp.bundle import _active_set_dual, model_value
from proxsamp.potentials import sample_in_ball


def make_obj(pot, mu, x0, eta, y):
    return ProxObjective(RegularizedTarget(pot, mu, x0), eta, np.asarray(y, dtype=float))


def plane_at(pot, x):
    x = np.asarray(x, dtype=float)
    return CuttingPlane(anchor=x, f_val=pot.value(x), slope=pot.subgrad(x))


class TestModelSubproblem:
    def test_single_plane_closed_form(self):
        pot = make_l1(1, 1.0)
        obj = make_obj(pot, 0.0, np.zeros(1), 0.5, [2.0])
        x, val = solve_model_subproblem([plane_at(pot, [2.0])], obj)
        assert x[0] == pytest.approx(2.0 - 0.5 * 1.0)
        # grid oracle over the model objective
        u = np.arange(-4, 4, 1e-4)
        vals = 2.0 + (u - 2.0) + (u - 2.0) ** 2 / 1.0
        assert val == pytest.approx(vals.min(), abs=1e-6)

    def test_two_symmetric_planes(self):
        pot = make_l1(1, 1.0)
        obj = make_obj(pot, 0.0, np.zeros(1), 1.0, [0.0])
        planes = [
            CuttingPlane(np.array([1.0]), 1.0, np.array([1.0])),
            CuttingPlane(np.array([-1.0]), 1.0, np.array([-1.0])),
        ]
        x, val = solve_model_subproblem(planes, obj)
        assert x[0] == pytest.approx(0.0, abs=1e-10)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_regularized_2d_vs_grid(self):
        pot = make_gaussian(2, (1.0, 1.0))
        obj = make_obj(pot, 1.0, np.zeros(2), 1.0, [1.0, 0.0])
        x, val = solve_model_subproblem([plane_at(pot, [1.0, 0.0])], obj)
        np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-12)
        # dense grid cross-check
        g = np.linspace(-2, 2, 801)
        xx, yy = np.meshgrid(g, g)
        plane = 0.5 + (xx - 1.0)  # f(y0) + <grad, u - y0>
        objective = (
            plane + 0.5 * (xx**2 + yy**2) + 0.5 * ((xx - 1.0) ** 2 + yy**2)
        )
        assert val == pytest.approx(objective.min(), abs=1e-5)

    def test_multi_plane_matches_grid(self):
        rng = np.random.default_rng(11)
        pot = make_l1(1, 1.0)
        obj = make_obj(pot, 0.3, np.array([0.5]), 0.7, [1.3])
        planes = [plane_at(pot, [a]) for a in (-2.0, -0.3, 0.9, 1.3)]
        x, val = solve_model_subproblem(planes, obj)
        u = np.arange(-4, 4, 1e-5)
        model = np.max(
            [p.f_val + p.slope[0] * (u - p.anchor[0]) for p in planes], axis=0
        )
        total = model + 0.15 * (u - 0.5) ** 2 + (u - 1.3) ** 2 / 1.4
        assert val == pytest.approx(total.min(), abs=1e-8)
        assert abs(x[0] - u[np.argmin(total)]) < 1e-4

    def test_dual_iteration_cap_raises(self):
        pot = make_l1(3, 1.0)
        rng = np.random.default_rng(0)
        obj = make_obj(pot, 0.0, np.zeros(3), 1.0, rng.standard_normal(3))
        planes = [plane_at(pot, rng.standard_normal(3)) for _ in range(6)]
        with pytest.raises(DualSolverError) as exc:
            solve_model_subproblem(planes, obj, gap_tol=0.0, max_dual_iter=1)
        assert exc.value.x.shape == (3,)
        assert exc.value.max_pivots == 1
        assert exc.value.n_planes == 6

    def test_singular_gram_vs_grid(self):
        # repeated, zero and near-parallel slopes, and more than d+1 planes
        # active at a vertex, make the slope Gram matrix singular
        pot = make_gaussian(2, (1.0, 2.0))
        y = [1.0, -0.5]
        near = [plane_at(pot, [0.3 + 1e-7 * k, 0.2 - 1e-7 * k]) for k in range(3)]
        flat = CuttingPlane(np.zeros(2), 0.4, np.zeros(2))
        # with this seed and eta = 5 the solve enters planes whose slopes lie
        # in the affine hull of the support slopes
        rng = np.random.default_rng(2)
        spread = [
            CuttingPlane(np.zeros(2), rng.uniform(-1.0, 1.0), rng.standard_normal(2))
            for _ in range(8)
        ]
        cases = [(0.5, near), (0.5, near[:1] * 3 + near), (0.5, [flat, flat])]
        cases += [(0.5, [flat] + near), (5.0, spread), (0.5, spread)]
        g = np.linspace(-2, 2, 801)
        box = np.stack(np.meshgrid(g, g), axis=-1)
        h = np.linspace(-1e-3, 1e-3, 101)
        patch = np.stack(np.meshgrid(h, h), axis=-1)
        for eta, planes in cases:
            obj = make_obj(pot, 0.0, np.zeros(2), eta, y)

            def objective(pts):
                model = np.max([p.f_val + (pts - p.anchor) @ p.slope for p in planes], axis=0)
                return model + np.sum((pts - obj.y) ** 2, axis=-1) / (2.0 * eta)

            x, val = solve_model_subproblem(planes, obj)
            assert val == pytest.approx(objective(x))
            # no grid point beats x, globally or in a fine patch around it
            assert val <= objective(box).min() + 1e-12
            assert val <= objective(x + patch).min() + 1e-12


class TestUncheckedPaths:
    """The unchecked internal evaluations agree with the public ones to the bit."""

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    @pytest.mark.parametrize("mu", [0.0, 0.4])
    def test_value_paths_agree_exactly(self, name, mu):
        dim = 3
        pot = default_zoo(dim)[name]
        rng = np.random.default_rng(21)
        for _ in range(20):
            obj = make_obj(pot, mu, rng.standard_normal(dim), rng.uniform(0.05, 2.0), rng.standard_normal(dim) * 2.0)
            x = rng.standard_normal(dim) * 3.0
            assert obj._value(x) == obj.value(x)
            assert obj._value(x, pot.value(x)) == obj.value(x)
            assert obj.target._value(x) == obj.target.value(x)

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    @pytest.mark.parametrize("mu", [0.0, 0.4])
    def test_one_plane_closed_form_matches_active_set(self, name, mu):
        dim = 4
        pot = default_zoo(dim)[name]
        rng = np.random.default_rng(22)
        for _ in range(20):
            obj = make_obj(pot, mu, rng.standard_normal(dim), rng.uniform(0.05, 2.0), rng.standard_normal(dim) * 2.0)
            plane = plane_at(pot, obj.y + rng.standard_normal(dim))
            x, val = solve_model_subproblem([plane], obj)
            u, gap, pivots = _active_set_dual(
                plane.slope[None, :], np.array([plane.offset]), obj.quad_center, obj.eta_mu, 1e-10, 10
            )
            assert (gap, pivots) == (0.0, 0)
            assert x.tolist() == u.tolist()
            assert val == model_value([plane], u) + obj.quad_part(u)

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    def test_one_value_query_per_point(self, name):
        # y and every model minimizer x_j are evaluated once each
        dim = 4
        calls = []
        base = default_zoo(dim)[name]
        pot = dataclasses.replace(base, value=lambda x: calls.append(1) or base.value(x))
        rng = np.random.default_rng(23)
        for _ in range(10):
            obj = make_obj(pot, 0.1, np.zeros(dim), 0.5, rng.standard_normal(dim) * 2.0)
            calls.clear()
            res = prox_bundle(obj, delta=1e-3)
            assert len(calls) == res.iterations + 1


class TestProxBundle:
    def test_l1_one_iteration_example(self):
        pot = make_l1(1, 1.0)
        obj = make_obj(pot, 0.0, np.zeros(1), 0.5, [2.0])
        res = prox_bundle(obj, delta=0.1)
        assert res.iterations == 1
        assert res.x_model[0] == pytest.approx(1.5)
        assert res.x_best[0] == pytest.approx(1.5)
        assert res.gap == pytest.approx(0.0, abs=1e-12)
        assert res.best_value == pytest.approx(1.75)

    def test_smooth_start_at_minimizer(self):
        pot = make_gaussian(2, (1.0, 1.0))
        obj = make_obj(pot, 0.0, np.zeros(2), 0.8, [0.0, 0.0])
        res = prox_bundle(obj, delta=0.05)
        assert res.iterations == 1
        np.testing.assert_allclose(res.x_model, [0.0, 0.0], atol=1e-12)
        assert res.gap == pytest.approx(0.0, abs=1e-12)

    def test_delta_solution_guarantee_vs_prox(self):
        # g_y^eta(x_best) - min g_y^eta <= gap <= delta, minimum from closed form
        pot = make_l1(2, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.standard_normal(2) * 2.0
            obj = make_obj(pot, 0.0, np.zeros(2), 0.25, y)
            delta = 10.0 ** rng.uniform(-4, -0.5)
            res = prox_bundle(obj, delta)
            xstar = pot.prox(0.25, y)
            assert res.gap <= delta
            assert obj.value(res.x_best) - obj.value(xstar) <= res.gap + 1e-9

    def test_eq22_instance_respects_thm_bound(self):
        pot = make_l1(5, 1.0)
        eta, _ = select_params_semismooth(pot.profile, 5)
        rng = np.random.default_rng(42)
        y = rng.standard_normal(5)
        obj = make_obj(pot, 0.0, np.zeros(5), eta, y)
        res = prox_bundle(obj, delta=1.0 / 5.0)
        prof = pot.profile
        j0 = iteration_bound_semismooth(
            obj.eta_mu, prof.l_alpha, prof.alpha, 0.2, res.gaps[0]
        )
        assert res.iterations <= max(1, j0)

    def test_max_iter_error_carries_result(self):
        pot = make_l1(2, 1.0)
        obj = make_obj(pot, 0.0, np.zeros(2), 5.0, [3.0, -2.0])
        with pytest.raises(BundleLimitError) as exc:
            prox_bundle(obj, delta=1e-12, max_iter=2)
        res = exc.value.result
        assert res.iterations == 2
        assert res.gap > 1e-12

    def test_invalid_delta(self):
        pot = make_l1(1, 1.0)
        obj = make_obj(pot, 0.0, np.zeros(1), 0.5, [1.0])
        with pytest.raises(ValueError):
            prox_bundle(obj, delta=0.0)


def reconstruct_model(planes, j):
    """Model after j iterations = max of the first j planes."""
    return lambda u: max(p(u) for p in planes[:j])


# Fixed per-case seeds for test_model_and_gap_invariants.  Seeds drawn from
# hash() would change per process, since string hashing is randomized; these
# are the values hash((name, mu)) % 2**32 takes with PYTHONHASHSEED=1.  With
# them quad_plus_l1 and gaussian build models of 6 to 11 planes at both mu, and
# (0.4, quad_plus_l1) is a near-parallel-slope case on which projected-gradient
# ascent on the dual stalls.
INVARIANT_SEEDS = {
    ("l1", 0.0): 4197131524,
    ("power_norm", 0.0): 1896091004,
    ("quad_plus_l1", 0.0): 4067498020,
    ("hinge_sum", 0.0): 2235603519,
    ("gaussian", 0.0): 1544066759,
    ("l1", 0.4): 1999079072,
    ("power_norm", 0.4): 3993005848,
    ("quad_plus_l1", 0.4): 1869445568,
    ("hinge_sum", 0.4): 37551067,
    ("gaussian", 0.4): 1493497955,
}


class TestBundleInvariants:
    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    @pytest.mark.parametrize("mu", [0.0, 0.4])
    def test_model_and_gap_invariants(self, name, mu):
        dim = 3
        pot = default_zoo(dim)[name]
        rng = np.random.default_rng(INVARIANT_SEEDS[(name, mu)])
        for trial in range(5):
            y = rng.standard_normal(dim) * 2.0
            eta = rng.uniform(0.05, 1.0)
            obj = make_obj(pot, mu, np.zeros(dim), eta, y)
            res = prox_bundle(obj, delta=1e-3, max_iter=400)
            prof = pot.profile
            # models grow and stay below f
            for j in range(1, len(res.planes) + 1):
                fj = reconstruct_model(res.planes, j)
                for _ in range(100):
                    u = sample_in_ball(rng, dim, 4.0)
                    assert fj(u) <= pot.value(u) + 1e-10
                    if j > 1:
                        fp = reconstruct_model(res.planes, j - 1)
                        assert fj(u) >= fp(u) - 1e-12
            # model subproblem minimizers satisfy the strong-convexity bound
            for j, xj in enumerate(res.model_points, start=1):
                fj = reconstruct_model(res.planes, j)
                mj = fj(xj) + obj.quad_part(xj)
                for _ in range(20):
                    u = sample_in_ball(rng, dim, 4.0)
                    lhs = mj + float((u - xj) @ (u - xj)) / (2.0 * obj.eta_mu)
                    assert lhs <= fj(u) + obj.quad_part(u) + 1e-10
            # gap sequence: non-increasing, semi-smooth recursion, t1 bound
            gaps = res.gaps
            for a, b in zip(gaps, gaps[1:]):
                assert b <= a + 1e-12
            for j in range(len(gaps)):
                step = res.step_norms[j]
                rec = (
                    prof.l_alpha / (prof.alpha + 1.0) * step ** (prof.alpha + 1.0)
                    + 0.5 * prof.l_one * step**2
                )
                assert gaps[j] <= rec + 1e-10
            assert gaps[0] <= gap_start_bound(obj) + 1e-10

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    def test_iterations_below_formula_bound(self, name):
        dim = 4
        pot = default_zoo(dim)[name]
        prof = pot.profile
        from proxsamp.chain import select_params_any

        eta, delta = select_params_any(prof, dim)
        rng = np.random.default_rng(17)
        for _ in range(40):
            y = rng.standard_normal(dim) * 2.0
            obj = make_obj(pot, 0.0, np.zeros(dim), eta, y)
            res = prox_bundle(obj, delta)
            t1 = res.gaps[0]
            if prof.l_one > 0:
                j0 = iteration_bound_composite(
                    obj.eta_mu, prof.l_alpha, prof.alpha, prof.l_one, delta, t1
                )
            else:
                j0 = iteration_bound_semismooth(
                    obj.eta_mu, prof.l_alpha, prof.alpha, delta, t1
                )
            assert res.iterations <= max(1, j0)

    def test_trace_rows_shape(self):
        pot = make_l1(2, 1.0)
        obj = make_obj(pot, 0.0, np.zeros(2), 1.0, [2.0, -1.0])
        res = prox_bundle(obj, delta=1e-4)
        rows = res.trace_rows()
        assert len(rows) == res.iterations
        assert rows[0][0] == 1
