import dataclasses
import hashlib
import math

import numpy as np
import pytest

from proxsamp import (
    BundleLimitError,
    ChainConfig,
    CuttingPlane,
    DualSolverError,
    ProxObjective,
    RegularizedTarget,
    RgoConfig,
    default_zoo,
    envelope_offset,
    gap_start_bound,
    iteration_bound_composite,
    iteration_bound_semismooth,
    lower_envelope,
    make_gaussian,
    make_l1,
    make_power_norm,
    prox_bundle,
    rgo_sample,
    run_chain,
    select_params_composite,
    select_params_semismooth,
    solve_model_subproblem,
)
from proxsamp.bundle import _ROUND_FLOOR, _active_set_dual, _two_plane_dual, model_value
from proxsamp.potentials import sample_in_ball, value_rows
from proxsamp.verify import bundle_case


def make_obj(pot, mu, x0, eta, y):
    return ProxObjective(RegularizedTarget(pot, mu, x0), eta, np.asarray(y, dtype=float))


def plane_at(pot, x):
    x = np.asarray(x, dtype=float)
    return CuttingPlane(anchor=x, f_val=pot.value(x), slope=pot.subgrad(x))


def quad_part(obj, x):
    """(mu/2)||x - x0||^2 + ||x - y||^2/(2 eta): g_y^eta's model objective
    less the plane model."""
    dx, dy = x - obj.center, x - obj.y
    return obj.half_mu * float(dx @ dx) + float(dy @ dy) / obj.two_eta


def solve(planes, obj, gap_tol=1e-10):
    """The model QP of g_y^eta: (x, model objective at x, certificate gap)."""
    x, top, gap = solve_model_subproblem(planes, obj.quad_center, obj.eta_mu, gap_tol)
    return x, top + quad_part(obj, x), gap


class TestModelSubproblem:
    def test_single_plane_closed_form(self):
        pot = make_l1(1, 1.0)
        obj = make_obj(pot, 0.0, np.zeros(1), 0.5, [2.0])
        x, val, _ = solve([plane_at(pot, [2.0])], obj)
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
        x, val, _ = solve(planes, obj)
        assert x[0] == pytest.approx(0.0, abs=1e-10)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_regularized_2d_vs_grid(self):
        pot = make_gaussian(2, (1.0, 1.0))
        obj = make_obj(pot, 1.0, np.zeros(2), 1.0, [1.0, 0.0])
        x, val, _ = solve([plane_at(pot, [1.0, 0.0])], obj)
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
        x, val, _ = solve(planes, obj)
        u = np.arange(-4, 4, 1e-5)
        model = np.max(
            [p.f_val + p.slope[0] * (u - p.anchor[0]) for p in planes], axis=0
        )
        total = model + 0.15 * (u - 0.5) ** 2 + (u - 1.3) ** 2 / 1.4
        assert val == pytest.approx(total.min(), abs=1e-8)
        assert abs(x[0] - u[np.argmin(total)]) < 1e-4

    def test_dual_iteration_cap_raises(self, monkeypatch):
        import proxsamp.bundle as bundle

        monkeypatch.setattr(bundle, "DUAL_MAX_ITER", 1)
        pot = make_l1(3, 1.0)
        rng = np.random.default_rng(0)
        obj = make_obj(pot, 0.0, np.zeros(3), 1.0, rng.standard_normal(3))
        planes = [plane_at(pot, rng.standard_normal(3)) for _ in range(6)]
        with pytest.raises(DualSolverError) as exc:
            solve(planes, obj, gap_tol=0.0)
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
        # near[:2] has w* clipped at 1 and (near[0], far) at 0 in the
        # two-plane closed form
        far = plane_at(pot, [-1.5, 1.5])
        cases = [(0.5, near), (0.5, near[:1] * 3 + near), (0.5, [flat, flat])]
        cases += [(0.5, [flat] + near), (5.0, spread), (0.5, spread)]
        cases += [(0.5, near[:2]), (0.5, [near[0], far])]
        g = np.linspace(-2, 2, 801)
        box = np.stack(np.meshgrid(g, g), axis=-1)
        h = np.linspace(-1e-3, 1e-3, 101)
        patch = np.stack(np.meshgrid(h, h), axis=-1)
        for eta, planes in cases:
            obj = make_obj(pot, 0.0, np.zeros(2), eta, y)

            def objective(pts):
                model = np.max([p.f_val + (pts - p.anchor) @ p.slope for p in planes], axis=0)
                return model + np.sum((pts - obj.y) ** 2, axis=-1) / (2.0 * eta)

            x, val, _ = solve(planes, obj)
            assert val == pytest.approx(objective(x))
            # no grid point beats x, globally or in a fine patch around it
            assert val <= objective(box).min() + 1e-12
            assert val <= objective(x + patch).min() + 1e-12

    def test_qp_gap_within_tolerance_2d(self):
        # a two-dimensional model of several planes needs the active-set
        # solver, whose certificate gap must meet gap_tol
        pot = make_l1(2, 1.0)
        obj = make_obj(pot, 0.2, np.zeros(2), 0.7, [0.4, -0.3])
        planes = [plane_at(pot, a) for a in ([0.5, -0.5], [-0.5, 0.5], [0.5, 0.5], [-0.2, -0.6])]
        for gap_tol in (1e-10, 1e-13):
            x, val, qp_gap = solve(planes, obj, gap_tol=gap_tol)
            assert 0.0 <= qp_gap <= gap_tol
        # and through prox_bundle, whose own tolerance is min(delta/100, 1e-10)
        res = prox_bundle(obj, delta=1e-6)
        assert len(res.planes) >= 2
        assert 0.0 <= res.qp_gap <= 1e-10

    def test_certificate_offset_minorizes_loose_solves(self):
        # stopped early at gap_tol = 0.5, the model value alone is no lower
        # bound, but the envelope offset built from (value, gap) still is
        pot = make_l1(2, 1.0)
        rng = np.random.default_rng(0)
        worst_gap = 0.0
        for _ in range(20):
            obj = make_obj(pot, 0.2, np.zeros(2), 0.7, rng.standard_normal(2))
            planes = [plane_at(pot, a) for a in rng.standard_normal((5, 2)) * 0.7]
            x, val, qp_gap = solve(planes, obj, gap_tol=0.5)
            worst_gap = max(worst_gap, qp_gap)
            offset = envelope_offset(val, val, qp_gap, 1.0)
            u = x + rng.standard_normal((500, 2))
            S = np.stack([p.slope for p in planes])
            b = np.array([p.offset for p in planes])
            model = np.max(u @ S.T + b, axis=1)
            quad = 0.1 * np.sum(u**2, axis=1) + np.sum((u - obj.y) ** 2, axis=1) / 1.4
            h1 = offset + np.sum((u - x) ** 2, axis=1) / (2.0 * obj.eta_mu)
            assert np.all(h1 <= model + quad + 1e-12)
        assert worst_gap > 0.3

    # seeds 0-3 cover n = 3..6 planes at d = 2 and 5; on the other five the
    # gap written as max(v) - <w, v> rounds to -2.8e-17 .. -8.9e-16
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 1376, 1864, 2332, 2349, 2927])
    def test_active_set_gap_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        d, n = (2, 5)[seed % 2], 3 + seed % 4
        S = rng.standard_normal((n, d))
        b = rng.standard_normal(n)
        c = 2.0 * rng.standard_normal(d)
        curv = rng.uniform(0.05, 2.0)
        _, gap, _ = _active_set_dual(S, b, c, curv, 1e-10, 10_000)
        assert 0.0 <= gap <= 1e-10


# Fixed seed table of two-plane model QPs: (kind, d, seed).  The offsets
# put the unclipped dual maximizer at w = 0.35 ("interior"), -0.5 ("clip0")
# or 1.5 ("clip1"); "same" and "zero" have identical slopes, "near" slopes
# 1e-7 apart with independent offsets (w* far outside [0, 1]) and
# "near-interior" slopes 1e-7 apart with w = 0.35.
TWO_PLANE_KINDS = ["interior", "clip0", "clip1", "same", "zero", "near", "near-interior"]
TWO_PLANE_CASES = [
    (kind, d, 100 * d + i) for i, kind in enumerate(TWO_PLANE_KINDS) for d in (1, 5, 20)
]


def two_plane_instance(kind, d, seed):
    rng = np.random.default_rng(seed)
    obj = make_obj(make_l1(d, 1.0), 0.0, np.zeros(d), rng.uniform(0.05, 2.0), rng.standard_normal(d) * 2.0)
    s1 = rng.standard_normal(d)
    b1, b2 = rng.standard_normal(2)
    if kind in ("interior", "clip0", "clip1"):
        s2 = rng.standard_normal(d)
    elif kind == "same":
        s2 = s1.copy()
    elif kind == "zero":
        s1, s2 = np.zeros(d), np.zeros(d)
    else:
        s2 = s1 + 1e-7 * rng.standard_normal(d) / np.sqrt(d)
    w = {"interior": 0.35, "clip0": -0.5, "clip1": 1.5, "near-interior": 0.35}.get(kind)
    if w is not None:
        ds, curv = s2 - s1, obj.eta_mu
        b2 = b1 + w * curv * float(ds @ ds) - float(ds @ (obj.quad_center - curv * s1))
    planes = [CuttingPlane(np.zeros(d), b1, s1), CuttingPlane(np.zeros(d), b2, s2)]
    return planes, obj


def exact_two_plane(planes, obj):
    """The two-plane model minimizer in rational arithmetic, rounded once."""
    from fractions import Fraction

    s1, s2 = ([Fraction(v) for v in p.slope] for p in planes)
    b1, b2 = (Fraction(p.offset) for p in planes)
    c = [Fraction(v) for v in obj.quad_center]
    curv = Fraction(obj.eta_mu)
    ds = [q - p for p, q in zip(s1, s2)]
    den = curv * sum(v * v for v in ds)
    if den == 0:
        w = Fraction(int(b2 > b1))
    else:
        num = b2 - b1 + sum(v * (ci - curv * si) for v, ci, si in zip(ds, c, s1))
        w = min(max(num / den, Fraction(0)), Fraction(1))
    return np.array([float(ci - curv * (si + w * v)) for ci, si, v in zip(c, s1, ds)])


class TestTwoPlaneClosedForm:
    @pytest.mark.parametrize("kind,d,seed", TWO_PLANE_CASES)
    def test_matches_active_set_and_exact(self, kind, d, seed):
        planes, obj = two_plane_instance(kind, d, seed)
        x, val, qp_gap = solve(planes, obj)
        S = np.stack([p.slope for p in planes])
        b = np.array([p.offset for p in planes])
        u, gap, _ = _active_set_dual(S, b, obj.quad_center, obj.eta_mu, 1e-10, 100)
        size = np.abs(u).max()
        assert np.abs(x - exact_two_plane(planes, obj)).max() <= 1e-12 * size
        # the active set's u is as accurate as its own certificate: the model
        # objective is 1/eta_mu-strongly convex, so ||u - x||^2/(2 eta_mu) is
        # at most its gap, up to the rounding floor the solver stops at
        solver_scale = np.abs(b).max() + np.abs(S).max() * (np.abs(u).sum() + np.abs(obj.quad_center).sum())
        assert np.linalg.norm(u - x) <= math.sqrt(2.0 * obj.eta_mu * (gap + _ROUND_FLOOR * solver_scale))
        # on near-parallel slopes with w* inside (0, 1) it starts at a single
        # plane whose gap already meets gap_tol, so it makes no pivot and its
        # x is off along the direction in which the model objective is flat;
        # everywhere else it agrees with the closed form to rounding
        if kind != "near-interior":
            assert np.abs(x - u).max() <= 1e-12 * size
        assert val == pytest.approx(model_value(planes, u) + quad_part(obj, u), rel=1e-12)
        scale = np.abs(b).max() + np.abs(S).max() * (np.abs(x).sum() + np.abs(obj.quad_center).sum())
        assert 0.0 <= qp_gap <= 1e-12 * scale

    def test_regime_sweeps_stay_in_closed_form(self, monkeypatch):
        # power_norm at d = 20 runs two bundle iterations per sweep at regime
        # step sizes; none of its model QPs may reach the active-set solver
        import proxsamp.bundle as bundle

        def refuse(*args):
            raise AssertionError("a model QP with at most two planes reached _active_set_dual")

        monkeypatch.setattr(bundle, "_active_set_dual", refuse)
        pot = make_power_norm(20, 0.5)
        eta, delta = select_params_semismooth(pot.profile, 20)
        cfg = ChainConfig(eta=eta, delta=delta, mu=0.0, center_x0=(0.0,) * 20, n_iters=200, seed=7)
        trace = run_chain(pot, cfg, x_init=np.linspace(-1.0, 1.0, 20))
        assert trace.bundle_iters.max() == 2


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

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    @pytest.mark.parametrize("mu", [0.0, 0.4])
    def test_one_plane_closed_form_matches_active_set(self, name, mu):
        dim = 4
        pot = default_zoo(dim)[name]
        rng = np.random.default_rng(22)
        for _ in range(20):
            obj = make_obj(pot, mu, rng.standard_normal(dim), rng.uniform(0.05, 2.0), rng.standard_normal(dim) * 2.0)
            plane = plane_at(pot, obj.y + rng.standard_normal(dim))
            x, val, qp_gap = solve([plane], obj)
            u, gap, pivots = _active_set_dual(
                plane.slope[None, :], np.array([plane.offset]), obj.quad_center, obj.eta_mu, 1e-10, 10
            )
            assert (qp_gap, gap, pivots) == (0.0, 0.0, 0)
            assert x.tolist() == u.tolist()
            assert val == model_value([plane], u) + quad_part(obj, u)

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

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    @pytest.mark.parametrize("mu", [0.0, 0.4])
    def test_moved_objective_matches_fresh(self, name, mu):
        # a chain's objective is built once and moved to each y; every value
        # read after a move must be the bits of an objective built at that y
        dim = 3
        pot = default_zoo(dim)[name]
        eta, delta = select_params_composite(pot.profile, dim)
        target = RegularizedTarget(pot, mu, np.linspace(-0.5, 0.5, dim))
        rng = np.random.default_rng(24)
        points = [rng.standard_normal(dim) * 2.0 for _ in range(8)]
        moved = ProxObjective(target, eta, rng.standard_normal(dim))

        def bits(*vals):
            return np.hstack(vals).astype("<f8").tobytes()

        def result_bits(res):
            return bits(res.x_model, res.x_best, res.iterations, res.gaps[-1], res.iterations,
                        res.best_value, res.model_value, res.qp_gap)

        for y in points:
            moved.y = y
            fresh = ProxObjective(target, eta, y)
            x = rng.standard_normal(dim) * 3.0
            assert bits(moved.value(x), quad_part(moved, x)) == bits(fresh.value(x), quad_part(fresh, x))
            assert bits(moved.quad_center) == bits(fresh.quad_center)
            assert result_bits(prox_bundle(moved, delta)) == result_bits(prox_bundle(fresh, delta))

        modes = ["bundle"] + (["exact"] if pot.prox is not None else [])
        for mode in modes:
            cfg = RgoConfig(eta=eta, delta=delta, mode=mode)
            digests = []
            for objective_at in (lambda y: setattr(moved, "y", y) or moved, lambda y: ProxObjective(target, eta, y)):
                draws = np.random.default_rng(25)
                h = hashlib.sha256()
                for y in points:
                    s = rgo_sample(objective_at(y), cfg, draws)
                    h.update(bits(s.x, s.center, s.envelope_offset, s.log_accept_ratio, s.rejections,
                                  s.bundle_iters, s.bundle_iters))
                digests.append(h.hexdigest())
            assert digests[0] == digests[1], mode

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    @pytest.mark.parametrize("mu", [0.0, 0.4])
    def test_objective_keeps_no_per_point_state(self, name, mu):
        # after construction only y changes: whichever points y was set to
        # before, in whatever order, the objective reads as one built at y
        dim = 3
        pot = default_zoo(dim)[name]
        eta, delta = select_params_composite(pot.profile, dim)
        target = RegularizedTarget(pot, mu, np.linspace(-0.5, 0.5, dim))
        rng = np.random.default_rng(27)
        points = [rng.standard_normal(dim) * 2.0 for _ in range(4)]
        xs = rng.standard_normal((5, dim)) * 3.0
        f_xs = value_rows(pot.value, xs)
        obj = ProxObjective(target, eta, points[0])
        assert not {"_sq", "_quad_center", "g_value"} & set(ProxObjective.__slots__)
        constants = {k: getattr(obj, k) for k in ProxObjective.__slots__ if k != "y"}

        def reads(o):
            res = prox_bundle(o, delta)
            vals = (o.quad_center, [o._value(x) for x in xs], o._values(xs, f_xs),
                    res.x_model, res.best_value, res.model_value, res.qp_gap)
            return np.hstack(vals).astype("<f8").tobytes()

        fresh = [reads(ProxObjective(target, eta, y)) for y in points]
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1, 1, 2]):
            for i in order:
                obj.y = points[i]
                assert reads(obj) == fresh[i], (order, i)
        assert all(getattr(obj, k) is v for k, v in constants.items())

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_solver_takes_planes_centre_and_curvature(self, n):
        # no objective: plain arrays and a float curvature in, the point, the
        # plane model of f there and the certificate gap out
        rng = np.random.default_rng(50 + n)
        d, curv = 3, 0.7
        planes = [
            CuttingPlane(rng.standard_normal(d), float(rng.standard_normal()), rng.standard_normal(d))
            for _ in range(n)
        ]
        c = rng.standard_normal(d)
        x, top, gap = solve_model_subproblem(planes, c, curv)
        if n == 1:
            assert x.tolist() == (c - curv * planes[0].slope).tolist()
            assert (top, gap) == (planes[0](x), 0.0)
        elif n == 2:
            u, v, g = _two_plane_dual(planes[0], planes[1], c, curv)
            assert (x.tolist(), top, gap) == (u.tolist(), v, g)
        else:
            assert top == model_value(planes, x)
            assert 0.0 <= gap <= 1e-10
        assert top == pytest.approx(model_value(planes, x), rel=1e-12)

        def objective(u):
            return model_value(planes, u) + float((u - c) @ (u - c)) / (2.0 * curv)

        for _ in range(200):
            assert objective(x) <= objective(x + 0.1 * rng.standard_normal(d)) + 1e-12

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    @pytest.mark.parametrize("mu", [0.0, 0.4])
    def test_sweep_values_are_objective_values(self, name, mu, monkeypatch):
        # prox_bundle values its iterates from the squared distances it
        # takes for the model value: each number is the bits of obj._value,
        # also at a point the solver moved; rgo_sample's accept ratios read
        # obj._value
        import proxsamp.bundle as bundle

        dim = 3
        pot = default_zoo(dim)[name]
        eta, delta = select_params_composite(pot.profile, dim)
        modes = ["bundle"] + (["exact"] if pot.prox is not None else [])
        rng = np.random.default_rng(26)
        for _ in range(10):
            obj = make_obj(pot, mu, rng.standard_normal(dim), eta, rng.standard_normal(dim) * 2.0)
            res = prox_bundle(obj, delta / 50.0)
            assert res.best_value == obj._value(res.x_best)
            for mode in modes:
                s = rgo_sample(obj, RgoConfig(eta=eta, delta=delta, mode=mode), rng)
                h1 = lower_envelope(s.x, s.center, s.envelope_offset, obj.inv_two_eta_mu)
                assert s.log_accept_ratio == h1 - obj._value(s.x)
            solve = bundle.solve_model_subproblem
            with monkeypatch.context() as m:
                m.setattr(bundle, "solve_model_subproblem", lambda *a: (lambda x, v, g: (x + 1e-9, v, g))(*solve(*a)))
                moved = prox_bundle(obj, delta / 50.0)
            assert moved.best_value == obj._value(moved.x_best)

    def test_rows_equal_points_where_the_regularizer_overflows(self):
        # at mu = 0, ||x - x0||^2 = inf is skipped, not multiplied by 0:
        # near y = (1e200, 0) the values are finite, not nan, on rows too
        obj = make_obj(make_l1(2, 1.0), 0.0, np.zeros(2), 0.5, [1e200, 0.0])
        xs = np.array([[1e200, 0.0], [1e200, 0.5], [1e200, -2.0]])
        with np.errstate(all="raise"):
            points = [obj._value(x) for x in xs]
            rows = obj._values(xs, obj.target.base.value(xs))
        assert points == [1e200] * 3
        assert rows.tolist() == points

    def test_one_rule_skips_the_regularizer_where_mu_halves_to_zero(self):
        # mu = 5e-324 is not 0 but mu/2 rounds to 0: the target, the
        # objective's points and its rows all skip the regularizer there
        mu = 5e-324
        target = RegularizedTarget(make_l1(2, 1.0), mu, np.zeros(2))
        obj = ProxObjective(target, 0.5, np.array([1e200, 0.0]))
        xs = np.array([[1e200, 0.0], [1e200, 0.5]])
        with np.errstate(all="raise"):
            assert [target.value(x) for x in xs] == [1e200, 1e200]
            points = [obj._value(x) for x in xs]
            rows = obj._values(xs, target.base.value(xs))
            res = prox_bundle(obj, 1e-3)
        assert points == [1e200, 1e200]
        assert rows.tolist() == points
        assert res.best_value == obj._value(res.x_best)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_list_slopes_give_the_array_slopes_bits(self, n):
        # a plane converts its slope once, when it is built, so every plane
        # count solves a list slope as it solves the float array
        rng = np.random.default_rng(40 + n)
        pot = make_l1(2, 1.0)
        obj = make_obj(pot, 0.3, np.zeros(2), 0.5, [0.4, -0.2])
        anchors = rng.standard_normal((n, 2))
        arrays = [CuttingPlane(a, pot.value(a), pot.subgrad(a)) for a in anchors]
        lists = [CuttingPlane(a, pot.value(a), pot.subgrad(a).tolist()) for a in anchors]
        assert all(p.slope.dtype == float for p in lists)
        x_a, v_a, g_a = solve(arrays, obj)
        x_l, v_l, g_l = solve(lists, obj)
        assert x_l.tolist() == x_a.tolist() and (v_l, g_l) == (v_a, g_a)


class TestProxBundle:
    def test_l1_one_iteration_example(self):
        pot = make_l1(1, 1.0)
        obj = make_obj(pot, 0.0, np.zeros(1), 0.5, [2.0])
        res = prox_bundle(obj, delta=0.1)
        assert res.iterations == 1
        assert res.x_model[0] == pytest.approx(1.5)
        assert res.x_best[0] == pytest.approx(1.5)
        assert res.gaps[-1] == pytest.approx(0.0, abs=1e-12)
        assert res.best_value == pytest.approx(1.75)

    def test_smooth_start_at_minimizer(self):
        pot = make_gaussian(2, (1.0, 1.0))
        obj = make_obj(pot, 0.0, np.zeros(2), 0.8, [0.0, 0.0])
        res = prox_bundle(obj, delta=0.05)
        assert res.iterations == 1
        np.testing.assert_allclose(res.x_model, [0.0, 0.0], atol=1e-12)
        assert res.gaps[-1] == pytest.approx(0.0, abs=1e-12)

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
            assert res.gaps[-1] <= delta
            assert obj.value(res.x_best) - obj.value(xstar) <= res.gaps[-1] + 1e-9

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
        # the last iteration cuts no plane it cannot use
        l1 = make_l1(2, 1.0)
        queries = []

        def subgrad(x):
            queries.append(x)
            return l1.subgrad(x)

        pot = dataclasses.replace(l1, subgrad=subgrad)
        obj = make_obj(pot, 0.0, np.zeros(2), 5.0, [3.0, -2.0])
        with pytest.raises(BundleLimitError) as exc:
            prox_bundle(obj, delta=1e-12, max_iter=2)
        res = exc.value.result
        assert res.iterations == 2
        assert len(queries) == 2
        assert res.gaps[-1] > 1e-12

    def test_result_holds_gap_history_and_cuts(self):
        # every call keeps t_1..t_J and its J cuts, the first at y
        pot = make_power_norm(3, 0.5, 1.0)
        rng = np.random.default_rng(5)
        for delta in (1e-1, 1e-3, 1e-6):
            obj = make_obj(pot, 0.4, np.zeros(3), 0.5, 2.0 * rng.standard_normal(3))
            res = prox_bundle(obj, delta)
            assert len(res.gaps) == len(res.planes) == res.iterations
            assert res.gaps[-1] <= delta
            assert np.array_equal(res.planes[0].anchor, obj.y)

    def test_max_iter_error_carries_gap_history(self):
        # power_norm needs 18 iterations here
        pot = make_power_norm(2, 0.5, 1.0)
        obj = make_obj(pot, 0.0, np.zeros(2), 5.0, [3.0, -2.0])
        with pytest.raises(BundleLimitError) as exc:
            prox_bundle(obj, delta=1e-12, max_iter=5)
        res = exc.value.result
        assert len(res.gaps) == len(res.planes) == 5
        assert res.gaps[-1] > 1e-12

    def test_invalid_delta(self):
        pot = make_l1(1, 1.0)
        obj = make_obj(pot, 0.0, np.zeros(1), 0.5, [1.0])
        with pytest.raises(ValueError):
            prox_bundle(obj, delta=0.0)
        # a NaN delta used to run all iterations before failing on "gap > nan"
        with pytest.raises(ValueError, match="delta must be finite"):
            prox_bundle(obj, delta=math.nan)


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
            # the sampler's envelope offset is at least the paper's, and its
            # envelope around x_model stays below g_y^eta
            offset = envelope_offset(res.best_value, res.model_value, res.qp_gap, res.delta)
            assert offset >= res.best_value - res.delta - 1e-10
            probe_rng = np.random.default_rng(trial)
            for _ in range(100):
                u = res.x_model + probe_rng.standard_normal(dim) * 2.0
                h1 = offset + float((u - res.x_model) @ (u - res.x_model)) / (2.0 * obj.eta_mu)
                assert h1 <= obj.value(u) + 1e-9
            # models grow and stay below f
            for j in range(1, len(res.planes) + 1):
                fj = reconstruct_model(res.planes, j)
                for _ in range(100):
                    u = sample_in_ball(rng, dim, 4.0)
                    assert fj(u) <= pot.value(u) + 1e-10
                    if j > 1:
                        fp = reconstruct_model(res.planes, j - 1)
                        assert fj(u) >= fp(u) - 1e-12
            # model subproblem minimizers satisfy the strong-convexity bound;
            # plane j is cut at the model point x_j, and x_model is x_J
            model_points = [p.anchor for p in res.planes[1:]] + [res.x_model]
            for j, xj in enumerate(model_points, start=1):
                fj = reconstruct_model(res.planes, j)
                mj = fj(xj) + quad_part(obj, xj)
                for _ in range(20):
                    u = sample_in_ball(rng, dim, 4.0)
                    lhs = mj + float((u - xj) @ (u - xj)) / (2.0 * obj.eta_mu)
                    assert lhs <= fj(u) + quad_part(obj, u) + 1e-10
            # gap sequence: non-increasing, semi-smooth recursion, t1 bound
            gaps = res.gaps
            for a, b in zip(gaps, gaps[1:]):
                assert b <= a + 1e-12
            prev = res.planes[0].anchor
            for j, xj in enumerate(model_points):
                step = xj - prev
                step = math.sqrt(step @ step)
                prev = xj
                rec = (
                    prof.l_alpha / (prof.alpha + 1.0) * step ** (prof.alpha + 1.0)
                    + 0.5 * prof.l_one * step**2
                )
                assert gaps[j] <= rec + 1e-10
            assert gaps[0] <= gap_start_bound(obj) + 1e-10

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    def test_iterations_below_formula_bound(self, name):
        # the same J against max(1, J0) dispatch the verify suite runs
        assert bundle_case(name, default_zoo(4)[name], 40, seed=17)["passed"]

    @pytest.mark.parametrize("name, delta", [("power_norm", 1e-3), ("quad_plus_l1", 1e-5)])
    def test_iterations_below_formula_bound_past_one_iteration(self, name, delta):
        # below the regime's delta the first gap exceeds the tolerance, so
        # J0 comes from its log(t1/delta) formula, not the one-iteration
        # branch; quad_plus_l1 (l_one > 0) runs the composite bound with its
        # l_alpha > 0 term, power_norm the semi-smooth one
        dim = 5
        pot = default_zoo(dim)[name]
        prof = pot.profile
        eta, _ = select_params_composite(prof, dim)
        target = RegularizedTarget(pot, 0.0, np.zeros(dim))
        rng = np.random.default_rng(23)
        for _ in range(100):
            obj = ProxObjective(target, eta, 2.0 * rng.standard_normal(dim))
            res = prox_bundle(obj, delta)
            t1 = res.gaps[0]
            if prof.l_one > 0:
                assert 2.0 * t1 > delta
                j0 = iteration_bound_composite(obj.eta_mu, prof.l_alpha, prof.alpha, prof.l_one, delta, t1)
            else:
                assert t1 > delta
                j0 = iteration_bound_semismooth(obj.eta_mu, prof.l_alpha, prof.alpha, delta, t1)
            assert res.iterations <= max(1, j0)

    def test_iteration_bound_closed_forms(self):
        # eta_mu = 1/2, l_alpha = 2, alpha = 0, delta = 1/4, t1 = 1
        # semi-smooth: c = 2 (1/2) 2^2 4 = 16, so j0 = 1 + ceil(17 ln 4) = 1 + ceil(23.57)
        assert iteration_bound_semismooth(0.5, 2.0, 0.0, 0.25, 1.0) == 25
        # composite with l_one = 1: c = (1/2)(1 + 2^2/(1/4)) = 8.5, so
        # j0 = 1 + ceil(9.5 ln 8) = 1 + ceil(19.75)
        assert iteration_bound_composite(0.5, 2.0, 0.0, 1.0, 0.25, 1.0) == 21
        # at or below the tolerance one iteration suffices
        assert iteration_bound_semismooth(0.5, 2.0, 0.0, 0.25, 0.25) == 1
        assert iteration_bound_composite(0.5, 2.0, 0.0, 1.0, 0.25, 0.125) == 1
