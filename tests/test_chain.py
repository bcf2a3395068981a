import dataclasses
import hashlib
import math

import numpy as np
import pytest

from proxsamp import (
    BundleLimitError,
    BundleResult,
    ChainConfig,
    DualSolverError,
    EnvelopeViolationError,
    MomentEstimate,
    ProxObjective,
    RegularizedTarget,
    RejectionLimitError,
    RgoConfig,
    default_zoo,
    gibbs_step,
    make_gaussian,
    make_hinge_sum,
    make_l1,
    make_power_norm,
    make_quad_plus_l1,
    moment_estimate,
    rgo_sample,
    run_chain,
    select_mu,
    select_num_iters,
    select_params_composite,
    select_params_semismooth,
)
from proxsamp.metrics import ks_1samp, ks_critical
from proxsamp.potentials import ZOO_NAMES, SmoothnessProfile
from proxsamp.quadrature import QuadratureDensity


class TestParamSelection:
    def test_semismooth_alpha1(self):
        eta, delta = select_params_semismooth(SmoothnessProfile(1.0, 1.0), 4)
        assert eta == pytest.approx(0.25)
        assert delta == 1.0

    def test_semismooth_alpha0(self):
        eta, delta = select_params_semismooth(SmoothnessProfile(0.0, 1.0), 1)
        assert eta == pytest.approx(0.25)
        assert delta == pytest.approx(1.0)

    def test_semismooth_alpha_half_d16(self):
        eta, delta = select_params_semismooth(SmoothnessProfile(0.5, 1.0), 16)
        assert delta == pytest.approx(16.0**-3)
        assert eta == pytest.approx(1.5 ** (4 / 3) / (2 ** (4 / 3) * 16))

    def test_composite_smooth_only(self):
        eta, delta = select_params_composite(SmoothnessProfile(1.0, 0.0, 1.0), 10)
        assert eta == pytest.approx(0.1)
        assert delta == 1.0

    def test_composite_reduces_to_semismooth(self):
        prof = SmoothnessProfile(0.5, 2.0, 0.0)
        assert select_params_composite(prof, 7) == select_params_semismooth(prof, 7)

    def test_composite_min_of_guards(self):
        eta, delta = select_params_composite(SmoothnessProfile(0.0, 2.0, 4.0), 2)
        assert eta == pytest.approx(1.0 / 32.0)
        assert delta == pytest.approx(0.5)

    def test_selection_rejects_unusable(self):
        with pytest.raises(ValueError):
            select_params_semismooth(SmoothnessProfile(0.5, 0.0), 3)
        with pytest.raises(ValueError):
            select_params_composite(SmoothnessProfile(1.0, 0.0, 0.0), 3)


class TestSelectMu:
    def test_arithmetic_example(self):
        m = MomentEstimate(m4=4.0, x_min=(0.0,), dist_sq=0.0)
        assert select_mu(0.1, m) == pytest.approx(0.1 / (math.sqrt(2) * 2.0))

    def test_distance_limit(self):
        m = MomentEstimate(m4=4.0, x_min=(0.0,), dist_sq=1e12)
        assert select_mu(0.1, m) < 1e-12

    def test_laplace_by_quadrature(self):
        pot = make_l1(1, 1.0)
        # quadrature route (bypasses analytic metadata)
        from proxsamp.quadrature import QuadratureDensity

        truth = QuadratureDensity.build(pot.value, 1)
        m4 = truth.moment(lambda x: float(x[0]) ** 4)
        assert m4 == pytest.approx(24.0, abs=1e-6)
        mu = select_mu(0.2, MomentEstimate(m4=m4, x_min=(0.0,), dist_sq=0.0))
        assert mu == pytest.approx(0.2 / (math.sqrt(2) * math.sqrt(24)), rel=1e-6)

    def test_moment_estimate_analytic_matches_quadrature(self):
        est = moment_estimate(make_l1(1, 1.0))
        assert est.source == "analytic"
        assert est.m4 == pytest.approx(24.0)
        g = make_gaussian(1, (1.0,))
        est = moment_estimate(g)
        assert est.m4 == pytest.approx(3.0)

    def test_moment_estimate_quadrature_fallback(self):
        pot = make_l1(2, 1.0)
        stripped = pot.__class__(
            dim=2,
            value=pot.value,
            subgrad=pot.subgrad,
            profile=pot.profile,
            prox=pot.prox,
            x_min=pot.x_min,
            name="l1-stripped",
        )
        est = moment_estimate(stripped)
        assert est.source == "quadrature"
        # E||x||^4 for two iid Laplace(1) coords: 2*24 + 2*(2*2) = 56
        assert est.m4 == pytest.approx(56.0, rel=1e-3)

    @pytest.mark.parametrize("case", ["l1-1", "l1-2", "hinge-2"])
    def test_quadrature_fallback_integrand_takes_rows(self, case, monkeypatch):
        # the M4 integrand is tabulated on the lattice rows in one call; on
        # rows it gives the bits of the scalar (||x - x_min||^2)^2 per point
        name, dim = case.split("-")
        dim = int(dim)
        if name == "l1":
            pot = dataclasses.replace(make_l1(dim, 1.0), fourth_moment=None)
        else:
            pot = make_hinge_sum(2, [(s * e, -0.5) for e in np.eye(2) for s in (1.0, -1.0)])
        integrands = []
        moment = QuadratureDensity.moment
        monkeypatch.setattr(QuadratureDensity, "moment", lambda q, fn: integrands.append(fn) or moment(q, fn))
        est = moment_estimate(pot)
        assert est.source == "quadrature"
        (fn,) = integrands
        assert fn.takes_rows
        xm = np.asarray(est.x_min)
        xs = np.concatenate([np.zeros((1, dim)), np.random.default_rng(5).standard_normal((200, dim)) * 7.0])
        points = [float(np.sum((x - xm) ** 2)) ** 2 for x in xs]
        assert fn(xs).tolist() == points == [fn(x) for x in xs]

    def test_moment_estimate_above_d2_without_m4_asks_for_mu(self):
        pot = dataclasses.replace(make_l1(3, 1.0), fourth_moment=None)
        with pytest.raises(ValueError, match="set mu explicitly"):
            moment_estimate(pot)

    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_zoo_moments_are_analytic(self, d, monkeypatch):
        import proxsamp.chain as chain

        def refuse(*args, **kwargs):
            raise AssertionError("parameter selection ran a chain")

        monkeypatch.setattr(chain, "run_chain", refuse)
        zoo = default_zoo(d)
        assert tuple(zoo) == ZOO_NAMES
        for name, pot in zoo.items():
            assert pot.fourth_moment is not None and pot.x_min is not None, name
            assert moment_estimate(pot).source == "analytic", name

    def test_hinge_fourth_moment_matches_quadrature_d2(self):
        # E||x||^4 = sum m4 + (sum m2)^2 - sum m2^2 against the 2-D lattice
        pot = default_zoo(2)["hinge_sum"]
        truth = QuadratureDensity.build(pot.value, 2)
        assert pot.fourth_moment == pytest.approx(
            truth.moment(lambda x: float(x @ x) ** 2), rel=1e-4
        )

    @pytest.mark.parametrize("d", [1, 5, 20])
    def test_power_norm_alpha_one_is_gaussian(self, d):
        # at alpha = 1 the target is N(0, I): E||x||^4 = d(d+2)
        m4 = make_power_norm(d, 1.0).fourth_moment
        assert m4 == pytest.approx(make_gaussian(d, np.ones(d)).fourth_moment, rel=1e-12)
        assert m4 == pytest.approx(d * (d + 2), rel=1e-12)

    @pytest.mark.parametrize("alpha, c", [(0.0, 1.0), (0.5, 1.0), (0.3, 2.5)])
    def test_power_norm_fourth_moment_matches_quadrature(self, alpha, c):
        from proxsamp.quadrature import QuadratureDensity

        pot = make_power_norm(1, alpha, c)
        truth = QuadratureDensity.build(pot.value, 1)
        assert pot.fourth_moment == pytest.approx(
            truth.moment(lambda x: float(x[0]) ** 4), rel=1e-6
        )

    def test_quad_plus_l1_fourth_moment_d20(self):
        # one-dimensional quadrature of exp(-x^2/2 - |x|) per coordinate
        assert make_quad_plus_l1(20, np.ones(20), 1.0).fourth_moment == pytest.approx(
            102.6724, rel=1e-6
        )

    @pytest.mark.parametrize("q, s", [(1.0, 1.0), (2.0, 1.5), (0.0, 1.0)])
    def test_quad_plus_l1_fourth_moment_matches_quadrature(self, q, s):
        from proxsamp.quadrature import QuadratureDensity

        pot = make_quad_plus_l1(1, (q,), s)
        truth = QuadratureDensity.build(pot.value, 1)
        assert pot.fourth_moment == pytest.approx(
            truth.moment(lambda x: float(x[0]) ** 4), rel=1e-6
        )

    def test_quad_plus_l1_moment_estimate_is_analytic(self):
        est = moment_estimate(make_quad_plus_l1(20, np.ones(20), 1.0))
        assert est.source == "analytic"

    def test_power_norm_moment_estimate_is_analytic(self):
        est = moment_estimate(make_power_norm(20, 0.5))
        assert est.source == "analytic"
        # 1.5^(8/3) Gamma(20/1.5 + 8/3) / Gamma(20/1.5)
        assert est.m4 == pytest.approx(3452.644, rel=1e-6)


class TestIterationBudget:
    def test_strongly_convex_rule(self):
        b = select_num_iters(eps=0.2, eta=0.25, mu=0.1, h0=1.0)
        k = math.ceil(math.log(2 * 1.0 / 0.04) / (2 * math.log1p(0.025)))
        assert b.n_iters == k
        assert b.rule == "kl-contraction"

    def test_convex_rule(self):
        b = select_num_iters(eps=0.1, eta=0.5, mu=0.0, w2sq=3.0)
        assert b.n_iters == math.ceil(3.0 / 0.05)
        assert b.rule == "w2-over-k-eta"


class TestChain:
    def test_zero_iterations(self):
        pot = make_l1(1, 1.0)
        cfg = ChainConfig(eta=0.25, delta=1.0, mu=0.0, center_x0=(0.0,), n_iters=0, seed=1)
        trace = run_chain(pot, cfg)
        assert trace.iterates.shape == (1, 1)
        assert trace.aux.shape == (0, 1)

    def test_deterministic_replay(self):
        pot = make_l1(2, 1.0)
        eta, delta = select_params_semismooth(pot.profile, 2)
        cfg = ChainConfig(eta=eta, delta=delta, mu=0.05, center_x0=(0.0, 0.0), n_iters=30, seed=7)
        t1 = run_chain(pot, cfg)
        t2 = run_chain(pot, cfg)
        np.testing.assert_array_equal(t1.iterates, t2.iterates)
        np.testing.assert_array_equal(t1.aux, t2.aux)
        np.testing.assert_array_equal(t1.rejections, t2.rejections)

    def test_chains_differ_across_seeds(self):
        pot = make_l1(1, 1.0)
        eta, delta = select_params_semismooth(pot.profile, 1)
        cfg = ChainConfig(eta=eta, delta=delta, mu=0.0, center_x0=(0.0,), n_iters=10, seed=0)
        traces = [run_chain(pot, dataclasses.replace(cfg, seed=cfg.seed + i)) for i in range(3)]
        assert not np.allclose(traces[0].iterates, traces[1].iterates)
        assert not np.allclose(traces[1].iterates, traces[2].iterates)

    def test_free_potential_one_step_law(self):
        # f = 0: x' | x ~ N(x, 2 eta) (convolution of the two conditionals)
        from tests_zero_helper import make_zero

        pot = make_zero(1)
        eta = 0.7
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(1)), eta, np.zeros(1))
        cfg = RgoConfig(eta=eta, mode="exact")
        rng = np.random.default_rng(3)
        n = 20000
        x0 = np.array([1.3])
        out = np.empty(n)
        for i in range(n):
            _, s = gibbs_step(x0, obj, cfg, rng)
            out[i] = s.x[0]
        from scipy.special import ndtr

        z = (out - 1.3) / math.sqrt(2 * eta)
        stat = ks_1samp(z, ndtr)
        assert stat < ks_critical(0.01, n)

    def test_gaussian_stationary_one_step(self):
        pot = make_gaussian(1, (1.0,))
        eta = 1.0
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(1)), eta, np.zeros(1))
        cfg = RgoConfig(eta=eta, mode="exact")
        rng = np.random.default_rng(4)
        n = 20000
        x0 = pot.sample_exact(rng, n)
        out = np.empty(n)
        for i in range(n):
            _, s = gibbs_step(x0[i], obj, cfg, rng)
            out[i] = s.x[0]
        from scipy.special import ndtr

        stat = ks_1samp(out, ndtr)
        assert stat < ks_critical(0.01, n)

    def test_gaussian_stationary_after_fifty_steps(self):
        pot = make_gaussian(1, (1.0,))
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(1)), 1.0, np.zeros(1))
        cfg = RgoConfig(eta=1.0, mode="exact")
        n = 3000
        rng = np.random.default_rng(5)
        x0 = pot.sample_exact(rng, n)
        out = np.empty(n)
        for i in range(n):
            x = x0[i]
            for _ in range(50):
                _, s = gibbs_step(x, obj, cfg, rng)
                x = s.x
            out[i] = x[0]
        from scipy.special import ndtr

        assert ks_1samp(out, ndtr) < ks_critical(0.01, n)

    def test_trace_csv_roundtrip(self, tmp_path):
        pot = make_l1(1, 1.0)
        eta, delta = select_params_semismooth(pot.profile, 1)
        cfg = ChainConfig(eta=eta, delta=delta, mu=0.0, center_x0=(0.0,), n_iters=25, seed=2)
        trace = run_chain(pot, cfg)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        trace.to_csv(p1)
        run_chain(pot, cfg).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "k,x0,rejections,bundle_iters,subgrad_calls"
        assert len(p1.read_text().splitlines()) == 27  # header + K+1 rows

    def test_csv_bytes_match_per_value_writer(self, tmp_path):
        # the writer of earlier releases: one repr(float(v)) per value
        def reference_csv(trace):
            d = trace.iterates.shape[1]
            lines = ["k," + ",".join(f"x{i}" for i in range(d)) + ",rejections,bundle_iters,subgrad_calls"]
            for k in range(trace.iterates.shape[0]):
                xs = ",".join(repr(float(v)) for v in trace.iterates[k])
                if k == 0:
                    lines.append(f"0,{xs},0,0,0")
                else:
                    lines.append(
                        f"{k},{xs},{int(trace.rejections[k - 1])},"
                        f"{int(trace.bundle_iters[k - 1])},{int(trace.subgrad_calls[k - 1])}"
                    )
            return ("\n".join(lines) + "\n").encode()

        pot = make_l1(3, 1.0)
        eta, delta = select_params_semismooth(pot.profile, 3)
        cfg = ChainConfig(eta=eta, delta=delta, mu=0.1, center_x0=(0.0,) * 3, n_iters=40, seed=4)
        trace = run_chain(pot, cfg, x_init=np.array([1e-300, -0.0, 123456789.125]))
        path = tmp_path / "c.csv"
        trace.to_csv(path)
        assert path.read_bytes() == reference_csv(trace)

    def test_sampler_failure_carries_context(self, monkeypatch):
        import functools
        import pickle

        import proxsamp.rejection as rejection
        from proxsamp import prox_bundle

        # one bundle iteration cannot reach this gap tolerance
        monkeypatch.setattr(rejection, "prox_bundle", functools.partial(prox_bundle, max_iter=1))
        pot = make_power_norm(5, 0.5)
        eta, _ = select_params_semismooth(pot.profile, 5)
        cfg = ChainConfig(eta=eta, delta=1e-12, mu=0.0, center_x0=(0.0,) * 5, n_iters=3, seed=8)
        with pytest.raises(BundleLimitError) as exc:
            run_chain(pot, cfg)
        err = exc.value
        assert err.context["step"] == 0 and err.context["seed"] == 8
        assert len(err.context["y"]) == 5
        assert str(err).endswith(f"(step 0, seed 8, y {err.context['y']})")
        # worker processes return the error pickled
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is BundleLimitError
        assert str(back) == str(err)
        assert back.result.iterations == err.result.iterations

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(eta=0.0, delta=1.0, mu=0.0, center_x0=(0.0,), n_iters=1, seed=0)
        with pytest.raises(ValueError):
            ChainConfig(eta=1.0, delta=1.0, mu=-0.1, center_x0=(0.0,), n_iters=1, seed=0)
        with pytest.raises(ValueError):
            ChainConfig(eta=1.0, delta=1.0, mu=0.0, center_x0=(0.0,), n_iters=1, seed=0, regime="bad")
        # mu = inf used to reach the model QP and exhaust its pivot budget
        for mu in (math.inf, math.nan):
            with pytest.raises(ValueError, match="mu must be finite and >= 0"):
                ChainConfig(eta=0.0625, delta=1.0, mu=mu, center_x0=(0.0,), n_iters=2, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_init_rejected_before_first_sweep(self, bad):
        pot = make_l1(1, 1.0)
        cfg = ChainConfig(eta=0.0625, delta=1.0, mu=0.0, center_x0=(0.0,), n_iters=2, seed=0)
        with pytest.raises(ValueError, match="x_init must be finite"):
            run_chain(pot, cfg, x_init=[bad])

    @pytest.mark.parametrize("mode", ["bundle", "exact"])
    @pytest.mark.parametrize("d, x_dim", [(1, 3), (3, 1)])
    def test_gibbs_step_rejects_wrong_shape_point(self, mode, d, x_dim):
        # a (3,) point with d = 1 used to run silently in bundle mode, and
        # a (1,) point with d = 3 was broadcast over all three coordinates
        y0 = np.full(d, 0.25)
        obj = ProxObjective(RegularizedTarget(make_l1(d, 1.0), 0.0, np.zeros(d)), 0.1, y0)
        cfg = RgoConfig(eta=0.1, delta=0.1, mode=mode)
        with pytest.raises(ValueError, match=rf"expected \({d},\)"):
            gibbs_step(np.zeros(x_dim), obj, cfg, np.random.default_rng(0))
        assert obj.y is y0

    @pytest.mark.parametrize("mode", ["bundle", "exact"])
    def test_gibbs_step_converts_other_points_as_before(self, mode):
        # only a float64 (d,) ndarray skips _check_point; a list, a scalar,
        # another dtype or byte order is converted and gives the same sweep
        obj = ProxObjective(RegularizedTarget(make_l1(1, 1.0), 0.0, np.zeros(1)), 0.1, np.zeros(1))
        cfg = RgoConfig(eta=0.1, delta=0.1, mode=mode)

        def sweep(x):
            y, s = gibbs_step(x, obj, cfg, np.random.default_rng(3))
            return y.tolist(), s.x.tolist(), s.rejections

        want = sweep(np.array([0.5]))
        for x in ([0.5], 0.5, np.array(0.5), np.array([0.5], dtype=np.float32), np.array([0.5], dtype=">f8")):
            assert sweep(x) == want
        with pytest.raises(ValueError, match=r"expected \(1,\)"):
            gibbs_step(np.array([[0.5]]), obj, cfg, np.random.default_rng(3))



class TestBoundaryChecks:
    """Each input is checked once, where it enters, with errors naming it."""

    @pytest.mark.parametrize(
        "make_error",
        [
            lambda: DualSolverError("qp cap", x=np.array([0.5, -1.0]), gap=0.25, max_pivots=7, n_planes=3),
            lambda: BundleLimitError(
                "bundle cap",
                BundleResult(
                    x_model=np.zeros(2), x_best=np.ones(2), iterations=4, gap=0.5, oracle_calls=4,
                    best_value=1.5, model_value=1.0, delta=0.1, qp_gap=0.0,
                ),
            ),
            lambda: RejectionLimitError("proposal cap", 1000, np.array([2.0])),
            lambda: EnvelopeViolationError("envelope above target"),
        ],
        ids=["dual", "bundle", "rejection", "envelope"],
    )
    def test_sampler_errors_pickle_round_trip(self, make_error):
        import pickle

        err = make_error()
        err.context.update(chain=1, step=2, seed=3, y=[0.25, -0.5])
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert back.args == err.args
        assert back.context == err.context
        assert str(back) == str(err) and str(err).endswith("(chain 1, step 2, seed 3, y [0.25, -0.5])")
        attrs = {k: v for k, v in vars(err).items() if k != "context"}
        assert set(vars(back)) == set(vars(err))
        for key, value in attrs.items():
            if isinstance(value, BundleResult):
                assert back.result.x_best.tolist() == value.x_best.tolist()
                assert (back.result.iterations, back.result.gap) == (value.iterations, value.gap)
            elif isinstance(value, np.ndarray):
                assert getattr(back, key).tolist() == value.tolist()
            else:
                assert getattr(back, key) == value

    def test_wrong_length_center_fails_before_step_size_warning(self):
        import warnings

        # eta = 1 exceeds the l1 guard 1/16, so a sweep-ready chain would warn first
        cfg = ChainConfig(eta=1.0, delta=1.0, mu=0.0, center_x0=(0.0, 0.0), n_iters=2, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"center has shape \(2,\), expected \(1,\)"):
                run_chain(make_l1(1, 1.0), cfg)
        assert caught == []

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda t: RegularizedTarget(t.base, 0.0, [0.0]), r"center has shape \(1,\), expected \(2,\)"),
            (lambda t: RegularizedTarget(t.base, 0.0, [math.nan, 0.0]), "center must be finite"),
            (lambda t: ProxObjective(t, 0.1, [0.0, 0.0, 0.0]), r"y has shape \(3,\), expected \(2,\)"),
            (lambda t: ProxObjective(t, 0.1, [0.0, math.inf]), "y must be finite"),
            (lambda t: run_chain(t.base, _l1_config(2), x_init=[1.0]), r"x_init has shape \(1,\), expected \(2,\)"),
            (lambda t: run_chain(t.base, _l1_config(2), x_init=[0.0, -math.inf]), "x_init must be finite"),
        ],
        ids=["center-shape", "center-finite", "y-shape", "y-finite", "x_init-shape", "x_init-finite"],
    )
    def test_point_errors_name_the_input(self, build, message):
        target = RegularizedTarget(make_l1(2, 1.0), 0.0, np.zeros(2))
        with pytest.raises(ValueError, match=message):
            build(target)

    def test_exact_mode_without_prox_fails_before_first_sweep(self, monkeypatch):
        import proxsamp.chain as chain

        def no_sweep(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(chain, "gibbs_step", no_sweep)
        pot = make_hinge_sum(2, [(s * e, -0.5) for e in np.eye(2) for s in (1.0, -1.0)])
        eta, delta = select_params_semismooth(pot.profile, 2)
        cfg = ChainConfig(
            eta=eta, delta=delta, mu=0.1, center_x0=(0.0, 0.0), n_iters=3, seed=0, rgo_mode="exact"
        )
        with pytest.raises(ValueError, match="'hinge_sum' has no closed-form prox for exact mode"):
            run_chain(pot, cfg)

    @pytest.mark.parametrize(
        "seed, message",
        [
            pytest.param(-1, "seed must be >= 0, got -1", id="-1"),
            pytest.param(1.7, "seed must be an integer, got 1.7", id="1.7"),
            pytest.param(2.0, "seed must be an integer, got 2.0", id="2.0"),
            pytest.param(True, "seed must be an integer, got True", id="True"),
            pytest.param("3", "seed must be an integer, got '3'", id="3"),
            pytest.param(None, "seed must be an integer, got None", id="None"),
        ],
    )
    def test_config_refuses_a_seed_numpy_would_refuse_or_truncate(self, seed, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            ChainConfig(eta=0.0625, delta=1.0, mu=0.0, center_x0=(0.0,), n_iters=1, seed=seed)

    def test_config_takes_numpy_integer_seed(self):
        cfg = ChainConfig(eta=0.0625, delta=1.0, mu=0.0, center_x0=(0.0,), n_iters=3, seed=np.int64(4))
        same = dataclasses.replace(cfg, seed=4)
        assert run_chain(make_l1(1, 1.0), cfg).iterates.tolist() == run_chain(make_l1(1, 1.0), same).iterates.tolist()


def _l1_config(d):
    eta, delta = select_params_semismooth(make_l1(d, 1.0).profile, d)
    return ChainConfig(eta=eta, delta=delta, mu=0.0, center_x0=(0.0,) * d, n_iters=2, seed=0)


def _trace_digest(trace):
    h = hashlib.sha256()
    for a in (trace.iterates, trace.aux, trace.rejections, trace.bundle_iters, trace.subgrad_calls):
        h.update(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


class TestSeedReplay:
    """Chains replay bit for bit, so any change to the RNG call order or to
    a floating-point expression on the sampling path shows here.  When each
    pin was recorded:

    - exact mode (``test_gaussian_exact_regularized``, the "gaussian" sweep
      digest): before the sweep was streamlined (unchecked inner
      evaluations, one value query per point, the one-plane closed form);
    - l1 in bundle mode (``test_l1_bundle_regularized``, the "l1" sweep
      digest), one-plane steps only: with the dual-certificate envelope
      (manifest ``envelope`` "dual-certificate;v2");
    - power_norm in bundle mode (``test_power_norm_bundle_d20``, the
      "power_norm" sweep digest), two planes per sweep: with the two-plane
      closed form of the model QP, which moved the last bits of x_model;
    - the active-set QP, exact mode at mu = 0, the two-plane step with mu > 0
      off-centre, and direct ``rgo_sample`` calls alternating modes
      (``test_gaussian_bundle_active_set_d5`` to
      ``test_rgo_sample_alternating_modes``): before the per-chain sweep
      constants, which left every pin here unchanged.

    The chain digests cover iterates, aux, rejections, bundle_iters and
    subgrad_calls."""

    def test_l1_bundle_regularized(self):
        pot = make_l1(1, 1.0)
        eta, delta = select_params_semismooth(pot.profile, 1)
        cfg = ChainConfig(eta=eta, delta=delta, mu=0.05, center_x0=(0.0,), n_iters=12, seed=11)
        trace = run_chain(pot, cfg, x_init=np.array([0.3]))
        expected = [
            "0x1.3333333333333p-2", "0x1.2b5c4ff252971p-1", "0x1.46a997848bbaep-2",
            "0x1.88e8e006cb89bp-2", "0x1.3be645a1ce824p-3", "0x1.cd2051d1bd6b7p-4",
            "-0x1.3ceed1f330b32p-5", "-0x1.247116f0d65f0p-1", "-0x1.274ed4de14eb5p+0",
            "-0x1.808449bea4994p+0", "-0x1.33b25f7d5e58fp+0", "-0x1.39a0f5ec3e725p+0",
            "-0x1.1909bbdf7b7b2p+0",
        ]
        assert trace.iterates[:, 0].tolist() == [float.fromhex(h) for h in expected]
        assert trace.rejections.tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]
        assert trace.bundle_iters.tolist() == [1] * 12
        assert _trace_digest(trace) == "157009da7f27b9651d05e4b89a216f5d63352d4038ebf7d00031405b23276284"

    def test_power_norm_bundle_d20(self):
        pot = make_power_norm(20, 0.5)
        eta, delta = select_params_semismooth(pot.profile, 20)
        cfg = ChainConfig(eta=eta, delta=delta, mu=0.0, center_x0=(0.0,) * 20, n_iters=6, seed=3)
        trace = run_chain(pot, cfg, x_init=np.linspace(-1.0, 1.0, 20))
        expected = [
            "0x1.1c2a17998ee48p-10", "-0x1.41c5f8eed0142p-1", "-0x1.38c5ce03c0a5dp+0",
            "-0x1.ef40795b9256ap-2", "-0x1.83b9740ea47b9p-3", "-0x1.829b602ce5912p-2",
            "0x1.ca6a2d14bb30ep-1", "-0x1.c61b792c2425cp-5", "-0x1.8b66ec6d49540p-4",
            "-0x1.4720bd4c2ac92p-2", "-0x1.e57afa026ca48p-4", "0x1.067014c805210p-2",
            "0x1.ed7adf506ca8dp-2", "-0x1.d9f2bcb7ab09ep-2", "0x1.47c9c845d0411p-3",
            "0x1.ea003a903237bp-1", "0x1.c28a0c0699400p-3", "0x1.d4c7b7fbcb9e2p-1",
            "0x1.ccfcd759d658ap-1", "0x1.b1fb73fc76d3ap-1",
        ]
        assert trace.final.tolist() == [float.fromhex(h) for h in expected]
        assert trace.rejections.tolist() == [0, 1, 0, 0, 0, 0]
        assert trace.bundle_iters.tolist() == [2] * 6
        assert trace.subgrad_calls.tolist() == [2] * 6
        assert _trace_digest(trace) == "a125685d15138e8da72bda12b5ebfd98922a7f763fef7ebbf58f43092b056646"

    def test_gaussian_exact_regularized(self):
        pot = make_gaussian(3, (1.0, 2.0, 4.0))
        cfg = ChainConfig(
            eta=0.08, delta=0.0, mu=0.1, center_x0=(0.5, 0.0, -0.5), n_iters=10, seed=5, rgo_mode="exact"
        )
        trace = run_chain(pot, cfg)
        expected = ["-0x1.4bdee1bca6a44p-1", "-0x1.3e44466e067f0p-2", "-0x1.d78b7d8c48131p-1"]
        assert trace.final.tolist() == [float.fromhex(h) for h in expected]
        assert trace.rejections.tolist() == [0, 1, 0, 0, 0, 0, 0, 1, 0, 3]
        assert _trace_digest(trace) == "700d4d25107d8ddc2e6b28d92f4ce5eda775b3b7abf311261f8a2aa5c9b45779"

    def test_gaussian_bundle_active_set_d5(self):
        # delta = 1e-6 forces five bundle iterations, so the model QP of the
        # last three runs the active-set solver
        pot = make_gaussian(5, np.ones(5))
        eta, _ = select_params_composite(pot.profile, 5)
        cfg = ChainConfig(
            eta=eta, delta=1e-6, mu=0.0, center_x0=(0.0,) * 5, n_iters=8, seed=41, regime="composite"
        )
        trace = run_chain(pot, cfg, x_init=np.linspace(-1.0, 1.0, 5))
        expected = [
            "-0x1.b6d4ab3a685a8p+0", "-0x1.e677c5faf8342p-1", "-0x1.d0c7b1906923ap-1",
            "0x1.622a8d72795b6p-1", "-0x1.33b731a53d0a7p-3",
        ]
        assert trace.final.tolist() == [float.fromhex(h) for h in expected]
        assert trace.rejections.tolist() == [2, 1, 0, 1, 0, 1, 0, 0]
        assert trace.bundle_iters.tolist() == [5] * 8
        assert _trace_digest(trace) == "86545bdb565acf85bb8f2061796eab44b6cb9b0897ebd98129b61992958eed22"

    def test_l1_exact_unregularized(self):
        # the path of the stationarity and tv-decay suites: exact mode, mu = 0
        pot = make_l1(1, 1.0)
        eta, _ = select_params_composite(pot.profile, 1)
        cfg = ChainConfig(
            eta=eta, delta=1.0, mu=0.0, center_x0=(0.0,), n_iters=12, seed=22,
            regime="composite", rgo_mode="exact",
        )
        trace = run_chain(pot, cfg, x_init=np.array([3.0]))
        expected = [
            "0x1.8000000000000p+1", "0x1.24bf76d0b2678p+1", "0x1.37228b574619ep+1",
            "0x1.75bdb64b38434p+1", "0x1.666b34e6175abp+1", "0x1.bfef09e2d300dp+1",
            "0x1.8d8caa213e79ap+1", "0x1.550048b27bc2dp+1", "0x1.3d18bd4cabf11p+1",
            "0x1.080e9537244a5p+1", "0x1.d17a2cb2a251cp+0", "0x1.090ab1ca1d476p+1",
            "0x1.c869510161637p+0",
        ]
        assert trace.iterates[:, 0].tolist() == [float.fromhex(h) for h in expected]
        assert trace.rejections.tolist() == [0] * 12
        assert _trace_digest(trace) == "0fa8f7c408f3bfd3eec66a14762d0f4e0fd897e4761d75bb5d9095a7be101aa5"

    def test_power_norm_bundle_regularized_off_centre(self):
        # mu > 0 and a non-zero centre enter the shifted prox centre; delta =
        # 1e-3 makes every sweep a two-plane step
        pot = make_power_norm(5, 0.5)
        eta, _ = select_params_semismooth(pot.profile, 5)
        cfg = ChainConfig(
            eta=eta, delta=1e-3, mu=0.3, center_x0=(0.5, -0.25, 0.0, 0.25, -0.5), n_iters=10, seed=17
        )
        trace = run_chain(pot, cfg, x_init=np.linspace(-1.0, 1.0, 5))
        expected = [
            "0x1.42c37396a740ap-1", "-0x1.ccf7931562d53p+0", "0x1.0f77e64a293bdp-1",
            "-0x1.ed655412a8b7cp-1", "0x1.1e0779abcc4dap-1",
        ]
        assert trace.final.tolist() == [float.fromhex(h) for h in expected]
        assert trace.bundle_iters.tolist() == [2] * 10
        assert trace.subgrad_calls.tolist() == [2] * 10
        assert _trace_digest(trace) == "4b71d3762f08ec8184dc47e32bd3339a902388e32de96ad5ee2958ecf479c6e8"

    def test_rgo_sample_alternating_modes(self):
        # A8's call pattern: one objective, one Generator, exact and bundle
        # calls in turn
        pot = make_l1(1, 1.0)
        eta, delta = select_params_semismooth(pot.profile, 1)
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(1)), eta, np.array([0.7]))
        cfgs = (RgoConfig(eta=eta, mode="exact"), RgoConfig(eta=eta, delta=delta, mode="bundle"))
        rng = np.random.default_rng(23)
        h = hashlib.sha256()
        counts = []
        for i in range(200):
            s = rgo_sample(obj, cfgs[i % 2], rng)
            h.update(np.array([*s.x, *s.center, s.envelope_offset, s.log_accept_ratio], dtype="<f8").tobytes())
            counts.append((s.rejections, s.bundle_iters, s.subgrad_calls))
        h.update(np.array(counts, dtype="<i8").tobytes())
        assert h.hexdigest() == "240bf13dd9cfa263fc5ec3cefc3711b76430e904b5f8f9b67cc7d4794fa4d59a"

    SWEEP_DIGESTS = {
        "l1": "9f97e51f32424eb991925b1d61e7300775a069bdeaaf702751c24167831ac2ef",
        "power_norm": "e4037ee127274201d90b43e0f5cb57944496d972dda55fccd174d535720a7763",
        "gaussian": "ab811ddd9dd10019e9aa62a118d5830563e2ac91d0c710e28d6bb0d6c093dce9",
    }

    @pytest.mark.parametrize("case", ["l1", "power_norm", "gaussian"])
    def test_sweep_values_replay(self, case):
        # the iterates depend on objective values only through accept
        # decisions; envelope offsets and log accept ratios pin the values
        if case == "l1":
            pot = make_l1(1, 1.0)
            eta, delta = select_params_semismooth(pot.profile, 1)
            mu, center, mode, x, seed, n = 0.05, [0.0], "bundle", np.array([0.3]), 11, 50
        elif case == "power_norm":
            pot = make_power_norm(20, 0.5)
            eta, delta = select_params_semismooth(pot.profile, 20)
            mu, center, mode, x, seed, n = 0.0, np.zeros(20), "bundle", np.linspace(-1.0, 1.0, 20), 3, 20
        else:
            pot = make_gaussian(3, (1.0, 2.0, 4.0))
            eta, delta = 0.08, 0.0
            mu, center, mode, x, seed, n = 0.1, [0.5, 0.0, -0.5], "exact", np.zeros(3), 5, 50
        obj = ProxObjective(RegularizedTarget(pot, mu, np.asarray(center, dtype=float)), eta, x)
        cfg = RgoConfig(eta=eta, delta=delta, mode=mode)
        rng = np.random.default_rng(seed)
        h = hashlib.sha256()
        for _ in range(n):
            y, s = gibbs_step(x, obj, cfg, rng)
            x = s.x
            vals = np.array([*y, *s.x, *s.center, s.envelope_offset, s.log_accept_ratio], dtype="<f8")
            h.update(vals.tobytes())
        assert h.hexdigest() == self.SWEEP_DIGESTS[case]
