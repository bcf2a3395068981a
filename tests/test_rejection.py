import math
import re
import time
import warnings

import numpy as np
import pytest

from proxsamp import (
    ChainConfig,
    EnvelopeViolationError,
    NonFiniteObjectiveError,
    Potential,
    ProxObjective,
    RegularizedTarget,
    RejectionLimitError,
    RgoConfig,
    SamplerError,
    SmoothnessProfile,
    StepSizeWarning,
    envelope_offset,
    gibbs_step,
    lower_envelope,
    make_gaussian,
    make_l1,
    make_power_norm,
    prox_bundle,
    prox_of_target,
    rejection_bound,
    rgo_sample,
    run_chain,
    select_params_composite,
    select_params_semismooth,
    upper_envelope,
)
from proxsamp.metrics import ks_1samp, ks_critical
from proxsamp.quadrature import QuadratureDensity
from tests_zero_helper import make_zero


def l1_objective(eta, y, mu=0.0, dim=1, scale=1.0):
    pot = make_l1(dim, scale)
    return ProxObjective(RegularizedTarget(pot, mu, np.zeros(dim)), eta, np.atleast_1d(np.asarray(y, dtype=float)))


def bogus_prox_l1():
    """l1 at d = 1 with a prox that returns y, wrong on purpose: the lower
    envelope then rises above g_y^eta at proposals nearer 0 than y."""
    return Potential(
        dim=1,
        value=lambda x: float(np.abs(x).sum()),
        subgrad=lambda x: np.sign(np.asarray(x, dtype=float)),
        profile=SmoothnessProfile(alpha=0.0, l_alpha=2.0),
        prox=lambda eta, y: np.asarray(y, dtype=float),
        name="bogus",
    )


class TestEnvelopes:
    def test_lower_envelope_at_center(self):
        assert lower_envelope(np.zeros(2), np.zeros(2), 0.0, 0.5) == 0.0
        assert lower_envelope(np.array([1.0, 2.0]), np.array([0.0, 2.0]), 0.25, 0.5) == 0.75

    def test_exact_mode_center_and_offset(self):
        obj = l1_objective(0.5, 2.0)
        xstar = prox_of_target(obj)
        assert xstar[0] == pytest.approx(1.5)
        assert obj.value(xstar) == pytest.approx(1.75)

    def test_bundle_mode_offset_shifted_by_delta(self):
        # the prox point 1.5 has g = 1.75; the bundle-mode offset lies below
        # best_value by less than delta, and rgo_sample uses exactly it
        obj = l1_objective(0.5, 2.0)
        res = prox_bundle(obj, delta=0.1)
        assert res.best_value == pytest.approx(1.75)
        offset = envelope_offset(res.best_value, res.model_value, res.qp_gap, 0.1)
        assert res.best_value - 0.1 <= offset <= res.model_value <= res.best_value
        cfg = RgoConfig(eta=0.5, delta=0.1, mode="bundle")
        s = rgo_sample(obj, cfg, np.random.default_rng(14))
        assert s.envelope_offset == offset

    def test_upper_envelope_value_at_center(self):
        obj = l1_objective(0.5, 2.0)
        assert upper_envelope(np.array([1.5]), np.array([1.5]), 1.75, obj) == pytest.approx(1.75)

    def test_upper_envelope_smooth_case_is_quadratic(self):
        # alpha=1 with l_alpha=0: pure quadratic of curvature 1/eta_mu_l1
        pot = make_gaussian(1, (2.0,))
        obj = ProxObjective(RegularizedTarget(pot, 0.5, np.zeros(1)), 0.4, np.array([1.0]))
        xstar = prox_of_target(obj)
        v = obj.value(xstar)
        r = 0.7
        expected = v + r**2 / (2.0 * obj.eta_mu_l1)
        assert upper_envelope(xstar + r, xstar, v, obj) == pytest.approx(expected, rel=1e-12)

    def test_prox_shift_identity_with_mu(self):
        # prox of g from prox of f must minimize g_y^eta
        pot = make_l1(2, 1.3)
        obj = ProxObjective(RegularizedTarget(pot, 0.7, np.array([0.4, -0.2])), 0.6, np.array([1.1, -2.0]))
        xstar = prox_of_target(obj)
        res = prox_bundle(obj, delta=1e-9, max_iter=2000)
        assert obj.value(xstar) <= obj.value(res.x_best) + 2e-9
        np.testing.assert_allclose(xstar, res.x_best, atol=1e-3)


class TestEnvelopeOffset:
    def test_rgo_sample_uses_dual_certificate_offset(self):
        # l1 at d=1: one-plane bundle steps, whose model value is the exact
        # minimum of the model objective, well above best_value - delta
        eta, delta = select_params_semismooth(make_l1(1, 1.0).profile, 1)
        cfg = RgoConfig(eta=eta, delta=delta, mode="bundle")
        rng = np.random.default_rng(12)
        for y in (-2.0, -0.1, 0.05, 1.3):
            obj = l1_objective(eta, y, mu=0.05)
            res = prox_bundle(obj, delta)
            offset = envelope_offset(res.best_value, res.model_value, res.qp_gap, delta)
            assert res.iterations == 1 and res.qp_gap == 0.0
            assert offset > res.best_value - delta
            assert offset <= res.model_value
            s = rgo_sample(obj, cfg, rng)
            assert s.envelope_offset == offset
            assert s.center.tolist() == res.x_model.tolist()

    def test_huge_values_fall_back_to_paper_offset(self):
        # g ~ 7.6e14 at this y, where one ulp is 0.125: the rounding margin
        # exceeds delta, so the offset is best_value - delta, as before the
        # dual certificate, and no proposal trips the envelope guard
        pot = make_l1(3, 1.0)
        eta, delta = select_params_semismooth(pot.profile, 3)
        y = np.array([1e-300, -0.0, 123456789.125])
        obj = ProxObjective(RegularizedTarget(pot, 0.1, np.zeros(3)), eta, y)
        res = prox_bundle(obj, delta)
        assert abs(res.best_value) > 1e14
        offset = envelope_offset(res.best_value, res.model_value, res.qp_gap, delta)
        assert offset == res.best_value - delta
        cfg = RgoConfig(eta=eta, delta=delta, mode="bundle")
        rng = np.random.default_rng(13)
        for _ in range(200):
            s = rgo_sample(obj, cfg, rng)
            assert s.envelope_offset == res.best_value - delta
            assert s.log_accept_ratio <= 1e-9


class TestRgoSample:
    def test_zero_potential_always_accepts(self):
        pot = make_zero(2)
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(2)), 0.7, np.array([1.0, -1.0]))
        cfg = RgoConfig(eta=0.7, mode="exact")
        rng = np.random.default_rng(0)
        draws = np.array([rgo_sample(obj, cfg, rng).rejections for _ in range(500)])
        assert np.all(draws == 0)

    def test_zero_potential_marginal_is_gaussian(self):
        pot = make_zero(1)
        y = np.array([1.0])
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(1)), 0.7, y)
        cfg = RgoConfig(eta=0.7, mode="exact")
        rng = np.random.default_rng(1)
        n = 20000
        xs = np.array([rgo_sample(obj, cfg, rng).x[0] for _ in range(n)])
        from scipy.special import ndtr

        z = (xs - 1.0) / math.sqrt(0.7)
        stat = ks_1samp(z, ndtr)
        assert stat < ks_critical(0.01, n)

    def test_mean_proposals_respects_bundle_bound(self):
        pot = make_l1(1, 1.0)
        eta, delta = select_params_semismooth(pot.profile, 1)
        cfg = RgoConfig(eta=eta, delta=delta, mode="bundle")
        rng = np.random.default_rng(2)
        n = 3000
        counts = np.empty(n)
        for i in range(n):
            y = 2.0 * rng.standard_normal(1)
            obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(1)), eta, y)
            counts[i] = rgo_sample(obj, cfg, rng).rejections + 1
        bound = rejection_bound(cfg, pot.profile, 1)
        assert math.isfinite(bound)
        assert counts.mean() <= bound + 3 * counts.std() / math.sqrt(n)

    def test_gaussian_exact_acceptance_vs_quadrature(self):
        # acceptance probability at eta = 1/d: measured, theoretical, quadrature
        pot = make_gaussian(1, (1.0,))
        eta = 1.0
        cfg = RgoConfig(eta=eta, mode="exact")
        rng = np.random.default_rng(3)
        y = np.array([0.8])
        obj = ProxObjective(RegularizedTarget(pot, 0.0, np.zeros(1)), eta, y)
        n = 4000
        counts = np.array([rgo_sample(obj, cfg, rng).rejections + 1 for i in range(n)])
        from proxsamp.checks import acceptance_probability_oracle

        xstar = prox_of_target(obj)
        ratio = acceptance_probability_oracle(obj, xstar, obj.value(xstar))
        assert ratio >= math.exp(-0.5)
        assert counts.mean() == pytest.approx(1.0 / ratio, rel=0.05)

    def test_unbiased_vs_quadrature_cdf(self):
        obj = l1_objective(1.0 / 16.0, 0.7)
        cfg = RgoConfig(eta=1.0 / 16.0, mode="exact")
        rng = np.random.default_rng(4)
        n = 20000
        xs = np.array([rgo_sample(obj, cfg, rng).x[0] for _ in range(n)])
        truth = QuadratureDensity.build(obj.value, 1, center=np.zeros(1))
        stat = ks_1samp(xs, truth.cdf_at)
        assert stat < ks_critical(0.01, n)

    def test_modes_agree_small(self):
        eta, delta = select_params_semismooth(make_l1(1, 1.0).profile, 1)
        rng = np.random.default_rng(5)
        n = 20000
        a = np.empty(n)
        b = np.empty(n)
        obj = l1_objective(eta, 0.7)
        for i in range(n):
            a[i] = rgo_sample(obj, RgoConfig(eta=eta, mode="exact"), rng).x[0]
            b[i] = rgo_sample(obj, RgoConfig(eta=eta, delta=delta, mode="bundle"), rng).x[0]
        from proxsamp.metrics import ks_2samp, two_sample_n_eff

        assert ks_2samp(a, b) < ks_critical(0.01, two_sample_n_eff(n, n))

    def test_acceptance_log_ratio_in_range(self):
        obj = l1_objective(0.25, 1.2)
        cfg = RgoConfig(eta=0.25, mode="exact")
        rng = np.random.default_rng(6)
        for _ in range(200):
            s = rgo_sample(obj, cfg, rng)
            assert s.log_accept_ratio <= 1e-9

    def test_envelope_violation_detected_with_bogus_prox(self):
        obj = ProxObjective(RegularizedTarget(bogus_prox_l1(), 0.0, np.zeros(1)), 0.5, np.array([2.0]))
        cfg = RgoConfig(eta=0.5, mode="exact")
        rng = np.random.default_rng(7)
        with pytest.raises(EnvelopeViolationError):
            for _ in range(200):
                rgo_sample(obj, cfg, rng)

    def test_envelope_guard_allows_rounding_at_large_g(self):
        # g_y^eta is about 2e7 at the prox point of y = 7500: an absolute
        # 1e-9 guard failed 7 of these 20 seeds on rounding alone
        eta = 10**-1.5
        obj = l1_objective(eta, 7500.0, mu=0.5)
        cfg = RgoConfig(eta=eta, mode="exact")
        for seed in range(20):
            s = rgo_sample(obj, cfg, np.random.default_rng(seed))
            assert s.log_accept_ratio <= 1e-9 * abs(s.envelope_offset)

    def test_envelope_violation_in_a_chain_names_step_seed_and_y(self):
        # a sampler failure like the caps: run_chain and gibbs_step add where
        # it happened, so ``proxsamp sample`` exits 3 with the same context
        cfg = ChainConfig(eta=1.0 / 16.0, delta=1.0, mu=0.0, center_x0=(0.0,), n_iters=200, seed=11, rgo_mode="exact")
        with pytest.raises(EnvelopeViolationError) as exc:
            run_chain(bogus_prox_l1(), cfg, x_init=np.array([2.0]))
        context = exc.value.context
        assert set(context) == {"step", "seed", "y"}
        assert context["seed"] == 11
        assert f"(step {context['step']}, seed 11, y {context['y']})" in str(exc.value)

    @pytest.mark.parametrize("mode", ["exact", "bundle"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_point_fails_at_once(self, mode, bad):
        # a non-finite g_y^eta at the start of the sweep is refused before
        # any proposal (exact mode) or model QP (bundle mode)
        eta, delta = select_params_semismooth(make_l1(1, 1.0).profile, 1)
        cfg = RgoConfig(eta=eta, delta=delta, mode=mode)
        obj = l1_objective(eta, 0.0)
        # at mu = 0 an infinite y gives g_y^eta = inf: the regularizer is
        # skipped, not multiplied by 0
        where = "at the prox point of y" if mode == "exact" else "at y"
        # gibbs_step adds y to the error's context
        want = (rf"g_y\^eta is inf {where} = \[inf\] \(y \[inf\]\)$" if bad == math.inf
                else r"g_y\^eta is nan .*y = \[(nan|inf)\]")
        start = time.perf_counter()
        with pytest.raises(NonFiniteObjectiveError, match=want) as exc:
            gibbs_step(np.array([bad]), obj, cfg, np.random.default_rng(0))
        assert isinstance(exc.value, ValueError)
        assert time.perf_counter() - start < 1.0

    # f overflows at the far point, as it should
    @pytest.mark.filterwarnings("ignore:overflow encountered in (multiply|matmul):RuntimeWarning")
    @pytest.mark.parametrize("mode", ["exact", "bundle"])
    @pytest.mark.parametrize(
        "pot, x", [(make_gaussian(1, (1.0,)), [1e200]), (make_power_norm(1, 0.5), [1e300])], ids=["gaussian", "power_norm"]
    )
    def test_far_finite_start_is_a_sampler_error(self, mode, pot, x):
        # f overflows to inf at a finite point: a typed sampler failure that
        # run_chain gives its step and seed, not a bare ValueError
        eta, delta = select_params_composite(pot.profile, 1)
        cfg = ChainConfig(eta=eta, delta=delta, mu=0.0, center_x0=(0.0,), n_iters=3, seed=5, rgo_mode=mode)
        with pytest.raises(SamplerError, match=r"g_y\^eta is inf") as exc:
            run_chain(pot, cfg, x_init=np.array(x))
        assert isinstance(exc.value, NonFiniteObjectiveError) and isinstance(exc.value, ValueError)
        assert exc.value.context["step"] == 0 and exc.value.context["seed"] == 5
        assert exc.value.context["y"][0] > 1e199

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_prox_output_shape_checked(self, mu):
        # proposals are evaluated unchecked, so a prox of the wrong shape
        # must be caught where it enters
        wrong = Potential(
            dim=2,
            value=lambda x: float(np.abs(x).sum()),
            subgrad=lambda x: np.sign(np.asarray(x, dtype=float)),
            profile=SmoothnessProfile(alpha=0.0, l_alpha=2.0),
            prox=lambda eta, y: np.zeros(3),
            name="wrong-shape",
        )
        obj = ProxObjective(RegularizedTarget(wrong, mu, np.zeros(2)), 0.1, np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="shape"):
            prox_of_target(obj)
        with pytest.raises(ValueError, match="shape"):
            rgo_sample(obj, RgoConfig(eta=0.1, mode="exact"), np.random.default_rng(0))

    def test_rejection_limit(self, monkeypatch):
        import proxsamp.rejection as rejection

        monkeypatch.setattr(rejection, "MAX_REJECTIONS", 2)
        obj = l1_objective(50.0, 0.3)
        cfg = RgoConfig(eta=50.0, mode="exact")
        rng = np.random.default_rng(8)
        with pytest.raises(RejectionLimitError) as exc:
            for _ in range(500):
                rgo_sample(obj, cfg, rng)
        assert exc.value.rejections == 2
        assert str(exc.value).startswith("no acceptance within 2 proposals")
        assert exc.value.center.shape == (1,)

    def test_step_size_warning_only_when_violated(self):
        # run_chain checks the guard once per chain, before its first sweep;
        # the per-sweep layers never warn
        pot = make_l1(1, 1.0)

        def count_warnings(fn):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fn()
            return sum(issubclass(w.category, StepSizeWarning) for w in caught)

        def config(eta):
            return ChainConfig(eta=eta, delta=1.0, mu=0.0, center_x0=(0.0,), n_iters=5, seed=9, rgo_mode="exact")

        assert count_warnings(lambda: run_chain(pot, config(1.0 / 16.0))) == 0
        assert count_warnings(lambda: run_chain(pot, config(1.0))) == 1
        assert count_warnings(lambda: [run_chain(pot, config(1.0)) for _ in range(3)]) == 3
        # at eta = 1 the guard 1/16 fails: sweeps and oracle calls stay silent
        obj = l1_objective(1.0, 0.5)
        cfg = RgoConfig(eta=1.0, mode="exact")
        rng = np.random.default_rng(9)
        with warnings.catch_warnings():
            warnings.simplefilter("error", StepSizeWarning)
            rgo_sample(obj, cfg, rng)
            gibbs_step(np.array([0.5]), obj, cfg, rng)

    def test_eta_mismatch_rejected(self):
        obj = l1_objective(0.5, 1.0)
        with pytest.raises(ValueError):
            rgo_sample(obj, RgoConfig(eta=0.25, mode="exact"), np.random.default_rng(0))


class _WideProposals:
    """A Generator whose ``standard_normal`` draws are ``factor`` times
    wider: proposals from N(center, factor^2 eta_mu I), the law of the
    mutant that scales proposals by sqrt(eta) in place of sqrt(eta_mu)."""

    def __init__(self, rng, factor):
        self.rng, self.factor = rng, factor

    def standard_normal(self, size):
        return self.factor * self.rng.standard_normal(size)

    def random(self):
        return self.rng.random()


class TestRgoLawAtPositiveMu:
    """At a fixed y, accepted points follow exp(-g_y^eta) with mu > 0.

    On make_gaussian(5, ones) that law is N(m, I/p) with p = lam + 1/eta,
    lam = 1 + mu and m = (mu x0 + y/eta)/p.  The draws are standardized to
    Z; the pooled coordinates of Z are tested with KS against N(0, 1) and
    ||Z||^2 against chi^2_5, at 1% with Bonferroni over the 8 p-values of
    the gate (2 modes x 2 mu x 2 tests).
    """

    DIM, N = 5, 10_000
    LEVEL = 0.01 / 8
    X0 = np.array([0.8, -0.5, 0.3, 1.0, -1.2])
    Y = np.array([-0.7, 1.1, 0.4, -0.9, 0.6])

    def p_values(self, mode, mu, rng):
        from scipy import stats

        pot = make_gaussian(self.DIM, np.ones(self.DIM))
        eta, delta = select_params_composite(pot.profile, self.DIM)
        obj = ProxObjective(RegularizedTarget(pot, mu, self.X0), eta, self.Y)
        cfg = RgoConfig(eta=eta, delta=delta, mode=mode)
        xs = np.array([rgo_sample(obj, cfg, rng).x for _ in range(self.N)])
        prec = 1.0 + mu + 1.0 / eta
        z = (xs - (mu * self.X0 + self.Y / eta) / prec) * math.sqrt(prec)
        return (
            stats.kstest(z.ravel(), "norm").pvalue,
            stats.kstest((z * z).sum(axis=1), "chi2", args=(self.DIM,)).pvalue,
        )

    def test_law_gate(self):
        p = {
            (mode, mu): self.p_values(mode, mu, np.random.default_rng(seed))
            for seed, (mode, mu) in enumerate([(m, mu) for m in ("exact", "bundle") for mu in (0.3, 2.0)])
        }
        assert min(min(v) for v in p.values()) >= self.LEVEL, p

    @pytest.mark.parametrize("mode", ["exact", "bundle"])
    def test_gate_rejects_proposals_scaled_by_sqrt_eta(self, mode):
        # proposals of variance eta = (1 + eta mu) eta_mu, the law of the
        # sqrt(eta) mutant, which only mu > 0 shows
        pot = make_gaussian(self.DIM, np.ones(self.DIM))
        eta = select_params_composite(pot.profile, self.DIM)[0]
        wide = _WideProposals(np.random.default_rng(40), math.sqrt(1.0 + eta * 0.3))
        _, p_chi2 = self.p_values(mode, 0.3, wide)
        assert p_chi2 < self.LEVEL


class TestRejectionBound:
    def test_exact_semismooth_is_two(self):
        cfg = RgoConfig(eta=1.0 / 16.0, mode="exact")
        assert rejection_bound(cfg, make_l1(1, 1.0).profile, 1) == 2.0

    def test_bundle_delta_zero_continuity(self):
        cfg = RgoConfig(eta=1.0 / 16.0, delta=1e-12, mode="bundle")
        assert rejection_bound(cfg, make_l1(1, 1.0).profile, 1) == pytest.approx(2.0, abs=1e-10)

    def test_composite_value(self):
        prof = SmoothnessProfile(alpha=0.0, l_alpha=1.0, l_one=1.0)
        eta = min(select_params_semismooth(prof, 1)[0], 1.0)
        cfg = RgoConfig(eta=min(eta, 1.0), delta=0.1, mode="bundle")
        assert rejection_bound(cfg, prof, 1) == pytest.approx(2.0 * math.exp(0.6), rel=1e-12)

    def test_smooth_value(self):
        prof = make_gaussian(3, np.ones(3)).profile
        cfg = RgoConfig(eta=1.0 / 3.0, delta=0.2, mode="bundle")
        assert rejection_bound(cfg, prof, 3) == pytest.approx(math.exp(0.7), rel=1e-12)

    def test_violated_condition_flags_inf(self):
        cfg = RgoConfig(eta=10.0, mode="exact")
        assert math.isinf(rejection_bound(cfg, make_l1(1, 1.0).profile, 1))

    def test_step_condition_boundary(self):
        prof = make_l1(4, 1.0).profile
        eta, delta = select_params_semismooth(prof, 4)
        for mode in ("exact", "bundle"):
            assert math.isfinite(rejection_bound(RgoConfig(eta=eta, delta=delta, mode=mode), prof, 4))
            assert math.isinf(rejection_bound(RgoConfig(eta=eta * 1.01, delta=delta, mode=mode), prof, 4))

    @pytest.mark.parametrize(
        "profile, rule",
        [
            (SmoothnessProfile(alpha=0.0, l_alpha=1.0), "2 exp(delta)"),
            (SmoothnessProfile(alpha=1.0, l_alpha=0.0, l_one=1.0), "exp(1/2 + delta)"),
            (SmoothnessProfile(alpha=0.0, l_alpha=1.0, l_one=1.0), "2 exp(1/2 + delta)"),
        ],
        ids=["semi-smooth", "smooth", "composite"],
    )
    def test_bound_out_of_float_range_names_the_rule(self, profile, rule):
        # exp overflows past delta ~ 709.78: a ValueError naming the rule,
        # not an OverflowError; exact mode has no delta in its bound
        eta = 1e-3
        assert math.isfinite(rejection_bound(RgoConfig(eta=eta, delta=700.0, mode="bundle"), profile, 1))
        with pytest.raises(ValueError, match=rf"the proposal bound {re.escape(rule)} leaves float range at delta = 1000.0"):
            rejection_bound(RgoConfig(eta=eta, delta=1000.0, mode="bundle"), profile, 1)
        assert math.isfinite(rejection_bound(RgoConfig(eta=eta, delta=1000.0, mode="exact"), profile, 1))

    def test_guard_holds_for_eta_mu_not_eta(self):
        # l1 at d = 1 has guard 1/16; eta = 0.07 exceeds it, but at mu = 2
        # eta_mu = 0.07/1.14 = 0.0614 does not, and run_chain agrees
        pot = make_l1(1, 1.0)
        cfg = RgoConfig(eta=0.07, mode="exact")

        def chain(mu):
            config = ChainConfig(eta=0.07, delta=1.0, mu=mu, center_x0=(0.0,), n_iters=3, seed=10, rgo_mode="exact")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_chain(pot, config)
            return sum(issubclass(w.category, StepSizeWarning) for w in caught)

        assert math.isinf(rejection_bound(cfg, pot.profile, 1, mu=0.0))
        assert chain(0.0) == 1
        assert rejection_bound(cfg, pot.profile, 1, mu=2.0) == 2.0
        assert chain(2.0) == 0


class TestRgoConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            RgoConfig(eta=0.5, mode="other")

    def test_bundle_needs_delta(self):
        with pytest.raises(ValueError):
            RgoConfig(eta=0.5, mode="bundle", delta=0.0)

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            RgoConfig(eta=0.0)
        with pytest.raises(ValueError):
            l1_objective(0.0, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_eta_and_delta(self, value):
        with pytest.raises(ValueError, match="eta must be finite"):
            RgoConfig(eta=value)
        # ProxObjective checks eta as RgoConfig does
        with pytest.raises(ValueError, match="eta must be finite"):
            l1_objective(value, 1.0)
        with pytest.raises(ValueError, match="delta must be finite and > 0"):
            RgoConfig(eta=0.5, mode="bundle", delta=value)
        # and ProxObjective refuses a non-finite prox center y
        with pytest.raises(ValueError, match="y must be finite"):
            l1_objective(0.5, value)
